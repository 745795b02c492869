"""HPDR-Trace: unified runtime tracing & metrics for real executions.

The simulator (:mod:`repro.machine`) always had first-class traces; the
real hot paths — zero-alloc codecs, the CMM cache, thread-pool
adapters, the I/O engines — were opaque.
This package instruments them all through one API:

* :func:`span` / :func:`traced` — record a named, timed interval::

      from repro import trace

      with trace.span("mgard.decompose", cat="mgard", chunk=i):
          ...

* **Chrome JSON** — :func:`export_chrome` writes ``trace_event`` JSON
  loadable in ``chrome://tracing`` / Perfetto (and archived by CI).
* **Text Gantt** — :func:`render_spans` draws real executions through
  the same ``machine.timeline`` renderer used for simulated traces.
* **Metrics** — Prometheus-style counters/gauges/histograms (bytes
  in/out, per-stage seconds, CMM hits/misses/evictions/bytes pinned,
  thread-pool queue depth) via :data:`metrics` /
  :func:`counter` / :func:`gauge` / :func:`histogram`, rendered by
  :func:`summary` or :func:`render_prometheus`.

Enabling: set ``HPDR_TRACE=1`` in the environment (checked at import),
call :func:`enable`, or pass ``--trace``/``--metrics`` to the CLI.
Disabled, every instrumentation site costs one flag check and returns a
shared no-op span — the zero-alloc steady state and committed wall-clock
numbers are unaffected (measured <2% end-to-end; see DESIGN.md §3.3).
"""

from __future__ import annotations

import os

from repro.trace.chrome import (
    REQUIRED_FIELDS,
    chrome_events,
    export_chrome,
    load_chrome,
    spans_from_chrome,
    validate_events,
)
from repro.trace.gantt import render_spans, to_sim_trace
from repro.trace.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.trace.tracer import (
    NULL_SPAN,
    Span,
    SpanEvent,
    TRACER,
    Tracer,
    clear,
    disable,
    enable,
    enabled,
    span,
    traced,
)

#: the process-wide metrics registry (alias for discoverability).
metrics = REGISTRY

#: histogram buckets for per-stage durations (seconds).
TIME_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


def counter(name: str, help: str = "") -> Counter:
    """Process-wide counter (``registry.counter`` shorthand)."""
    return REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    return REGISTRY.gauge(name, help)


def histogram(name: str, help: str = "", buckets=None) -> Histogram:
    return REGISTRY.histogram(
        name, help, buckets=tuple(buckets) if buckets else TIME_BUCKETS
    )


def events() -> list[SpanEvent]:
    """Snapshot of the spans recorded so far."""
    return TRACER.snapshot()


def stage_table(events_: list[SpanEvent] | None = None) -> str:
    """Per-stage aggregation of recorded spans (calls, total/mean ms).

    The wall-clock analog of ``machine.engine.Trace.breakdown()``.
    """
    evs = events_ if events_ is not None else TRACER.snapshot()
    if not evs:
        return "(no spans recorded)"
    agg: dict[str, list[int]] = {}
    order: list[str] = []
    for e in evs:
        row = agg.get(e.name)
        if row is None:
            agg[e.name] = [1, e.dur_ns]
            order.append(e.name)
        else:
            row[0] += 1
            row[1] += e.dur_ns
    w = max(len(n) for n in order)
    lines = [f"{'stage'.ljust(w)} {'calls':>7} {'total ms':>10} {'mean ms':>10}"]
    for name in sorted(order, key=lambda n: -agg[n][1]):
        calls, total = agg[name]
        lines.append(
            f"{name.ljust(w)} {calls:>7} {total / 1e6:>10.3f} "
            f"{total / calls / 1e6:>10.4f}"
        )
    return "\n".join(lines)


def summary() -> str:
    """Combined stage table + metrics table for the CLI/bench output."""
    parts = ["== stages (spans) ==", stage_table()]
    parts += ["", "== metrics ==", REGISTRY.summary()]
    return "\n".join(parts)


def render_prometheus() -> str:
    """Prometheus text exposition of the process-wide registry."""
    return REGISTRY.render_prometheus()


def reset() -> None:
    """Clear recorded spans and all metrics (tests / repeated runs)."""
    TRACER.clear()
    REGISTRY.reset()


def _env_enabled() -> bool:
    return os.environ.get("HPDR_TRACE", "") not in ("", "0")


if _env_enabled():
    enable()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "REGISTRY",
    "REQUIRED_FIELDS",
    "Span",
    "SpanEvent",
    "TIME_BUCKETS",
    "TRACER",
    "Tracer",
    "chrome_events",
    "clear",
    "counter",
    "disable",
    "enable",
    "enabled",
    "events",
    "export_chrome",
    "gauge",
    "histogram",
    "load_chrome",
    "metrics",
    "render_prometheus",
    "render_spans",
    "reset",
    "span",
    "spans_from_chrome",
    "stage_table",
    "summary",
    "to_sim_trace",
    "traced",
    "validate_events",
]
