"""Measurement plumbing: wall-clock timing + HPDR-Trace span attribution.

Two sources feed the tuner:

* :func:`measure_call` — min-over-reps wall-clock timing of one
  configuration's run, with an **injectable clock** so the test suite
  drives the search with a :class:`FakeClock` and pays zero wall time;
* :class:`MeasurementSink` — a consumer of the tracer's measurement-sink
  API (:meth:`repro.trace.Tracer.add_sink`): while attached it receives
  every committed :class:`~repro.trace.SpanEvent` and aggregates
  per-stage totals, so a tuning report can say *where* a configuration
  spends its time (``huffman.encode`` vs ``mgard.decompose``), not just
  how long the whole run took.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.trace.tracer import SpanEvent, TRACER, Tracer


@dataclass
class Measurement:
    """One configuration's observed cost.

    ``seconds`` is the optimization objective (lower is better);
    ``digest`` is the SHA-256 of the run's output bytes — the
    byte-identity evidence the tuner compares against the default
    configuration before accepting anything; ``stage_seconds`` is the
    optional per-stage attribution from an attached
    :class:`MeasurementSink`.
    """

    config: dict[str, Any]
    seconds: float
    digest: str = ""
    stage_seconds: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")


def digest_bytes(*blobs: bytes) -> str:
    """SHA-256 over the concatenated output blobs (the identity proof)."""
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


class FakeClock:
    """Deterministic injectable clock for the tune test-suite.

    ``()`` returns the current reading; :meth:`advance` moves it.  A
    measure function wired to a FakeClock makes search convergence a
    pure function of the synthetic cost surface — no scheduler noise,
    no quarantine markers.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}")
        self.now += seconds


def measure_call(
    fn: Callable[[], Any],
    *,
    reps: int = 3,
    clock: Callable[[], float] | None = None,
) -> tuple[float, Any]:
    """Best-of-``reps`` seconds for ``fn()`` plus its last return value.

    Minimum over repetitions is the standard noise-rejection estimator:
    system jitter only ever adds time.  The clock is injectable for
    deterministic tests.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    tick = clock if clock is not None else time.perf_counter
    best = float("inf")
    value: Any = None
    for _ in range(reps):
        t0 = tick()
        value = fn()
        best = min(best, tick() - t0)
    return best, value


class MeasurementSink:
    """Aggregates committed spans into per-stage totals while attached.

    Usage::

        sink = MeasurementSink()
        with sink.attached():
            run_configuration()
        report = sink.stage_seconds()

    Thread-safe: spans commit on worker threads.  Use as a context
    manager (or :meth:`attach`/:meth:`detach`) around exactly the run
    being measured; the tracer must be enabled for spans to flow.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self._tracer = tracer if tracer is not None else TRACER
        self._lock = threading.Lock()
        self._totals_ns: dict[str, int] = {}
        self._counts: dict[str, int] = {}

    # The sink callable itself — handed to Tracer.add_sink.
    def __call__(self, event: SpanEvent) -> None:
        with self._lock:
            self._totals_ns[event.name] = (
                self._totals_ns.get(event.name, 0) + event.dur_ns
            )
            self._counts[event.name] = self._counts.get(event.name, 0) + 1

    def attach(self) -> "MeasurementSink":
        self._tracer.add_sink(self)
        return self

    def detach(self) -> None:
        self._tracer.remove_sink(self)

    def attached(self) -> "_SinkScope":
        return _SinkScope(self)

    def reset(self) -> None:
        with self._lock:
            self._totals_ns.clear()
            self._counts.clear()

    def stage_seconds(self) -> dict[str, float]:
        """Per-stage total seconds observed while attached."""
        with self._lock:
            return {k: v / 1e9 for k, v in self._totals_ns.items()}

    def stage_counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def total_seconds(self) -> float:
        with self._lock:
            return sum(self._totals_ns.values()) / 1e9


class _SinkScope:
    """Context manager attaching/detaching one :class:`MeasurementSink`."""

    def __init__(self, sink: MeasurementSink) -> None:
        self._sink = sink

    def __enter__(self) -> MeasurementSink:
        return self._sink.attach()

    def __exit__(self, *exc: Any) -> bool:
        self._sink.detach()
        return False


def attributed_measure(
    fn: Callable[[], Any],
    *,
    reps: int = 3,
    tracer: Tracer | None = None,
) -> tuple[float, Any, dict[str, float]]:
    """:func:`measure_call` plus per-stage attribution via a sink.

    Enables the tracer for the duration when it is not already on, so
    callers get stage data without globally flipping tracing.
    """
    t = tracer if tracer is not None else TRACER
    sink = MeasurementSink(t)
    was_enabled = t.enabled
    if not was_enabled:
        t.enable()
    try:
        with sink.attached():
            seconds, value = measure_call(fn, reps=reps)
    finally:
        if not was_enabled:
            t.disable()
    return seconds, value, sink.stage_seconds()


def stage_share(stage_seconds: Mapping[str, float]) -> dict[str, float]:
    """Normalize per-stage seconds to fractions of the traced total."""
    total = sum(stage_seconds.values())
    if total <= 0:
        return {}
    return {k: v / total for k, v in stage_seconds.items()}
