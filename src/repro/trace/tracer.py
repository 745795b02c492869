"""HPDR-Trace span tracer (the runtime counterpart of ``machine.engine``).

The simulator's :class:`~repro.machine.engine.Trace` made the paper's
pipeline optimizations *visible*; this module does the same for the real
wall-clock hot paths.  A :func:`span` context manager (or the
:func:`traced` decorator) records one timed interval per stage —
``span("mgard.decompose", chunk=i)`` — tagged with the executing thread,
so serial, thread-pool and sanitized executions all produce comparable
timelines.

Design constraints, in priority order:

1. **Near-zero overhead when disabled.**  ``span()`` returns a shared
   no-op context manager after a single module-flag check; no kwargs
   are inspected, no clock is read, nothing allocates per call beyond
   the caller's argument dict.  The zero-alloc steady-state tests and
   the committed wall-clock record hold with tracing off.
2. **Thread safety.**  Spans close on arbitrary pool threads (the
   OpenMP adapter); completed events append under a lock.  Nesting depth is tracked per thread so exporters can
   reconstruct the call tree without re-sorting.
3. **No repro-internal imports.**  Everything above this module
   (adapters, codecs, the CMM) may import it; it imports nothing of
   theirs, so instrumentation can never create a cycle.

Events are *complete* spans (Chrome ``ph: "X"`` semantics): name,
category, start, duration, pid/tid, free-form args.  Exporters live in
:mod:`repro.trace.chrome` (Chrome/Perfetto JSON) and
:mod:`repro.trace.gantt` (the shared ``machine.timeline`` renderer).
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field

#: per-stage duration histogram buckets (seconds).
_STAGE_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


@dataclass
class SpanEvent:
    """One completed span: a timed, named interval on one thread."""

    name: str
    cat: str
    start_ns: int       # time.perf_counter_ns at __enter__
    dur_ns: int
    pid: int
    tid: int
    depth: int          # per-thread nesting depth at entry (0 = root)
    args: dict = field(default_factory=dict)

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.dur_ns


class _NullSpan:
    """Shared no-op span handed out while tracing is disabled.

    ``__enter__``/``__exit__`` do nothing; :meth:`set` swallows late
    annotations.  One instance serves the whole process — the disabled
    fast path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """A live span; records a :class:`SpanEvent` on exit."""

    __slots__ = ("_tracer", "name", "cat", "args", "_start_ns", "_depth")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._start_ns = 0
        self._depth = 0

    def set(self, **args) -> "Span":
        """Attach/override args after entry (e.g. output byte counts)."""
        self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        local = self._tracer._local
        self._depth = getattr(local, "depth", 0)
        local.depth = self._depth + 1
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter_ns() - self._start_ns
        tracer = self._tracer
        tracer._local.depth = self._depth
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        tracer._commit(
            SpanEvent(
                name=self.name,
                cat=self.cat,
                start_ns=self._start_ns,
                dur_ns=dur,
                pid=tracer.pid,
                tid=threading.get_ident(),
                depth=self._depth,
                args=self.args,
            )
        )
        return False


class Tracer:
    """Collects :class:`SpanEvent` records for one process.

    The module-level singleton (:data:`TRACER`) is what the
    instrumentation sites use; independent instances are for tests.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.pid = os.getpid()
        self.events: list[SpanEvent] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: wall-clock (epoch ns) matching perf_counter origin, taken at
        #: enable() — lets exporters produce absolute timestamps.
        self.epoch_ns = 0

    # -- control -------------------------------------------------------
    def enable(self, clear: bool = False) -> None:
        if clear:
            self.clear()
        if not self.events:
            self.epoch_ns = time.time_ns() - time.perf_counter_ns()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        with self._lock:
            self.events.clear()

    # -- recording -----------------------------------------------------
    def span(self, name: str, cat: str = "host", **args):
        """Start a span; returns :data:`NULL_SPAN` when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, cat, args)

    def _commit(self, event: SpanEvent) -> None:
        with self._lock:
            self.events.append(event)
        # Feed the per-stage duration metric so Prometheus output carries
        # stage timings even when the caller only exports metrics.  Local
        # import: metrics never imports the tracer, so no cycle.
        from repro.trace.metrics import REGISTRY

        REGISTRY.histogram(
            "hpdr_stage_seconds",
            "span duration per stage",
            buckets=_STAGE_BUCKETS,
        ).observe(event.dur_ns / 1e9, stage=event.name)

    # -- inspection ----------------------------------------------------
    def snapshot(self) -> list[SpanEvent]:
        """A consistent copy of the events recorded so far."""
        with self._lock:
            return list(self.events)

    def names(self) -> list[str]:
        seen: dict[str, None] = {}
        for e in self.snapshot():
            seen.setdefault(e.name)
        return list(seen)


#: process-wide tracer used by all instrumentation sites.
TRACER = Tracer()


def enabled() -> bool:
    """True when the process-wide tracer is recording."""
    return TRACER.enabled


def enable(clear: bool = False) -> None:
    TRACER.enable(clear=clear)


def disable() -> None:
    TRACER.disable()


def clear() -> None:
    TRACER.clear()


def span(name: str, cat: str = "host", **args):
    """Module-level shorthand for ``TRACER.span`` (the hot call site).

    The disabled path is one attribute load and one branch; callers pay
    only for their own kwargs dict.
    """
    if not TRACER.enabled:
        return NULL_SPAN
    return Span(TRACER, name, cat, args)


def count_bytes(codec: str, nbytes_in: int, nbytes_out: int) -> None:
    """Add one ``compress()`` call to the per-codec volume counters
    (one attribute test when tracing is off)."""
    if not TRACER.enabled:
        return
    from repro.trace.metrics import REGISTRY  # metrics never imports us

    REGISTRY.counter("hpdr_bytes_in_total", "bytes fed to compress()").inc(
        int(nbytes_in), codec=codec
    )
    REGISTRY.counter("hpdr_bytes_out_total", "compressed bytes produced").inc(
        int(nbytes_out), codec=codec
    )


def traced(name: str | None = None, cat: str = "host"):
    """Decorator form: trace every call of the wrapped function.

    ``@traced()`` uses the function's qualified name; pass ``name=`` to
    pick the span label explicitly::

        @traced("huffman.codebook", cat="huffman")
        def build_codebook(freqs): ...
    """

    def _wrap(fn):
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def _inner(*a, **kw):
            if not TRACER.enabled:
                return fn(*a, **kw)
            with Span(TRACER, label, cat, {}):
                return fn(*a, **kw)

        _inner.__traced_name__ = label
        return _inner

    return _wrap
