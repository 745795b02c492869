"""Prometheus-style runtime metrics: counters, gauges, histograms.

The tracing layer answers "where did the time go"; this module answers
"how much work flowed through" — bytes in/out per codec, per-stage
nanoseconds, CMM hits/misses/evictions/bytes pinned, thread-pool queue
depth.  The exposition format follows the Prometheus text conventions
(``name{label="value"} count``) so the output of
:meth:`MetricsRegistry.render_prometheus` can be scraped or diffed
directly, and :meth:`MetricsRegistry.summary` renders the same data as
a human table for the CLI's ``--metrics`` flag.

Like the tracer, metrics are disabled by default and the disabled hot
path is one flag check: instrumentation sites call
:func:`repro.trace.tracer.enabled` (one switch controls both layers)
before touching a metric.  All mutators are lock-protected — pool
threads (OpenMP adapter) update counters concurrently
and the totals must be exact, which the threads-1/2/4 tests pin.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Hashable

#: default histogram bucket upper bounds (generic work-size scale).
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class BoundCounter:
    """Hot-path handle on one label combination of a :class:`Counter`.

    :meth:`Counter.child` precomputes the label key once, so per-event
    sites (e.g. the serve submit path) pay a dict update under the
    parent's lock and never rebuild/sort the label tuple.
    """

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: "Counter", key: _LabelKey) -> None:
        self._counter = counter
        self._key = key

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError(
                f"counter {self._counter.name} cannot decrease (n={n})"
            )
        c = self._counter
        with c._lock:
            c._values[self._key] = c._values.get(self._key, 0) + n


class Counter:
    """Monotonic counter with optional labels.

    One :class:`Counter` object covers every label combination of one
    metric name; ``inc(n, codec="mgard")`` addresses the labeled child.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[_LabelKey, float] = {}
        self._lock = threading.Lock()

    def inc(self, n: float = 1, **labels) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + n

    def child(self, **labels) -> BoundCounter:
        """Precomputed-label handle for per-event instrumentation."""
        return BoundCounter(self, _label_key(labels))

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0)

    def total(self) -> float:
        """Sum across all label combinations."""
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> list[tuple[_LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())


class Gauge(Counter):
    """A counter that may also decrease / be set (e.g. bytes pinned)."""

    kind = "gauge"

    def inc(self, n: float = 1, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + n

    def dec(self, n: float = 1, **labels) -> None:
        self.inc(-n, **labels)

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[_label_key(labels)] = value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    Tracks count/sum/max plus per-bucket counts; buckets are upper
    bounds with an implicit ``+Inf``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"buckets must be strictly increasing, got {buckets}")
        self.name = name
        self.help = help
        self.buckets = tuple(buckets)
        self._counts: dict[_LabelKey, list[int]] = {}
        self._sums: dict[_LabelKey, float] = {}
        self._ns: dict[_LabelKey, int] = {}
        self._maxes: dict[_LabelKey, float] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        idx = bisect_right(self.buckets, value)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.buckets) + 1)
            counts[idx] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._ns[key] = self._ns.get(key, 0) + 1
            self._maxes[key] = max(self._maxes.get(key, value), value)

    def count(self, **labels) -> int:
        with self._lock:
            return self._ns.get(_label_key(labels), 0)

    def sum(self, **labels) -> float:
        with self._lock:
            return self._sums.get(_label_key(labels), 0.0)

    def mean(self, **labels) -> float:
        n = self.count(**labels)
        return self.sum(**labels) / n if n else 0.0

    def max(self, **labels) -> float:
        with self._lock:
            return self._maxes.get(_label_key(labels), 0.0)

    def samples(self) -> list[tuple[_LabelKey, int, float, float]]:
        """(labels, count, sum, max) per label combination."""
        with self._lock:
            return sorted(
                (k, self._ns[k], self._sums[k], self._maxes[k])
                for k in self._ns
            )


class MetricsRegistry:
    """Name → metric map with idempotent registration.

    ``registry.counter("hpdr_bytes_in_total")`` returns the same object
    on every call, so instrumentation sites need no module-level metric
    globals (and tests can :meth:`reset` the world between cases).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_make(self, cls, name: str, help: str, **kw):
        with self._lock:
            m = self._metrics.get(name)
            if m is None:
                m = self._metrics[name] = cls(name, help, **kw)
            elif type(m) is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as {m.kind}, "
                    f"requested {cls.__name__.lower()}"
                )
            return m

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_make(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_make(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_make(Histogram, name, help, buckets=buckets)

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- exposition ----------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition of every registered metric."""
        lines: list[str] = []
        for name in self.names():
            m = self._metrics[name]
            if m.help:
                lines.append(f"# HELP {name} {m.help}")
            lines.append(f"# TYPE {name} {m.kind}")
            if isinstance(m, Histogram):
                for key, n, total, _mx in m.samples():
                    labels = dict(key)
                    cumulative = 0
                    with m._lock:
                        counts = list(m._counts[key])
                    for bound, c in zip(m.buckets, counts):
                        cumulative += c
                        lk = _label_key({**labels, "le": bound})
                        lines.append(f"{name}_bucket{_format_labels(lk)} {cumulative}")
                    lk = _label_key({**labels, "le": "+Inf"})
                    lines.append(f"{name}_bucket{_format_labels(lk)} {n}")
                    lines.append(f"{name}_sum{_format_labels(key)} {total:g}")
                    lines.append(f"{name}_count{_format_labels(key)} {n}")
            else:
                for key, value in m.samples():
                    lines.append(f"{name}{_format_labels(key)} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def summary(self) -> str:
        """Human-readable table of every non-zero metric."""
        rows: list[tuple[str, str, str]] = []
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Histogram):
                for key, n, total, mx in m.samples():
                    rows.append(
                        (
                            name + _format_labels(key),
                            m.kind,
                            f"n={n} sum={total:g} mean={total / n:g} max={mx:g}",
                        )
                    )
            else:
                for key, value in m.samples():
                    rows.append((name + _format_labels(key), m.kind, f"{value:g}"))
        if not rows:
            return "(no metrics recorded)"
        w_name = max(len(r[0]) for r in rows)
        w_kind = max(len(r[1]) for r in rows)
        lines = [f"{'metric'.ljust(w_name)}  {'type'.ljust(w_kind)}  value"]
        lines += [f"{n.ljust(w_name)}  {k.ljust(w_kind)}  {v}" for n, k, v in rows]
        return "\n".join(lines)


#: process-wide registry used by all instrumentation sites.
REGISTRY = MetricsRegistry()
