"""In-memory span recorder and the timing proxies the benchmark passes
through public parameters (``adapter=``, ``compressor=``).

Everything here lives outside ``src/``: a layer is measured by timing
the calls *into* it.  A span is ``(name, start, end, parent, op_id)``;
a span's self time is its duration minus the part of that interval its
children cover (children of one span may overlap when they ran on
different threads or tasks, so coverage is the union, not the sum).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from statistics import median

_now = time.perf_counter

#: name prefix of the launch spans :class:`TimingAdapter` records.
DETAIL = "adapters."


class Recorder:
    """Span store.  Sequential code uses :meth:`span` (a stack tracks the
    parent); concurrent coroutines pass ``parent`` explicitly to
    :meth:`begin` because they interleave on one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []      # -1 = root
        self.op_id: list[int] = []
        self._stack: list[int] = []
        #: spans are recorded on this thread only; proxies called from
        #: pool threads count their calls but stay inside the caller's span.
        self.owner = threading.get_ident()

    def begin(self, name: str, parent: int | None = None, op_id: int = -1) -> int:
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        if op_id < 0 and parent >= 0:
            op_id = self.op_id[parent]
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(parent)
        self.op_id.append(op_id)
        self.end.append(0.0)
        self.start.append(_now())
        return sid

    def finish(self, sid: int) -> float:
        """Close span ``sid``; returns its duration in seconds."""
        t = _now()
        self.end[sid] = t
        return t - self.start[sid]

    @contextmanager
    def span(self, name: str, op_id: int = -1):
        sid = self.begin(name, op_id=op_id)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.finish(sid)

    def clear(self) -> None:
        """Forget every closed span (set-up and warm-up are not measured)."""
        assert not self._stack, "clear() inside an open span"
        for column in (self.names, self.start, self.end, self.parent, self.op_id):
            column.clear()

    def on_owner_thread(self) -> bool:
        return threading.get_ident() == self.owner

    # -- derived ---------------------------------------------------------
    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Duration minus the union of child intervals, per span.

        An ``adapters.*`` span is a detail of the codec call that launched
        it, not a layer beneath it (the kernel it runs is the codec's own
        functor), so it is not subtracted from a non-adapter parent:
        ``adapters.busy_frac`` says how much of a codec call it covers.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, par in enumerate(self.parent):
            if par >= 0 and (not self.names[sid].startswith(DETAIL)
                             or self.names[par].startswith(DETAIL)):
                children.setdefault(par, []).append((self.start[sid], self.end[sid]))
        out = self.durations()
        for par, spans in children.items():
            lo, hi = self.start[par], self.end[par]
            covered, edge = 0.0, lo
            for s, e in sorted(spans):
                s, e = max(s, edge), min(e, hi)
                if e > s:
                    covered += e - s
                    edge = e
            out[par] -= covered
        return out

    def median_self(self) -> dict[str, float]:
        """Median self time per span name, in milliseconds."""
        by_name: dict[str, list[float]] = {}
        for name, value in zip(self.names, self.self_times()):
            by_name.setdefault(name, []).append(value)
        return {name: median(v) * 1e3 for name, v in by_name.items()}

    def root_total(self) -> float:
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent)
                   if p < 0)

    # -- export ----------------------------------------------------------
    def write_chrome(self, path, lanes: int = 1, meta: dict | None = None) -> None:
        """Chrome trace-event JSON (open in chrome://tracing or Perfetto).

        ``lanes`` is the number of concurrent callers: op ``i`` is drawn
        on row ``i % lanes``, so one client's requests share a row and
        concurrent requests do not stack into one unreadable row.
        """
        t0 = min(self.start) if self.start else 0.0
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": max(op, 0) % lanes,
                "ts": round((s - t0) * 1e6, 3), "dur": round((e - s) * 1e6, 3),
                "args": {"span": sid, "parent": par, "op_id": op},
            }
            for sid, (name, s, e, par, op) in enumerate(
                zip(self.names, self.start, self.end, self.parent, self.op_id))
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta or {}}, f)


def timed(rec: Recorder | None, name: str, fn, *args):
    """Run ``fn(*args)``; return ``(result, seconds)``.  With a recorder
    the call is also a span, so traced and untraced runs time the same
    interval."""
    if rec is None:
        t0 = _now()
        out = fn(*args)
        return out, _now() - t0
    with rec.span(name) as sid:
        out = fn(*args)
    return out, rec.end[sid] - rec.start[sid]


class TimingAdapter:
    """Delegating device adapter that counts and times every launch.

    Bit-transparent: the inner adapter computes every result.  Launches
    made from the recorder's thread become ``adapters.*`` spans under the
    current span; launches from the inner adapter's pool threads (Huffman
    segment tasks) are counted only — they already sit inside the
    ``adapters.map`` span that fanned them out.
    """

    def __init__(self, inner, rec: Recorder) -> None:
        self.inner = inner
        self.family = inner.family
        self.rec = rec
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.gem = self.dem = self.maps = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _timed(self, name: str, fn, *args):
        if not self.rec.on_owner_thread():
            return fn(*args)
        with self.rec.span(name):
            return fn(*args)

    def execute_group_batch(self, functor, batch):
        with self._lock:
            self.gem += 1
        return self._timed("adapters.gem", self.inner.execute_group_batch,
                           functor, batch)

    def execute_domain(self, functor, data):
        with self._lock:
            self.dem += 1
        return self._timed("adapters.dem", self.inner.execute_domain,
                           functor, data)

    def map_tasks(self, fn, items):
        with self._lock:
            self.maps += 1
        return self._timed("adapters.map", self.inner.map_tasks, fn, items)


class TimingCompressor:
    """``compress``/``decompress`` proxy for the I/O layer's
    ``compressor=`` parameter: the codec call becomes a child span of the
    ``io.*`` span that triggered it, so I/O self time excludes it."""

    def __init__(self, inner, label: str, rec: Recorder) -> None:
        self.inner = inner
        self.label = label
        self.rec = rec

    def compress(self, data):
        with self.rec.span(f"{self.label}.compress"):
            return self.inner.compress(data)

    def decompress(self, blob):
        with self.rec.span(f"{self.label}.decompress"):
            return self.inner.decompress(blob)
