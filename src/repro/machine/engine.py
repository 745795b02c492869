"""Discrete-event simulation engine.

The engine models the scheduling semantics that the paper's pipeline
optimization (Section V) relies on:

* **Resources** are exclusive serial executors — a DMA engine, a GPU
  compute engine, or the shared runtime's allocation lock.  At most one
  task occupies a resource at a time (the paper's restriction that "only
  one kernel runs at the same time" and one copy per DMA direction).
* **Queues** are in-order streams (CUDA/HIP stream semantics): tasks
  submitted to the same queue start in submission order.
* **Tasks** carry explicit dependency edges, which is how the Fig. 9 DAG
  (including the extra anti-dependencies that shrink the pipeline to two
  buffer sets) is expressed.

Scheduling is deterministic list scheduling: among all head-of-queue
tasks whose dependencies are satisfied, the task with the earliest
feasible start time runs next (ties broken by submission order).  The
result is a :class:`Trace` from which makespan, per-resource utilization
and the paper's *overlap ratio* metric are computed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class TaskKind(enum.Enum):
    """Classification of simulated work, mirroring Fig. 9's color coding."""

    H2D = "h2d"          # green boxes: host-to-device DMA copy
    D2H = "d2h"          # red boxes: device-to-host DMA copy
    COMPUTE = "compute"  # blue boxes: reduction kernels
    ALLOC = "alloc"      # runtime memory management (CMM target)
    FREE = "free"
    SERIALIZE = "serialize"
    DESERIALIZE = "deserialize"
    IO = "io"            # filesystem read/write
    HOST = "host"        # host-side memcpy / misc


@dataclass
class Resource:
    """An exclusive serial executor (DMA engine, compute engine, lock).

    Parameters
    ----------
    name:
        Human-readable identifier used in traces.
    bandwidth:
        Optional throughput in bytes/second.  When set, tasks submitted
        with ``nbytes`` and no explicit duration derive their duration
        from it.
    """

    name: str
    bandwidth: float | None = None
    busy_until: float = field(default=0.0, init=False)
    busy_time: float = field(default=0.0, init=False)

    def reset(self) -> None:
        self.busy_until = 0.0
        self.busy_time = 0.0

    def duration_for(self, nbytes: int) -> float:
        if self.bandwidth is None or self.bandwidth <= 0:
            raise ValueError(
                f"resource {self.name!r} has no bandwidth; provide an explicit duration"
            )
        return nbytes / self.bandwidth


@dataclass
class Task:
    """One unit of simulated work."""

    name: str
    kind: TaskKind
    resource: Resource
    duration: float
    queue: "SimQueue"
    deps: list["Task"] = field(default_factory=list)
    nbytes: int = 0
    tag: str = ""
    seq: int = field(default=-1, init=False)
    start: float = field(default=math.nan, init=False)
    end: float = field(default=math.nan, init=False)

    @property
    def scheduled(self) -> bool:
        return not math.isnan(self.start)

    def add_dep(self, *tasks: "Task | None") -> "Task":
        """Add dependency edges; ``None`` entries are skipped for convenience."""
        for t in tasks:
            if t is not None:
                self.deps.append(t)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        win = f"[{self.start:.6f},{self.end:.6f}]" if self.scheduled else "[unscheduled]"
        return f"Task({self.name}, {self.kind.value}, {self.resource.name}, {win})"


class SimQueue:
    """An in-order stream of tasks (CUDA/HIP stream semantics)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.pending: list[Task] = []
        self.last_end: float = 0.0

    def reset(self) -> None:
        self.pending.clear()
        self.last_end = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"SimQueue({self.name}, pending={len(self.pending)})"


@dataclass
class Trace:
    """Completed schedule: every executed task with its time window."""

    tasks: list[Task] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return max((t.end for t in self.tasks), default=0.0)

    def of_kind(self, *kinds: TaskKind) -> list[Task]:
        ks = set(kinds)
        return [t for t in self.tasks if t.kind in ks]

    def total_time(self, *kinds: TaskKind) -> float:
        return sum(t.end - t.start for t in self.of_kind(*kinds))

    def busy_time(self, resource: Resource) -> float:
        return sum(t.end - t.start for t in self.tasks if t.resource is resource)

    def utilization(self, resource: Resource) -> float:
        span = self.makespan
        return self.busy_time(resource) / span if span > 0 else 0.0

    def breakdown(self) -> dict[str, float]:
        """Total busy time per task kind (Fig. 1 style breakdown)."""
        out: dict[str, float] = {}
        for t in self.tasks:
            out[t.kind.value] = out.get(t.kind.value, 0.0) + (t.end - t.start)
        return out

    def overlap_ratio(self) -> float:
        """The paper's overlap metric.

        ``Overlap = overlapped H2D and D2H time / total H2D and D2H time``

        A copy second counts as overlapped when an H2D interval and a D2H
        interval cover the same instant (the two DMA engines moving data
        in opposite directions simultaneously).
        """
        h2d = sorted((t.start, t.end) for t in self.of_kind(TaskKind.H2D))
        d2h = sorted((t.start, t.end) for t in self.of_kind(TaskKind.D2H))
        total = sum(e - s for s, e in h2d) + sum(e - s for s, e in d2h)
        if total <= 0:
            return 0.0
        overlapped = 0.0
        i = j = 0
        while i < len(h2d) and j < len(d2h):
            s = max(h2d[i][0], d2h[j][0])
            e = min(h2d[i][1], d2h[j][1])
            if e > s:
                overlapped += e - s
            if h2d[i][1] <= d2h[j][1]:
                i += 1
            else:
                j += 1
        # Each overlapped second hides one second of copy on *each* engine.
        return min(1.0, 2.0 * overlapped / total)

    def hidden_copy_ratio(self) -> float:
        """Fraction of copy time hidden behind compute.

        A copy second is *exposed* when no compute task is running at that
        instant; the hidden ratio is ``1 - exposed/total_copy``.
        """
        copies = [(t.start, t.end) for t in self.of_kind(TaskKind.H2D, TaskKind.D2H)]
        comp = _merge_intervals(
            (t.start, t.end) for t in self.of_kind(TaskKind.COMPUTE)
        )
        total = sum(e - s for s, e in copies)
        if total <= 0:
            return 1.0
        hidden = 0.0
        for s, e in copies:
            hidden += _covered_length(s, e, comp)
        return hidden / total

    def validate(self) -> None:
        """Check schedule invariants; raises ``AssertionError`` on violation."""
        by_res: dict[int, list[Task]] = {}
        for t in self.tasks:
            assert t.scheduled, f"{t.name} never scheduled"
            assert t.end >= t.start >= 0.0
            by_res.setdefault(id(t.resource), []).append(t)
            for d in t.deps:
                assert d.end <= t.start + 1e-12, (
                    f"dependency violated: {t.name} started {t.start} before "
                    f"{d.name} ended {d.end}"
                )
        for tasks in by_res.values():
            tasks = sorted(tasks, key=lambda t: t.start)
            for a, b in zip(tasks, tasks[1:]):
                assert a.end <= b.start + 1e-12, (
                    f"resource conflict between {a.name} and {b.name}"
                )


def _merge_intervals(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    ivs = sorted(intervals)
    out: list[tuple[float, float]] = []
    for s, e in ivs:
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def _covered_length(s: float, e: float, cover: Sequence[tuple[float, float]]) -> float:
    got = 0.0
    for cs, ce in cover:
        lo, hi = max(s, cs), min(e, ce)
        if hi > lo:
            got += hi - lo
    return got


class Simulator:
    """Deterministic list scheduler over queues, resources and deps."""

    def __init__(self) -> None:
        self._queues: list[SimQueue] = []
        self._resources: list[Resource] = []
        self._seq = 0
        self._all_tasks: list[Task] = []

    # -- construction -------------------------------------------------
    def queue(self, name: str) -> SimQueue:
        q = SimQueue(name)
        self._queues.append(q)
        return q

    def resource(self, name: str, bandwidth: float | None = None) -> Resource:
        r = Resource(name, bandwidth)
        self._resources.append(r)
        return r

    def register_resource(self, r: Resource) -> Resource:
        """Adopt an externally created resource (e.g. a shared runtime lock)."""
        if r not in self._resources:
            self._resources.append(r)
        return r

    def submit(
        self,
        name: str,
        kind: TaskKind,
        resource: Resource,
        queue: SimQueue,
        duration: float | None = None,
        nbytes: int = 0,
        deps: Sequence[Task] | None = None,
        tag: str = "",
    ) -> Task:
        """Enqueue a task.  ``duration=None`` derives it from the resource
        bandwidth and ``nbytes``."""
        if resource not in self._resources:
            self._resources.append(resource)
        if queue not in self._queues:
            self._queues.append(queue)
        if duration is None:
            duration = resource.duration_for(nbytes)
        if duration < 0:
            raise ValueError(f"negative duration for task {name!r}")
        t = Task(name, kind, resource, duration, queue, list(deps or ()), nbytes, tag)
        t.seq = self._seq
        self._seq += 1
        queue.pending.append(t)
        self._all_tasks.append(t)
        return t

    # -- execution ----------------------------------------------------
    def run(self) -> Trace:
        """Schedule every submitted task and return the trace.

        Raises ``RuntimeError`` on dependency deadlock (a cycle, or a
        dependency on a task that was never submitted).
        """
        executed: list[Task] = []
        n_total = sum(len(q.pending) for q in self._queues)
        done: set[int] = set()
        while len(executed) < n_total:
            best: Task | None = None
            best_start = math.inf
            for q in self._queues:
                if not q.pending:
                    continue
                head = q.pending[0]
                if any(id(d) not in done for d in head.deps):
                    continue
                dep_ready = max((d.end for d in head.deps), default=0.0)
                start = max(dep_ready, q.last_end, head.resource.busy_until)
                if start < best_start or (
                    start == best_start and best is not None and head.seq < best.seq
                ):
                    best = head
                    best_start = start
            if best is None:
                stuck = [q.pending[0].name for q in self._queues if q.pending]
                raise RuntimeError(f"simulation deadlock; blocked heads: {stuck}")
            q = best.queue
            q.pending.pop(0)
            best.start = best_start
            best.end = best_start + best.duration
            q.last_end = best.end
            best.resource.busy_until = best.end
            best.resource.busy_time += best.duration
            done.add(id(best))
            executed.append(best)
        trace = Trace(executed)
        trace.validate()
        return trace

    def reset(self) -> None:
        for q in self._queues:
            q.reset()
        for r in self._resources:
            r.reset()
        self._all_tasks.clear()
        self._seq = 0
