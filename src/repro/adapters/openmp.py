"""Multi-core CPU adapter (the paper's OpenMP backend).

Table II strategy: groups are parallelized across CPU cores while each
group's workload runs sequentially, so a core keeps one group's working
set resident in its cache.  Multi-stage GEM order is maintained by
sequential stage execution; DEM parallelizes the whole domain across all
cores with working data shared through DRAM.

In Python, "cores" are a thread pool: NumPy array kernels release the
GIL, so chunks genuinely run concurrently on multi-core hosts.

Table II's premise is that a group carries a core's worth of work.  A
launch that does not — most launches on fields of a megabyte or less —
costs more to hand to the pool than to run, so a launch is
``min(threads, groups, nbytes // FANOUT_FLOOR)`` parts of
:func:`~repro.adapters.base.run_parts`, mapped over the pool, and runs
on the caller's thread when that is one.  The stream never shows which:
part boundaries are group boundaries either way.

A launch or task list issued from one of the adapter's own pool threads
(a ``map_tasks`` task that launches a kernel) also runs on that thread:
its chunks would queue behind the very tasks waiting for them.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.adapters.base import DeviceAdapter, register_adapter
from repro.machine.specs import ProcessorSpec
from repro.trace.metrics import REGISTRY as _METRICS
from repro.trace.tracer import TRACER as _TRACER

#: pool queue-depth histogram buckets (tasks submitted per fan-out).
_DEPTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


#: Per thread: the token of the adapter whose pool the thread belongs
#: to (unset on every other thread).  A token, not the adapter, so a
#: pool thread holds no reference that would keep its adapter alive.
_POOL_THREAD = threading.local()


def _enter_pool(token: object) -> None:
    _POOL_THREAD.token = token


def _observe_queue_depth(depth: int) -> None:
    """Record one fan-out's task count (tracing-enabled runs only)."""
    _METRICS.histogram(
        "hpdr_pool_queue_depth",
        "tasks (GEM parts or map_tasks items) submitted to the thread "
        "pool per fan-out",
        buckets=_DEPTH_BUCKETS,
    ).observe(depth)


class OpenMPAdapter(DeviceAdapter):
    family = "openmp"

    #: Bytes a part must carry before a launch is handed to the pool.
    #: A hand-off costs the same whatever the part holds (queue, wake-up,
    #: result gather, concatenate) while kernel time grows with bytes, so
    #: the rule is a byte floor: a launch fans out into as many parts as
    #: it has whole floors, and runs on the caller's thread below two.
    #: Set from the unpinned two-CPU sweep in DESIGN.md section 3.1
    #: ("What a hand-off costs"); a constant, not a knob.
    FANOUT_FLOOR = 1 << 20

    def __init__(
        self,
        spec: ProcessorSpec | None = None,
        num_threads: int | None = None,
    ) -> None:
        super().__init__(spec)
        if num_threads is None:
            if spec is not None:
                num_threads = spec.units
            else:
                num_threads = os.cpu_count() or 1
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        self.num_threads = num_threads
        # One persistent pool per adapter instance: repeated reduction
        # calls must not pay thread spawn costs (the CMM philosophy
        # applied to execution resources).
        self._token = object()
        self._pool = (
            ThreadPoolExecutor(max_workers=num_threads, initializer=_enter_pool,
                               initargs=(self._token,))
            if num_threads > 1 else None
        )

    def _inline(self) -> bool:
        """Run on the calling thread: no pool, or the caller is one of
        the pool's own threads (a nested fan-out would wait on parts
        queued behind the task that is waiting)."""
        return self._pool is None or getattr(_POOL_THREAD, "token", None) is self._token

    def gem_parts(self, batch: np.ndarray) -> int:
        if self._inline():
            return 1
        return min(self.num_threads, batch.nbytes // max(1, self.FANOUT_FLOOR))

    def map_tasks(self, fn, items) -> list:
        items = list(items)
        if len(items) <= 1 or self._inline():
            return [fn(item) for item in items]
        if _TRACER.enabled:
            _observe_queue_depth(len(items))
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - GC path
        try:
            self.close()
        except Exception:
            pass


register_adapter(OpenMPAdapter.family, OpenMPAdapter)
