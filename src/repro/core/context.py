"""Context Memory Model (CMM) — paper Section III-B.

Reduction pipelines repeatedly invoked by an application (every write
iteration) would otherwise re-allocate their working buffers on every
call; on dense multi-GPU nodes those allocations serialize inside the
shared runtime and destroy scalability.  The CMM caches *reduction
contexts* in a hash map keyed by the data characteristics
(shape/dtype/config) so the steady state performs **zero** runtime
memory management.

A context *knows* things and *borrows* memory:

* **Metadata** — ``ctx.object()``: grid hierarchies, tridiagonal
  factors, level geometry, codebooks.  Exact to the key, built once,
  owned by the context until it is evicted.
* **Memory** — ``ctx.buffer()`` / ``ctx.scratch()`` return views over
  uint8 blocks drawn from one :class:`BlockPool` per
  :class:`ContextCache` (free lists by power-of-two capacity class from
  :data:`MIN_BLOCK` up, LIFO so the next borrower gets the block that
  is still warm).  A context never allocates; only the pool does.  What
  the context keeps about a buffer is its name, its last shape/dtype
  and the most bytes it ever needed — enough to borrow the right block
  next time and to notice a rebind.

How long a block stays with its context depends on its size:

* Blocks of :data:`LEASE_FLOOR` (64 KB) and up are **leased for the
  call**: ``ContextCache.release`` hands them back when the context's
  pin count returns to zero.  *Release is the end of a buffer's life* —
  a view must not outlive the ``get(key, pin=True)`` … ``release``
  region (lint rules HPL201/HPL202).  Memory held is therefore the
  high-water mark of concurrently pinned calls, not the sum over every
  context ever built, and neighbouring shapes share the same few
  capacity classes.  An unpinned ``get()`` user never reaches a
  release, so it keeps what it borrowed until eviction.
* Smaller blocks **stay with the context** until it is evicted, then
  return to the pool for the next context to pick up.  A 2 ms tile call
  touches ~50 small buffers; looking each up in the pool on every call
  costs more than holding them does (a few dozen names, 16-330 KB per
  context on ``archive_rw``).

Either way a shape seen again — or a neighbouring one — finds its blocks
in the pool: once the pool has reached the workload's high-water mark,
nothing allocates, however many contexts the LRU evicts and rebuilds.

:class:`ContextCache` is the hash map with hit/miss statistics, an LRU
bound and pinning.  Byte accounting is exact and lives on the pool:
``alloc_bytes_total - free_bytes_total == live_bytes`` at all times,
where ``live_bytes`` is every block (borrowed or pooled) plus the
``ndarray`` bytes of cached objects.  ``alloc_events`` counts block
allocations only — the thing a steady state must not do.

Misuse is *loud*.  An evicted context is invalidated: what it still
holds is poisoned (floats become NaN, integer bytes ``0xA5``) and any
further ``buffer``/``scratch``/``object`` call raises
:class:`UseAfterEvictError`.  Under ``HPDR_SAN=1`` a leased block is
also poisoned as it is *released*, so a view kept past its call reads
poison straight away instead of whatever the next borrower writes; and
a slot that buffers of disjoint lifetimes share inside one call is
poisoned as each life ends (:meth:`ReductionContext.retire`).
Reductions that must survive cache pressure pin their context for the
duration of the call; pinned contexts are skipped by the LRU scan.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np

from repro.trace.metrics import REGISTRY as _METRICS
from repro.trace.tracer import TRACER as _TRACER
from repro.util import sanitize_enabled

#: Byte pattern written over evicted integer buffers.  0xA5 is the
#: classic heap-poison value: visually obvious in hex dumps and very
#: unlikely to decode into plausible keys/offsets.
POISON_BYTE = 0xA5

#: Blocks this large go back to the pool at ``release``; smaller ones
#: stay with their context until eviction (see the module docstring).
LEASE_FLOOR = 64 * 1024

#: Smallest block the pool makes.  Below a page a finer class saves no
#: memory worth having and only multiplies the free lists a rebuilt
#: context has to find its two dozen small buffers on.
MIN_BLOCK = 4096


class UseAfterEvictError(RuntimeError):
    """A buffer/scratch/object request hit an evicted context.

    Sanitizer rule ``SAN-EVICT``: the caller held a
    :class:`ReductionContext` (or a view of its memory) across a cache
    eviction or past the release that ended its lease.  Re-fetch the
    context from the cache — and pin it (``cache.get(key, pin=True)``)
    for as long as its buffers are in use.
    """

    rule = "SAN-EVICT"

    def __init__(self, message: str) -> None:
        super().__init__(f"[{self.rule}] {message}")


def _poison(buf: np.ndarray) -> None:
    """Overwrite a buffer with an unmistakable poison pattern."""
    if buf.dtype.kind in "fc":
        buf.fill(np.nan)
    else:
        # Context buffers are C-contiguous views of a uint8 block.
        buf.view(np.uint8).fill(POISON_BYTE)


def _array_bytes(value: Any) -> int:
    """``ndarray`` bytes held by a cached object (arrays, and
    tuples/lists of them); anything else counts as zero."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(v) for v in value)
    return 0


class BlockPool:
    """The one allocator behind a :class:`ContextCache`.

    Hands out uint8 blocks of power-of-two capacity, takes them back on
    free lists by capacity, and keeps the byte-accurate totals and the
    ``on_alloc``/``on_free`` hooks (the simulator charges runtime-lock
    time there): ``on_alloc`` fires when a block is really allocated —
    never for one found on a free list — and ``on_free`` when
    :meth:`drain` drops one.  Array bytes of cached objects pass through
    :meth:`charge`/:meth:`refund` so the totals cover everything held.
    """

    def __init__(
        self,
        on_alloc: Callable[[int], None] | None = None,
        on_free: Callable[[int], None] | None = None,
    ) -> None:
        self.on_alloc = on_alloc
        self.on_free = on_free
        #: poison blocks as they are released (``HPDR_SAN=1``), not
        #: only what an evicted context still holds.
        self.poison_on_release = sanitize_enabled()
        self.alloc_events = 0
        self.alloc_bytes_total = 0
        self.free_bytes_total = 0
        self.pooled_bytes = 0
        self._free: dict[int, list[np.ndarray]] = {}
        self._lock = threading.RLock()

    def lease(self, nbytes: int) -> tuple[np.ndarray, bool]:
        """A block of at least ``nbytes``, and whether it is fresh
        (allocated just now rather than taken off a free list)."""
        capacity = 1 << (max(nbytes, MIN_BLOCK) - 1).bit_length()
        with self._lock:
            stack = self._free.get(capacity)
            if stack:
                self.pooled_bytes -= capacity
                return stack.pop(), False
            self.alloc_events += 1
            self.charge(capacity)
            return np.empty(capacity, dtype=np.uint8), True

    def give_back(self, block: np.ndarray) -> None:
        with self._lock:
            self._free.setdefault(block.size, []).append(block)
            self.pooled_bytes += block.size

    def charge(self, nbytes: int) -> None:
        with self._lock:
            self.alloc_bytes_total += nbytes
            if self.on_alloc is not None:
                self.on_alloc(nbytes)
        if _TRACER.enabled:
            _METRICS.counter(
                "hpdr_cmm_alloc_bytes_total", "bytes allocated through contexts"
            ).inc(nbytes)

    def refund(self, nbytes: int) -> None:
        with self._lock:
            self.free_bytes_total += nbytes
            if self.on_free is not None:
                self.on_free(nbytes)
        if _TRACER.enabled:
            _METRICS.counter(
                "hpdr_cmm_free_bytes_total", "context bytes released"
            ).inc(nbytes)

    def drain(self) -> None:
        """Drop every pooled block (the only place memory is freed)."""
        with self._lock:
            for capacity, stack in self._free.items():
                for _ in stack:
                    self.refund(capacity)
            self._free.clear()
            self.pooled_bytes = 0


class ReductionContext:
    """Cached objects and borrowed buffers for one reduction setup."""

    def __init__(self, key: Hashable, pool: BlockPool | None = None) -> None:
        self.key = key
        self._pool = pool if pool is not None else BlockPool()
        # name -> the view handed out (buffer: shaped; scratch: the
        # whole capacity, 1-D) and the block under it.
        self._views: dict[str, np.ndarray] = {}
        self._blocks: dict[str, np.ndarray] = {}
        #: names whose block goes back to the pool at release, in the
        #: order they were borrowed (a dict as an ordered set).
        self._leased: dict[str, None] = {}
        #: name -> (spec, need): the (shape, dtype) of the last
        #: ``buffer`` binding or the dtype of the last ``scratch``, and
        #: the most bytes ever asked for.  Outlives the lease, so the
        #: next call sees a rebind and borrows the right block at once.
        self._known: dict[str, tuple[Any, int]] = {}
        self._objects: dict[str, Any] = {}
        self._object_bytes = 0
        #: real allocations the pool made on this context's behalf.
        self.alloc_count = 0
        #: per-buffer-name count of shape/dtype rebinds — a buffer that
        #: keeps changing under one name means the context key does not
        #: capture the data characteristics (sanitizer rule SAN-CTX).
        self.rebinds: dict[str, int] = {}
        self._evicted = False
        self._pins = 0
        # Functors executing on a thread-pool adapter may request
        # per-thread scratch concurrently; the maps must stay
        # consistent (the returned arrays are the caller's to serialize).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def _bind(self, name: str, nbytes: int, spec: Any) -> np.ndarray:
        """The block under ``name``, swapped for a larger one if it
        cannot hold ``nbytes``; a changed ``spec`` counts as a rebind.

        A name borrows the most it has ever needed, so a call whose
        requests under one name grow (a shadow pass over part of a
        batch, then the batch) takes the final block straight away
        from the second call on.
        """
        was, need = self._known.get(name, (spec, 0))
        if was != spec:
            self.rebinds[name] = self.rebinds.get(name, 0) + 1
        nbytes = max(nbytes, need)
        self._known[name] = (spec, nbytes)
        block = self._blocks.get(name)
        if block is not None and block.size >= nbytes:
            return block
        if block is not None:
            self._unbind(name)
        block, fresh = self._pool.lease(nbytes)
        if fresh:
            self.alloc_count += 1
        self._blocks[name] = block
        if block.size >= LEASE_FLOOR:
            self._leased[name] = None
        return block

    def _unbind(self, name: str, poison: bool = False) -> None:
        view = self._views.pop(name, None)
        if poison and view is not None:
            _poison(view)
        self._pool.give_back(self._blocks.pop(name))

    def buffer(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """Return the named buffer, borrowing its block on first use.

        Until the block goes back (release or eviction, by size) calls
        with the same name return the same memory; a shape/dtype change
        (data characteristics changed under the same key) is a rebind,
        and borrows a larger block when the held one is too small.
        """
        dtype = np.dtype(dtype)
        shape = tuple(shape)
        with self._lock:
            self._check_live(f"buffer {name!r}")
            buf = self._views.get(name)
            if buf is not None and buf.shape == shape and buf.dtype == dtype:
                return buf
            nbytes = int(math.prod(shape)) * dtype.itemsize
            block = self._bind(name, nbytes, (shape, dtype))
            buf = block[:nbytes].view(dtype).reshape(shape)
            self._views[name] = buf
            return buf

    def scratch(
        self,
        name: str,
        size: int,
        dtype: np.dtype | type = np.uint8,
    ) -> np.ndarray:
        """Return a 1-D view of ``size`` elements over borrowed capacity.

        Unlike :meth:`buffer`, a held block only *grows* (to the next
        power of two), so repeated calls with fluctuating data-dependent
        sizes stop swapping blocks once the high-water mark is reached.
        The returned view is uninitialized; callers must overwrite it
        fully.
        """
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        dtype = np.dtype(dtype)
        with self._lock:
            self._check_live(f"scratch {name!r}")
            buf = self._views.get(name)
            if buf is not None and buf.dtype == dtype and buf.size >= size:
                return buf[:size]
            # Capacity growth is the designed steady-state ramp; a
            # dtype flip under the same name is a rebind.
            block = self._bind(name, max(size, 1) * dtype.itemsize, dtype)
            whole = block.size - block.size % dtype.itemsize
            buf = self._views[name] = block[:whole].view(dtype)
            return buf[:size]

    def retire(self, name: str) -> None:
        """End the life of the named buffer's contents; its block stays
        bound for the next borrower under the same name.

        A slot shared by buffers whose lives do not overlap (one working
        grid per level, all levels) is retired as each life ends.  Under
        ``HPDR_SAN=1`` that poisons it, so a view kept past its life
        reads NaN/``0xA5`` at once instead of the next life's data;
        otherwise it does nothing.
        """
        with self._lock:
            view = self._views.get(name)
            if view is not None and self._pool.poison_on_release:
                _poison(view)

    def object(self, name: str, builder: Callable[[], Any]) -> Any:
        """Return the cached object, building it on first use."""
        with self._lock:
            self._check_live(f"object {name!r}")
            if name not in self._objects:
                value = self._objects[name] = builder()
                nbytes = _array_bytes(value)
                if nbytes:
                    self._object_bytes += nbytes
                    self._pool.charge(nbytes)
            return self._objects[name]

    # ------------------------------------------------------------------
    def _check_live(self, what: str) -> None:
        if self._evicted:
            raise UseAfterEvictError(
                f"context {self.key!r} was evicted; {what} is gone — "
                f"re-fetch the context from the cache (pin it with "
                f"get(key, pin=True) if it must survive cache pressure)"
            )

    @property
    def evicted(self) -> bool:
        return self._evicted

    @property
    def pinned(self) -> bool:
        return self._pins > 0

    def end_leases(self) -> None:
        """Hand every block of :data:`LEASE_FLOOR` and up back to the
        pool (poisoned first under ``HPDR_SAN=1``).  Called by
        :meth:`ContextCache.release` when the last pin drops."""
        with self._lock:
            for name in self._leased:
                self._unbind(name, poison=self._pool.poison_on_release)
            self._leased.clear()

    def invalidate(self) -> None:
        """Poison what the context still holds, return it to the pool
        and mark the context dead.

        Called by :class:`ContextCache` on eviction/:meth:`~ContextCache.clear`
        so stale caller-held views read NaN/``0xA5``.  A context whose
        calls all released holds only its small buffers by now.
        Idempotent.
        """
        with self._lock:
            if self._evicted:
                return
            self._evicted = True
            for name in list(self._blocks):
                self._unbind(name, poison=True)
            self._leased.clear()
            if self._object_bytes:
                self._pool.refund(self._object_bytes)
            self._object_bytes = 0
            self._objects.clear()

    @property
    def nbytes(self) -> int:
        """Bytes held right now: borrowed blocks plus array objects."""
        with self._lock:
            return sum(b.size for b in self._blocks.values()) + self._object_bytes

    def __contains__(self, name: str) -> bool:
        """Has this context bound a buffer, or cached an object, by
        that name (whether or not the block is with it right now)."""
        return name in self._known or name in self._objects


class ContextCache:
    """Hash-map cache of :class:`ReductionContext` with LRU eviction.

    Parameters
    ----------
    capacity:
        Maximum number of live contexts; least-recently-used contexts
        are evicted beyond it (their metadata is dropped, their blocks
        return to the pool).
    on_alloc / on_free:
        Optional hooks called with a byte count whenever the cache's
        :class:`BlockPool` takes memory from, or gives it back to, the
        allocator — the simulator charges runtime-lock time here, so
        cache *hits* and pool hits cost nothing, reproducing the CMM
        effect.  The byte totals balance exactly:
        ``alloc_bytes_total - free_bytes_total == live_bytes``.

    :meth:`get` is thread-safe; per-thread reduction paths may share one
    cache.  Eviction *invalidates*: what the victim still holds is
    poisoned and later use raises :class:`UseAfterEvictError`.
    In-flight reductions protect themselves by pinning
    (``get(key, pin=True)`` / :meth:`release`): pinned contexts are
    never chosen as victims (the cache temporarily exceeds ``capacity``
    if every context is pinned), and the release that drops the last
    pin ends the call's leases.
    """

    def __init__(
        self,
        capacity: int = 16,
        on_alloc: Callable[[int], None] | None = None,
        on_free: Callable[[int], None] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.pool = BlockPool(on_alloc, on_free)
        self._map: OrderedDict[Hashable, ReductionContext] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.RLock()

    alloc_events = property(lambda self: self.pool.alloc_events)
    alloc_bytes_total = property(lambda self: self.pool.alloc_bytes_total)
    free_bytes_total = property(lambda self: self.pool.free_bytes_total)

    def _observe_held(self) -> None:
        """Refresh the bytes-pinned and bytes-pooled gauges
        (tracing-enabled runs only).

        Called with ``self._lock`` held wherever a pin count changes;
        the gauges aggregate across every live cache in the process.
        """
        pinned = sum(c.nbytes for c in self._map.values() if c.pinned)
        cache = hex(id(self))
        _METRICS.gauge(
            "hpdr_cmm_bytes_pinned", "bytes held by pinned contexts"
        ).set(pinned, cache=cache)
        _METRICS.gauge(
            "hpdr_cmm_pool_bytes", "bytes idle on the block pool's free lists"
        ).set(self.pool.pooled_bytes, cache=cache)

    def get(self, key: Hashable, pin: bool = False) -> ReductionContext:
        """Return the context for ``key``, creating it on a miss.

        ``pin=True`` additionally increments the context's pin count so
        LRU eviction skips it until a matching :meth:`release`; callers
        that use a context's buffers pin for the duration and release in
        a ``finally`` — the release is what returns the leased blocks.
        """
        with self._lock:
            ctx = self._map.get(key)
            found = ctx is not None
            if ctx is None:
                self.misses += 1
                ctx = ReductionContext(key, self.pool)
                self._map[key] = ctx
                # Shield the newcomer during the eviction scan — it must
                # never become its own victim (e.g. when every older
                # context is pinned by in-flight work).
                ctx._pins += 1
                self._evict_over_capacity()
                if not pin:
                    ctx._pins -= 1
            else:
                self.hits += 1
                self._map.move_to_end(key)
                if pin:
                    ctx._pins += 1
            if _TRACER.enabled:
                _METRICS.counter(
                    "hpdr_cmm_lookups_total", "context cache lookups"
                ).inc(outcome="hit" if found else "miss")
                self._observe_held()
            return ctx

    def release(self, ctx: ReductionContext) -> None:
        """Drop one pin taken by ``get(key, pin=True)``; the outermost
        release hands the context's leased blocks back to the pool."""
        with self._lock:
            if ctx._pins > 0:
                ctx._pins -= 1
                if ctx._pins == 0:
                    ctx.end_leases()
            self._evict_over_capacity()
            if _TRACER.enabled:
                self._observe_held()

    def _evict_over_capacity(self) -> None:
        while len(self._map) > self.capacity:
            victim_key = next(
                (k for k, c in self._map.items() if not c.pinned), None
            )
            if victim_key is None:
                # Every context is pinned by in-flight work; run over
                # capacity until a release frees a victim.
                return
            evicted = self._map.pop(victim_key)
            self.evictions += 1
            if _TRACER.enabled:
                _METRICS.counter(
                    "hpdr_cmm_evictions_total", "contexts evicted (LRU)"
                ).inc()
            evicted.invalidate()

    def contexts(self) -> list[ReductionContext]:
        """Live (non-evicted) contexts, LRU-first."""
        with self._lock:
            return list(self._map.values())

    def clear(self) -> None:
        """Invalidate every context and free the pool."""
        with self._lock:
            for ctx in self._map.values():
                ctx.invalidate()
            self._map.clear()
            self.pool.drain()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def live_bytes(self) -> int:
        """Everything CMM holds: blocks borrowed by live contexts, their
        array-valued objects, and blocks idle in the pool."""
        with self._lock:
            return (
                sum(ctx.nbytes for ctx in self._map.values())
                + self.pool.pooled_bytes
            )

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._map
