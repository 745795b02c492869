"""Context Memory Model (CMM) — paper Section III-B.

Reduction pipelines repeatedly invoked by an application (every write
iteration) would otherwise re-allocate their working buffers on every
call; on dense multi-GPU nodes those allocations serialize inside the
shared runtime and destroy scalability.  The CMM caches *reduction
contexts* in a hash map keyed by the data characteristics
(shape/dtype/config): all allocations associated with a context persist
across calls, so the steady state performs **zero** runtime memory
management.

Two layers are provided:

* :class:`ReductionContext` — a named bag of persistent NumPy buffers
  plus arbitrary cached objects (grid hierarchies, Huffman codebooks).
  Fixed-shape working sets use :meth:`ReductionContext.buffer`;
  data-dependent sizes (bitstreams, outlier lists) use
  :meth:`ReductionContext.scratch`, which keeps a geometrically grown
  capacity buffer so the steady state stops allocating even when sizes
  fluctuate slightly between calls.
* :class:`ContextCache` — the hash map with hit/miss statistics and an
  LRU eviction bound, plus optional hooks invoked on every real
  allocation/free so the simulator can charge runtime-lock time for
  misses only.  The cache also keeps byte-accurate running totals
  (``alloc_events``, ``alloc_bytes_total``, ``free_bytes_total``) used
  by the zero-alloc steady-state tests.

Eviction is *loud*: an evicted context is invalidated — its buffers are
poisoned (floats become NaN, integer bytes become ``0xA5``) and any
further :meth:`ReductionContext.buffer` / :meth:`~ReductionContext.scratch`
call raises :class:`UseAfterEvictError`.  Stale views held by a caller
across an eviction therefore read poison instead of silently aliasing
recycled memory (the pre-sanitizer behaviour left them reachable and
plausible-looking).  Reductions that must survive cache pressure pin
their context for the duration of the call (``get(key, pin=True)`` +
:meth:`ContextCache.release`); pinned contexts are skipped by the LRU
eviction scan.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np

from repro.trace.metrics import REGISTRY as _METRICS
from repro.trace.tracer import TRACER as _TRACER

#: Byte pattern written over evicted integer buffers.  0xA5 is the
#: classic heap-poison value: visually obvious in hex dumps and very
#: unlikely to decode into plausible keys/offsets.
POISON_BYTE = 0xA5


class UseAfterEvictError(RuntimeError):
    """A buffer/scratch/object request hit an evicted context.

    Sanitizer rule ``SAN-EVICT``: the caller held a
    :class:`ReductionContext` (or a view of its memory) across a cache
    eviction.  Re-fetch the context from the cache — and pin it
    (``cache.get(key, pin=True)``) if it must survive cache pressure
    for the duration of a call.
    """

    rule = "SAN-EVICT"

    def __init__(self, message: str) -> None:
        super().__init__(f"[{self.rule}] {message}")


def _poison(buf: np.ndarray) -> None:
    """Overwrite a buffer with an unmistakable poison pattern."""
    if np.issubdtype(buf.dtype, np.floating):
        buf.fill(np.nan)
    elif np.issubdtype(buf.dtype, np.complexfloating):
        buf.fill(complex(np.nan, np.nan))
    else:
        # Context buffers come from np.empty and are C-contiguous.
        buf.view(np.uint8).fill(POISON_BYTE)


class ReductionContext:
    """Persistent buffers and derived objects for one reduction setup."""

    def __init__(
        self,
        key: Hashable,
        on_alloc: Callable[[int], None] | None = None,
        on_free: Callable[[int], None] | None = None,
    ) -> None:
        self.key = key
        self._buffers: dict[str, np.ndarray] = {}
        self._objects: dict[str, Any] = {}
        self.alloc_count = 0
        self.alloc_bytes = 0
        #: per-buffer-name count of shape/dtype rebinds — a buffer that
        #: keeps reallocating under one name means the context key does
        #: not capture the data characteristics (sanitizer rule SAN-CTX).
        self.rebinds: dict[str, int] = {}
        self._evicted = False
        self._pins = 0
        self._on_alloc = on_alloc
        self._on_free = on_free
        # Functors executing on a thread-pool adapter may request
        # per-thread scratch concurrently; the map itself must stay
        # consistent (the returned arrays are the caller's to serialize).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def _account(
        self,
        new_nbytes: int,
        freed_nbytes: int,
        per_call_hook: Callable[[int], None] | None = None,
    ) -> None:
        self.alloc_count += 1
        self.alloc_bytes += new_nbytes
        if freed_nbytes and self._on_free is not None:
            self._on_free(freed_nbytes)
        if self._on_alloc is not None:
            self._on_alloc(new_nbytes)
        if per_call_hook is not None:
            per_call_hook(new_nbytes)

    def buffer(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float64,
        on_alloc: Callable[[int], None] | None = None,
    ) -> np.ndarray:
        """Return the named buffer, allocating it on first use.

        Subsequent calls with the same name return the same memory; a
        shape/dtype change (data characteristics changed under the same
        key) reallocates, which counts as a new allocation (and frees
        the old buffer for byte accounting).
        """
        dtype = np.dtype(dtype)
        with self._lock:
            self._check_live(f"buffer {name!r}")
            buf = self._buffers.get(name)
            if buf is not None and buf.shape == tuple(shape) and buf.dtype == dtype:
                return buf
            freed = buf.nbytes if buf is not None else 0
            if buf is not None:
                self.rebinds[name] = self.rebinds.get(name, 0) + 1
            buf = np.empty(shape, dtype=dtype)
            self._buffers[name] = buf
            self._account(buf.nbytes, freed, on_alloc)
            return buf

    def scratch(
        self,
        name: str,
        size: int,
        dtype: np.dtype | type = np.uint8,
        exact: bool = False,
    ) -> np.ndarray:
        """Return a 1-D view of ``size`` elements over persistent capacity.

        Unlike :meth:`buffer`, the underlying allocation only *grows*
        (geometrically, to the next power of two), so repeated calls
        with fluctuating data-dependent sizes stop allocating once the
        high-water mark is reached.  ``exact`` grows to ``size`` itself:
        for a table many times its input, where rounding up would be
        most of the context (each new high-water mark reallocates).
        The returned view is uninitialized; callers must overwrite it
        fully.
        """
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        dtype = np.dtype(dtype)
        with self._lock:
            self._check_live(f"scratch {name!r}")
            buf = self._buffers.get(name)
            if buf is not None and buf.dtype == dtype and buf.size >= size:
                return buf[:size]
            if exact:
                capacity = max(size, 1)
            else:
                capacity = 1 << max(0, int(size - 1).bit_length()) if size else 1
            freed = buf.nbytes if buf is not None else 0
            if buf is not None and buf.dtype != dtype:
                # Capacity growth is the designed steady-state ramp;
                # a dtype flip under the same name is a rebind.
                self.rebinds[name] = self.rebinds.get(name, 0) + 1
            buf = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buf
            self._account(buf.nbytes, freed)
            return buf[:size]

    def set_object(self, name: str, value: Any) -> Any:
        self._objects[name] = value
        return value

    def get_object(self, name: str, default: Any = None) -> Any:
        return self._objects.get(name, default)

    def object(self, name: str, builder: Callable[[], Any]) -> Any:
        """Return the cached object, building it on first use."""
        with self._lock:
            self._check_live(f"object {name!r}")
            if name not in self._objects:
                self._objects[name] = builder()
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

    def invalidate(self) -> None:
        """Poison every buffer and mark the context dead.

        Called by :class:`ContextCache` on eviction/:meth:`~ContextCache.clear`
        so stale caller-held views read NaN/``0xA5`` instead of silently
        aliasing memory the cache considers freed.  Idempotent.
        """
        with self._lock:
            if self._evicted:
                return
            self._evicted = True
            for buf in self._buffers.values():
                _poison(buf)
            self._buffers.clear()
            self._objects.clear()

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())

    def __contains__(self, name: str) -> bool:
        return name in self._buffers or name in self._objects


class ContextCache:
    """Hash-map cache of :class:`ReductionContext` with LRU eviction.

    Parameters
    ----------
    capacity:
        Maximum number of live contexts; least-recently-used contexts
        are evicted beyond it (their device memory is "freed").
    on_alloc / on_free:
        Optional hooks called with a byte count whenever context memory
        is allocated/released — the simulator charges runtime-lock time
        here, so cache *hits* cost nothing, reproducing the CMM effect.
        ``on_alloc`` fires for every buffer/scratch allocation inside a
        cached context; ``on_free`` fires when a buffer is replaced,
        when a context is evicted, and on :meth:`clear`, so the byte
        totals balance exactly over a context's lifetime.

    :meth:`get` is thread-safe; per-thread reduction paths may share one
    cache.  Eviction *invalidates*: the victim's buffers are poisoned
    and later use raises :class:`UseAfterEvictError`, so stale views are
    caught loudly instead of reading recycled memory.  In-flight
    reductions protect themselves by pinning (``get(key, pin=True)`` /
    :meth:`release`): pinned contexts are never chosen as victims (the
    cache temporarily exceeds ``capacity`` if every context is pinned).
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
        self._map: OrderedDict[Hashable, ReductionContext] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.on_alloc = on_alloc
        self.on_free = on_free
        self.alloc_events = 0
        self.alloc_bytes_total = 0
        self.free_bytes_total = 0
        self._lock = threading.RLock()

    # -- hook plumbing ---------------------------------------------------
    def _context_alloc(self, nbytes: int) -> None:
        self.alloc_events += 1
        self.alloc_bytes_total += nbytes
        if self.on_alloc is not None:
            self.on_alloc(nbytes)
        if _TRACER.enabled:
            _METRICS.counter(
                "hpdr_cmm_alloc_bytes_total", "bytes allocated through contexts"
            ).inc(nbytes)

    def _context_free(self, nbytes: int) -> None:
        self.free_bytes_total += nbytes
        if self.on_free is not None:
            self.on_free(nbytes)
        if _TRACER.enabled:
            _METRICS.counter(
                "hpdr_cmm_free_bytes_total", "context bytes released"
            ).inc(nbytes)

    def _observe_pinned(self) -> None:
        """Refresh the bytes-pinned gauge (tracing-enabled runs only).

        Called with ``self._lock`` held wherever a pin count changes;
        the gauge aggregates across every live cache in the process.
        """
        pinned = sum(c.nbytes for c in self._map.values() if c.pinned)
        _METRICS.gauge(
            "hpdr_cmm_bytes_pinned", "bytes held by pinned contexts"
        ).set(pinned, cache=hex(id(self)))

    def get(self, key: Hashable, pin: bool = False) -> ReductionContext:
        """Return the context for ``key``, creating it on a miss.

        ``pin=True`` additionally increments the context's pin count so
        LRU eviction skips it until a matching :meth:`release`; callers
        that hold a context (or views of its buffers) across operations
        that may touch the cache — nested codecs, parallel segments —
        pin for the duration and release in a ``finally``.
        """
        with self._lock:
            ctx = self._map.get(key)
            found = ctx is not None
            if ctx is None:
                self.misses += 1
                ctx = ReductionContext(
                    key, on_alloc=self._context_alloc, on_free=self._context_free
                )
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
                self._observe_pinned()
            return ctx

    def release(self, ctx: ReductionContext) -> None:
        """Drop one pin taken by ``get(key, pin=True)``."""
        with self._lock:
            if ctx._pins > 0:
                ctx._pins -= 1
            self._evict_over_capacity()
            if _TRACER.enabled:
                self._observe_pinned()

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
            self._context_free(evicted.nbytes)
            evicted.invalidate()

    def buffer_hook(self) -> Callable[[int], None] | None:
        return self.on_alloc

    def contexts(self) -> list[ReductionContext]:
        """Live (non-evicted) contexts, LRU-first."""
        with self._lock:
            return list(self._map.values())

    def clear(self) -> None:
        with self._lock:
            for ctx in self._map.values():
                self._context_free(ctx.nbytes)
                ctx.invalidate()
            self._map.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def live_bytes(self) -> int:
        """Bytes currently held by live (non-evicted) contexts."""
        with self._lock:
            return sum(ctx.nbytes for ctx in self._map.values())

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._map
