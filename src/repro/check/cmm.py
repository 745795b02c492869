"""CMM misuse checks: steady-state leaks, context-key thrash, stale views.

The Context Memory Model's contract (paper III-B) is that after warm-up
a workload performs *zero* runtime memory management: every
``ctx.buffer()``/``ctx.scratch()`` finds its block in the cache's
:class:`~repro.core.context.BlockPool`.  Ways code quietly breaks that
contract:

* **SAN-LEAK** — the pool keeps allocating across repeated calls
  (``alloc_events`` grows): a fresh buffer name per call, or a size
  that climbs, so no block that came back fits the next request.
* **SAN-CTX** — one buffer name is rebound over and over with a new
  shape or dtype inside the *same* context: the context key does not
  capture everything that varies, so each call swaps blocks (or views)
  under whoever still holds the old one.
* **SAN-EVICT** — a view is read after its context was evicted, or
  (``HPDR_SAN=1``) after the release that ended its lease:
  :func:`check_not_poisoned` turns the poison it reads into the error.

:func:`assert_steady_state` drives a workload callable through warm-up
and measurement reps against the first two rules; :class:`CMMWatch` is
the underlying before/after differ for custom call patterns.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

from repro.check.errors import ContextThrashError, SteadyStateLeakError
from repro.core.context import POISON_BYTE, ContextCache, UseAfterEvictError

#: A buffer rebinding this many times within one context is thrash, not
#: a one-off transition (first bind is not a rebind; one rebind can be
#: a legitimate reconfiguration).
REBIND_TOLERANCE = 2


class CMMWatch:
    """Snapshot/diff instrumentation over a :class:`ContextCache`."""

    def __init__(self, cache: ContextCache) -> None:
        self.cache = cache
        self.mark()

    def mark(self) -> None:
        """Record the current accounting as the new baseline."""
        self._events = self.cache.alloc_events
        self._bytes = self.cache.alloc_bytes_total
        self._rebinds: dict[tuple[Hashable, str], int] = {
            (ctx.key, name): count
            for ctx in self.cache.contexts()
            for name, count in ctx.rebinds.items()
        }

    @property
    def new_events(self) -> int:
        return self.cache.alloc_events - self._events

    @property
    def new_bytes(self) -> int:
        return self.cache.alloc_bytes_total - self._bytes

    def new_rebinds(self) -> dict[tuple[Hashable, str], int]:
        """(context key, buffer name) → rebind count since :meth:`mark`."""
        out: dict[tuple[Hashable, str], int] = {}
        for ctx in self.cache.contexts():
            for name, count in ctx.rebinds.items():
                delta = count - self._rebinds.get((ctx.key, name), 0)
                if delta > 0:
                    out[(ctx.key, name)] = delta
        return out

    def check_thrash(self, tolerance: int = REBIND_TOLERANCE) -> None:
        """Raise :class:`ContextThrashError` on repeated rebinds."""
        worst = {
            k: n for k, n in self.new_rebinds().items() if n >= tolerance
        }
        if worst:
            (key, name), count = max(worst.items(), key=lambda kv: kv[1])
            raise ContextThrashError(
                f"buffer {name!r} in context {key!r} was rebound "
                f"{count}x with a new shape/dtype — the context key does "
                f"not capture the varying data characteristics"
            )

    def check_leak(self, what: str = "workload") -> None:
        """Raise :class:`SteadyStateLeakError` if accounting grew."""
        if self.new_events > 0:
            grown = sorted(
                (ctx for ctx in self.cache.contexts() if ctx.alloc_count),
                key=lambda c: -c.alloc_count,
            )
            detail = ", ".join(
                f"{c.key!r} ({c.alloc_count} allocs, holds {c.nbytes}B)"
                for c in grown[:4]
            )
            raise SteadyStateLeakError(
                f"{what} made the pool allocate {self.new_events} blocks "
                f"(+{self.new_bytes}B) after warm-up — not a zero-alloc "
                f"steady state; live contexts: {detail or 'none'}"
            )


def check_not_poisoned(view: np.ndarray, what: str = "view") -> None:
    """Raise :class:`UseAfterEvictError` if ``view`` reads all poison.

    A non-empty context view that is NaN throughout (floats) or ``0xA5``
    in every byte was poisoned under its holder: its context was
    evicted, or — under ``HPDR_SAN=1`` — released.
    """
    if view.size == 0:
        return
    if view.dtype.kind in "fc":      # as ``_poison`` fills them
        stale = bool(np.isnan(view).all())
    else:
        stale = bool((np.ascontiguousarray(view).view(np.uint8) == POISON_BYTE).all())
    if stale:
        raise UseAfterEvictError(
            f"{what} reads poison throughout — it was kept past the "
            f"release (or eviction) that ended its context's hold on the "
            f"block; take views inside the pin/release region"
        )


def assert_steady_state(
    fn: Callable[[], object],
    cache: ContextCache,
    *,
    warmup: int = 2,
    reps: int = 3,
    rebind_tolerance: int = REBIND_TOLERANCE,
) -> None:
    """Assert ``fn`` reaches a zero-alloc steady state on ``cache``.

    Calls ``fn`` ``warmup`` times (allocations expected and allowed),
    then ``reps`` more times during which the cache's allocation
    accounting must not move (SAN-LEAK) and no context buffer may keep
    rebinding shapes/dtypes (SAN-CTX).  Thrash is diagnosed first: a
    rebinding buffer also shows up as allocation events, and the rebind
    is the root cause.
    """
    for _ in range(warmup):
        fn()
    watch = CMMWatch(cache)
    for _ in range(reps):
        fn()
    watch.check_thrash(tolerance=rebind_tolerance)
    watch.check_leak(what=f"{reps} steady-state calls after warm-up")
