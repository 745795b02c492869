"""Deadline-based micro-batch planning (pure, clock-injected).

:class:`MicroBatchPlanner` is the decision core of the service's
batcher, deliberately free of asyncio, threads and wall clocks: callers
pass ``now`` explicitly, which is what makes the batching invariants
*property-testable* with a synthetic clock (``tests/serve``).  The
asyncio front end feeds it ``loop.time()`` and arms one timer for
:meth:`next_deadline`.

Flush policy (paper Fig. 9 applied to request traffic — aggregate small
calls until the device-side batch is worth launching):

* **size** — a key's open batch reaches ``max_batch`` requests;
* **bytes** — admitting the next request would push the open batch past
  ``max_bytes`` (the batch is closed first, so no flush ever exceeds
  the byte bound unless a *single* request alone does — oversized
  requests flush as singletons immediately);
* **deadline** — ``max_latency_s`` elapsed since the batch's first
  request arrived (:meth:`due`);
* **idle** — the caller detected there is nothing to wait *for*
  (:meth:`close_key`): batching trades latency for launch efficiency,
  but when the admitted request is the only one in flight no second
  request can join its batch before it completes — holding it for the
  deadline would add ``max_latency_s`` of pure latency per request and
  collapse a single closed-loop client's throughput (the service flushes
  immediately instead, so ``batch=1`` traffic performs like an
  unbatched service);
* **drain** — explicit :meth:`flush_all` on shutdown.

Invariants (enforced by the property suite):

1. every added item appears in exactly one flush, unless discarded
   (cancelled) first — never zero, never twice;
2. ``len(flush.items) <= max_batch`` always;
3. ``flush.nbytes <= max_bytes`` unless the flush is a single item;
4. after ``due(now)`` returns, no open batch is older than
   ``max_latency_s`` at time ``now``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

#: the service's default admission limit (``ServiceConfig.max_pending``)
#: and so the default flush count: no size flush splits a wave of
#: requests that admission let in.  The byte cap stops runaway batches,
#: and the deadline and idle flush decide when a smaller batch goes.
ADMISSION_LIMIT = 256


@dataclass(frozen=True)
class BatchLimits:
    """Flush bounds for the micro-batcher."""

    max_batch: int = ADMISSION_LIMIT
    max_bytes: int = 4 << 20
    max_latency_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {self.max_bytes}")
        if not self.max_latency_s >= 0:  # refuses NaN too
            raise ValueError(
                f"max_latency_s must be >= 0, got {self.max_latency_s}"
            )


@dataclass
class Flush:
    """One closed batch, ready for worker execution."""

    key: Hashable
    items: list[Any]
    nbytes: int
    opened_at: float
    reason: str  # "size" | "bytes" | "deadline" | "idle" | "drain"


@dataclass
class _Open:
    """A key's accumulating batch (per-item sizes kept for discard)."""

    opened_at: float
    items: list[Any] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    nbytes: int = 0


class MicroBatchPlanner:
    """Groups keyed items into bounded, deadline-flushed batches."""

    def __init__(self, limits: BatchLimits | None = None) -> None:
        self.limits = limits if limits is not None else BatchLimits()
        self._open: dict[Hashable, _Open] = {}

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Items currently waiting in open batches."""
        return sum(len(o.items) for o in self._open.values())

    def open_batches(self) -> int:
        return len(self._open)

    # ------------------------------------------------------------------
    def add(self, key: Hashable, item: Any, nbytes: int, now: float) -> list[Flush]:
        """Admit one item; return any flushes it triggers (0, 1 or 2).

        Two flushes happen when the incoming item overflows the open
        batch's byte budget (the old batch closes "bytes") *and* is
        itself at or over ``max_bytes`` (it closes immediately as an
        oversized singleton).
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        lim = self.limits
        flushes: list[Flush] = []
        batch = self._open.get(key)
        if batch is not None and batch.items and batch.nbytes + nbytes > lim.max_bytes:
            flushes.append(self._close(key, "bytes"))
            batch = None
        if batch is None:
            batch = _Open(opened_at=now)
            self._open[key] = batch
        batch.items.append(item)
        batch.sizes.append(nbytes)
        batch.nbytes += nbytes
        if len(batch.items) >= lim.max_batch:
            flushes.append(self._close(key, "size"))
        elif batch.nbytes >= lim.max_bytes:
            flushes.append(self._close(key, "bytes"))
        return flushes

    def discard(self, key: Hashable, item: Any) -> bool:
        """Remove a cancelled item from its open batch (identity match).

        Returns False when the item is not pending (already flushed or
        never added) — the flush path then ignores its dead future.
        """
        batch = self._open.get(key)
        if batch is None:
            return False
        for i, held in enumerate(batch.items):
            if held is item:
                del batch.items[i]
                batch.nbytes -= batch.sizes.pop(i)
                if not batch.items:
                    del self._open[key]
                return True
        return False

    # ------------------------------------------------------------------
    def next_deadline(self) -> float | None:
        """Earliest instant any open batch must flush, or None."""
        if not self._open:
            return None
        return (
            min(o.opened_at for o in self._open.values())
            + self.limits.max_latency_s
        )

    def due(self, now: float) -> list[Flush]:
        """Close every batch whose deadline has passed at ``now``."""
        lim = self.limits
        due_keys = [
            k for k, o in self._open.items()
            if o.opened_at + lim.max_latency_s <= now
        ]
        return [self._close(k, "deadline") for k in due_keys]

    def close_key(self, key: Hashable, reason: str = "idle") -> Flush | None:
        """Close ``key``'s open batch immediately (idle-flush heuristic).

        Returns None when the key has no open batch.  The caller decides
        *when* idleness holds (the planner has no view of in-flight
        work); the planner only guarantees the flush obeys invariant 1 —
        each item still appears in exactly one flush.
        """
        if key not in self._open:
            return None
        return self._close(key, reason)

    def flush_all(self, reason: str = "drain") -> list[Flush]:
        """Close every open batch (graceful drain, or a caller-detected
        idle system — see :meth:`close_key`)."""
        return [self._close(k, reason) for k in list(self._open)]

    # ------------------------------------------------------------------
    def _close(self, key: Hashable, reason: str) -> Flush:
        batch = self._open.pop(key)
        return Flush(
            key=key,
            items=batch.items,
            nbytes=batch.nbytes,
            opened_at=batch.opened_at,
            reason=reason,
        )
