"""Property-based invariants of the micro-batch planner.

The planner is pure and clock-injected, so hypothesis can drive
arbitrary interleavings of request arrivals, clock advances and
cancellations against a synthetic clock and check the four documented
invariants:

1. exactly-once — every added item lands in exactly one flush unless
   discarded first;
2. no flush exceeds ``max_batch`` items;
3. no flush exceeds ``max_bytes`` unless it is a single oversized item;
4. after ``due(now)``, no open batch is older than ``max_latency_s``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.batcher import BatchLimits, MicroBatchPlanner

# Commands: ("add", key, nbytes) | ("advance", dt) | ("cancel", idx)
# The clock is integer "ticks" (units are irrelevant to the planner).
_COMMANDS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 3), st.integers(0, 120)),
        st.tuples(st.just("advance"), st.just(0), st.integers(1, 7)),
        st.tuples(st.just("cancel"), st.just(0), st.integers(0, 10**6)),
    ),
    min_size=1,
    max_size=60,
)

_LIMITS = st.builds(
    BatchLimits,
    max_batch=st.integers(1, 5),
    max_bytes=st.integers(1, 300),
    max_latency_s=st.integers(0, 6).map(float),
)


class _Item:
    """Identity-tracked request stand-in."""

    __slots__ = ("uid", "nbytes")

    def __init__(self, uid: int, nbytes: int) -> None:
        self.uid = uid
        self.nbytes = nbytes


def _run(limits: BatchLimits, commands) -> None:
    planner = MicroBatchPlanner(limits)
    now = 0.0
    next_uid = 0
    added: dict[int, _Item] = {}
    pending: list[tuple[int, _Item]] = []  # (key, item) not yet flushed
    flushed_uids: list[int] = []
    cancelled_uids: list[int] = []

    def consume(flushes) -> None:
        for flush in flushes:
            # Invariant 2: size bound.
            assert len(flush.items) <= limits.max_batch, flush.reason
            # Invariant 3: byte bound, oversized singletons excepted.
            if len(flush.items) > 1:
                assert flush.nbytes <= limits.max_bytes, flush.reason
            assert flush.nbytes == sum(i.nbytes for i in flush.items)
            assert flush.reason in ("size", "bytes", "deadline", "drain")
            for item in flush.items:
                flushed_uids.append(item.uid)
                pending.remove((flush.key, item))

    for op, key, arg in commands:
        if op == "add":
            item = _Item(next_uid, arg)
            next_uid += 1
            added[item.uid] = item
            pending.append((key, item))
            consume(planner.add(key, item, arg, now))
        elif op == "advance":
            now += arg
            consume(planner.due(now))
            # Invariant 4: nothing open is past its deadline.
            deadline = planner.next_deadline()
            if deadline is not None:
                assert deadline > now
            else:
                assert planner.pending() == 0
        else:  # cancel some pending item (if any)
            if pending:
                key, item = pending[arg % len(pending)]
                assert planner.discard(key, item) is True
                cancelled_uids.append(item.uid)
                pending.remove((key, item))

        assert planner.pending() == len(pending)

    consume(planner.flush_all())
    assert planner.pending() == 0
    assert planner.open_batches() == 0
    assert planner.next_deadline() is None

    # Invariant 1: exactly-once, cancellations excepted.
    assert len(flushed_uids) == len(set(flushed_uids)), "item flushed twice"
    assert sorted(flushed_uids + cancelled_uids) == sorted(added), (
        "every added item must be flushed exactly once or cancelled"
    )


@given(limits=_LIMITS, commands=_COMMANDS)
@settings(max_examples=300, deadline=None)
def test_planner_invariants(limits, commands):
    _run(limits, commands)


@given(
    nbytes=st.lists(st.integers(0, 50), min_size=1, max_size=40),
    max_batch=st.integers(1, 8),
)
@settings(max_examples=100, deadline=None)
def test_size_flushes_are_exact(nbytes, max_batch):
    """With no byte/latency pressure, flushes carry exactly max_batch."""
    planner = MicroBatchPlanner(
        BatchLimits(max_batch=max_batch, max_bytes=1 << 30, max_latency_s=60.0)
    )
    flushes = []
    for i, nb in enumerate(nbytes):
        flushes += planner.add("k", _Item(i, nb), nb, now=0.0)
    for flush in flushes:
        assert len(flush.items) == max_batch
        assert flush.reason == "size"
    assert planner.pending() == len(nbytes) - max_batch * len(flushes)


def test_oversized_singleton_flushes_immediately():
    planner = MicroBatchPlanner(BatchLimits(max_batch=8, max_bytes=100))
    flushes = planner.add("k", _Item(0, 500), 500, now=0.0)
    assert [f.reason for f in flushes] == ["bytes"]
    assert [i.uid for i in flushes[0].items] == [0]
    assert planner.pending() == 0


def test_byte_overflow_closes_old_batch_first():
    planner = MicroBatchPlanner(BatchLimits(max_batch=8, max_bytes=100))
    assert planner.add("k", _Item(0, 60), 60, now=0.0) == []
    flushes = planner.add("k", _Item(1, 60), 60, now=1.0)
    # Old batch closes under the byte bound; the new item stays open.
    assert [f.reason for f in flushes] == ["bytes"]
    assert [i.uid for i in flushes[0].items] == [0]
    assert planner.pending() == 1


def test_deadline_uses_first_arrival():
    planner = MicroBatchPlanner(BatchLimits(max_batch=8, max_latency_s=5.0))
    planner.add("k", _Item(0, 1), 1, now=10.0)
    planner.add("k", _Item(1, 1), 1, now=13.0)
    assert planner.next_deadline() == 15.0
    assert planner.due(14.9) == []
    flushes = planner.due(15.0)
    assert [f.reason for f in flushes] == ["deadline"]
    assert len(flushes[0].items) == 2


def test_limits_validation():
    import pytest

    with pytest.raises(ValueError):
        BatchLimits(max_batch=0)
    with pytest.raises(ValueError):
        BatchLimits(max_bytes=0)
    with pytest.raises(ValueError):
        BatchLimits(max_latency_s=-1.0)
    # A NaN deadline is never due: the flush timer would re-arm at once
    # and spin the event loop.
    with pytest.raises(ValueError, match="max_latency_s must be >= 0"):
        BatchLimits(max_latency_s=float("nan"))
    with pytest.raises(ValueError):
        MicroBatchPlanner().add("k", _Item(0, 1), -1, now=0.0)
