"""CMM leases: buffers of 64 KB and up are borrowed for the call.

What a context borrows goes back to the cache's pool when its last pin
is released, so shapes that rotate through the cache find their blocks
instead of allocating them, and a view kept past the release is stale.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro import Config, ErrorMode, HuffmanX, MGARDX, ZFPX
from repro.adapters import get_adapter
from repro.check import UseAfterEvictError, check_not_poisoned
from repro.core.context import LEASE_FLOOR, MIN_BLOCK, ContextCache
from repro.progressive import ProgressiveMGARD, ProgressiveRetriever, archive_bytes

BIG = (LEASE_FLOOR // 8,)      # float64 elements: exactly the floor


class TestLeaseLifetime:
    def test_release_returns_leases_and_keeps_small_buffers(self):
        cache = ContextCache()
        ctx = cache.get("a", pin=True)
        big = ctx.buffer("big", BIG)
        small = ctx.buffer("small", (16,))
        assert ctx.buffer("big", BIG) is big   # stable inside the call
        cache.release(ctx)
        assert [b.size for b in ctx._blocks.values()] == [MIN_BLOCK]
        assert cache.pool.pooled_bytes == LEASE_FLOOR
        assert ctx.buffer("small", (16,)) is small
        assert "big" in ctx                    # known, not held

    def test_next_borrower_gets_the_block_that_just_came_back(self):
        cache = ContextCache()
        ctx = cache.get("a", pin=True)
        first = ctx.buffer("x", BIG)
        ctx.buffer("y", BIG)
        cache.release(ctx)
        other = cache.get("b", pin=True)
        # LIFO: "y" went back last, so it is the warm one.  A smaller
        # request in the same capacity class finds it too.
        again = other.scratch("z", LEASE_FLOOR - 1000, np.uint8)
        assert not np.shares_memory(again, first)
        assert np.shares_memory(other.buffer("w", BIG), first)
        cache.release(other)
        assert cache.alloc_events == 2

    def test_nested_pins_return_blocks_only_at_the_outermost_release(self):
        cache = ContextCache()
        outer = cache.get("a", pin=True)
        big = outer.buffer("big", BIG)
        big[:] = 3.0
        inner = cache.get("a", pin=True)
        assert inner is outer
        cache.release(inner)
        assert cache.pool.pooled_bytes == 0
        assert outer.buffer("big", BIG) is big and np.all(big == 3.0)
        cache.release(outer)
        assert cache.pool.pooled_bytes == LEASE_FLOOR
        cache.release(outer)                   # a stray release is a no-op
        assert cache.pool.pooled_bytes == LEASE_FLOOR

    def test_unpinned_user_keeps_its_buffers_until_eviction(self):
        # ``mgard/refactor.py`` and the tuner fetch contexts with a plain
        # get(): no release ever comes, so nothing is taken from them.
        cache = ContextCache(capacity=1)
        ctx = cache.get("a")
        big = ctx.buffer("big", BIG)
        big[:] = 5.0
        pinned = cache.get("a", pin=False)
        assert pinned.buffer("big", BIG) is big
        assert cache.pool.pooled_bytes == 0
        cache.get("b")                         # evicts "a"
        assert np.all(np.isnan(big))
        assert cache.pool.pooled_bytes == LEASE_FLOOR

    def test_memory_held_is_the_high_water_mark_of_pinned_calls(self):
        # Twenty neighbouring shapes, one at a time: one call's worth.
        cache = ContextCache()
        for k in range(20):
            ctx = cache.get(("shape", k), pin=True)
            ctx.buffer("work", (LEASE_FLOOR + 512 * (k + 1),), np.uint8)
            ctx.scratch("out", LEASE_FLOOR // 4 + 1 + k, np.uint32)
            cache.release(ctx)
        assert cache.alloc_events == 2
        assert cache.live_bytes == 2 * (2 * LEASE_FLOOR)
        assert cache.evictions == 4

    def test_threads_leasing_at_once_never_share_a_block(self):
        # More threads than cores, switching every 10 us, one pool: a
        # lost update on a free list would hand two calls one block, or
        # lose one (the byte totals would stop balancing).
        cache = ContextCache()
        nthreads, errors = 4, []
        deadline = time.monotonic() + 1.5

        def call(i):
            try:
                while time.monotonic() < deadline:
                    ctx = cache.get(("seg", i), pin=True)
                    try:
                        work = ctx.buffer("work", BIG)
                        out = ctx.scratch("out", LEASE_FLOOR, np.uint8)
                        work[:] = i
                        out[:] = i
                        time.sleep(0)              # let the others run
                        assert np.all(work == i) and np.all(out == i)
                    finally:
                        cache.release(ctx)
            except BaseException as exc:
                errors.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert 2 <= cache.alloc_events <= 2 * nthreads   # threads x one call
        assert cache.alloc_bytes_total - cache.free_bytes_total == cache.live_bytes
        assert cache.pool.pooled_bytes == cache.alloc_events * LEASE_FLOOR
        blocks = [b for stack in cache.pool._free.values() for b in stack]
        assert len({b.ctypes.data for b in blocks}) == len(blocks) == cache.alloc_events


class TestPoisonAtRelease:
    def test_view_kept_past_release_reads_poison_and_names_san_evict(
        self, monkeypatch
    ):
        monkeypatch.setenv("HPDR_SAN", "1")
        cache = ContextCache()
        ctx = cache.get("a", pin=True)
        floats = ctx.buffer("f", BIG)
        ints = ctx.scratch("i", LEASE_FLOOR, np.int16)
        small = ctx.buffer("s", (8,))
        floats[:] = 1.0
        ints[:] = 1
        small[:] = 1.0
        check_not_poisoned(floats, "f")
        cache.release(ctx)
        with pytest.raises(UseAfterEvictError, match="SAN-EVICT.*'f'"):
            check_not_poisoned(floats, "'f'")
        with pytest.raises(UseAfterEvictError, match="SAN-EVICT"):
            check_not_poisoned(ints)
        check_not_poisoned(small)              # small buffers stay valid
        # The context itself is alive: the next call just borrows again.
        ctx = cache.get("a", pin=True)
        assert not np.isnan(ctx.buffer("s", (8,))).any()
        cache.release(ctx)

    def test_without_the_sanitizer_release_touches_nothing(self, monkeypatch):
        monkeypatch.delenv("HPDR_SAN", raising=False)
        cache = ContextCache()
        ctx = cache.get("a", pin=True)
        floats = ctx.buffer("f", BIG)
        floats[:] = 1.0
        cache.release(ctx)
        assert np.all(floats == 1.0)

    def test_codecs_round_trip_with_poison_at_release(self, monkeypatch, rng):
        # Nothing a codec returns may be a view of a leased block.
        monkeypatch.setenv("HPDR_SAN", "1")
        cache = ContextCache()
        kw = {"adapter": get_adapter("openmp", num_threads=2),
              "context_cache": cache}
        data = rng.normal(size=(40, 40, 40)).astype(np.float32)
        mgard = MGARDX(Config(error_bound=1e-3, error_mode=ErrorMode.REL), **kw)
        back = mgard.decompress(mgard.compress(data))
        ZFPX(rate=10, **kw).compress(data)     # other calls reuse the blocks
        assert np.abs(back - data).max() <= 1e-3 * np.ptp(data)
        huff = HuffmanX(**kw)
        assert np.array_equal(huff.decompress(huff.compress(data)), data)
        assert np.abs(back - data).max() <= 1e-3 * np.ptp(data)


# ---------------------------------------------------------------------------
SHAPES = [(48, 48, 40 + k) for k in range(20)]


def test_rotating_shapes_stop_allocating(rng):
    """MGARD-X, ZFP-X, Huffman-X and a progressive refactor + retrieve
    over twenty shapes through one default (16-entry) cache on
    openmp(2): every context is evicted and rebuilt on every pass, and
    after the first the pool serves all of it.

    Parent (each context owning its buffers): 4,630 allocation events
    in the first pass and 4,582 in every later one.  Now: 378, then
    ``[0, 0]``, ``[1, 0]`` or ``[0, 1]`` — which of the two Huffman
    segment contexts the scheduler touched last decides which the LRU
    evicts first, and so whether some rebuilt context finds one 8 KB
    block short.  The bound allows for that and nothing more.
    """
    adapter = get_adapter("openmp", num_threads=2)
    cache = ContextCache()
    kw = {"adapter": adapter, "context_cache": cache}
    config = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
    codecs = (MGARDX(config, **kw), ZFPX(rate=10, **kw), HuffmanX(**kw))
    writer = ProgressiveMGARD(config, **kw)
    reader = ProgressiveRetriever(**kw)
    fields = [rng.normal(size=s).cumsum(axis=0).astype(np.float32)
              for s in SHAPES]

    def one_pass():
        before = cache.alloc_events, cache.evictions
        for x in fields:
            for codec in codecs:
                codec.decompress(codec.compress(x))
            index, segments = writer.refactor(x)
            coarse, _ = reader.retrieve(archive_bytes(index, segments),
                                        eps=1e-2 * float(np.ptp(x)))
            assert coarse.shape == x.shape
        assert cache.evictions - before[1] > 4 * len(SHAPES)
        return cache.alloc_events - before[0]

    try:
        cold, *later = [one_pass() for _ in range(3)]
    finally:
        adapter.close()
    assert cold > 50
    assert sum(later) <= 8
