"""Context Memory Model: hash-map caching, borrowed blocks, eviction."""

import numpy as np
import pytest

from repro.core.context import MIN_BLOCK, BlockPool, ContextCache, ReductionContext


def test_buffer_persists_across_lookups():
    ctx = ReductionContext(("k",))
    b1 = ctx.buffer("work", (16,), np.float64)
    b1[:] = 7.0
    b2 = ctx.buffer("work", (16,), np.float64)
    assert b1 is b2
    assert ctx.alloc_count == 1


def test_buffer_reallocates_on_shape_change():
    # A shape the held block cannot carry swaps it for a larger one.
    ctx = ReductionContext(("k",))
    ctx.buffer("work", (16,), np.float64)
    b2 = ctx.buffer("work", (1024,), np.float64)
    assert b2.shape == (1024,)
    assert ctx.alloc_count == 2
    assert ctx.rebinds == {"work": 1}


def test_buffer_reallocates_on_dtype_change():
    ctx = ReductionContext(("k",))
    ctx.buffer("work", (1024,), np.float32)
    b = ctx.buffer("work", (1024,), np.float64)
    assert b.dtype == np.float64
    assert ctx.alloc_count == 2


def test_shape_change_within_capacity_is_a_rebind_not_an_allocation():
    ctx = ReductionContext(("k",))
    b1 = ctx.buffer("work", (16,), np.float64)
    b2 = ctx.buffer("work", (4, 8), np.float32)
    assert np.shares_memory(b1, b2)
    assert ctx.alloc_count == 1
    assert ctx.rebinds == {"work": 1}


def test_alloc_hook_fires_on_real_allocations_only():
    calls = []
    pool = BlockPool(on_alloc=calls.append)
    first = ReductionContext(("k",), pool)
    first.buffer("a", (4,), np.float64)
    first.buffer("a", (4,), np.float64)
    assert calls == [MIN_BLOCK]
    # A block found on the free list is not an allocation.
    first.invalidate()
    ReductionContext(("l",), pool).buffer("b", (8,), np.int32)
    assert calls == [MIN_BLOCK]
    assert pool.alloc_events == 1


def test_object_builder_runs_once():
    ctx = ReductionContext(("k",))
    built = []
    obj1 = ctx.object("h", lambda: built.append(1) or "hierarchy")
    obj2 = ctx.object("h", lambda: built.append(1) or "other")
    assert obj1 == obj2 == "hierarchy"
    assert built == [1]


def test_cache_hit_miss_stats():
    cache = ContextCache()
    cache.get(("a",))
    cache.get(("a",))
    cache.get(("b",))
    assert cache.hits == 1
    assert cache.misses == 2
    assert cache.hit_rate == pytest.approx(1 / 3)


def test_cache_returns_same_context():
    cache = ContextCache()
    c1 = cache.get(("shape", "dtype"))
    c1.buffer("x", (8,))
    c2 = cache.get(("shape", "dtype"))
    assert c1 is c2
    assert "x" in c2


def test_lru_eviction():
    cache = ContextCache(capacity=2)
    cache.get(("a",))
    cache.get(("b",))
    cache.get(("a",))   # refresh a
    cache.get(("c",))   # evicts b
    assert ("a",) in cache
    assert ("b",) not in cache
    assert ("c",) in cache
    assert cache.evictions == 1


def test_free_hook_fires_when_the_pool_drops_a_block():
    # Eviction hands the victim's blocks to the pool, for the next
    # context to borrow; memory is freed only when the pool is drained.
    freed = []
    cache = ContextCache(capacity=1, on_free=freed.append)
    c1 = cache.get(("a",))
    c1.buffer("buf", (100,), np.float64)
    cache.get(("b",))
    assert freed == []
    assert cache.pool.pooled_bytes == cache.live_bytes == MIN_BLOCK
    cache.get(("b",)).buffer("other", (7,), np.uint8)
    assert cache.alloc_events == 1
    cache.clear()
    assert freed == [MIN_BLOCK]


def test_clear_frees_everything():
    freed = []
    cache = ContextCache(on_free=freed.append)
    cache.get(("a",)).buffer("x", (10,), np.float64)
    cache.get(("b",)).buffer("y", (2000,), np.float64)
    cache.clear()
    assert sorted(freed) == [MIN_BLOCK, 16384]
    assert len(cache) == 0
    assert cache.live_bytes == cache.pool.pooled_bytes == 0


def test_array_objects_count_as_held_bytes():
    # What an idle MGARD context really keeps is its level geometry.
    cache = ContextCache(capacity=1)
    ctx = cache.get(("a",))
    ctx.object("fine_idx", lambda: np.zeros(1000, np.int64))
    ctx.object("factors", lambda: [(np.zeros(10), np.zeros(5)), "label"])
    ctx.object("hierarchy", lambda: object())
    assert ctx.nbytes == cache.live_bytes == 8000 + 120
    cache.get(("b",))
    assert cache.live_bytes == 0
    assert cache.alloc_bytes_total == cache.free_bytes_total == 8000 + 120
    assert cache.alloc_events == 0


def test_invalid_capacity():
    with pytest.raises(ValueError):
        ContextCache(capacity=0)
