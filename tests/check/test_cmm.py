"""CMM misuse detection: steady-state leaks, context thrash, eviction.

The zero-alloc steady state is the CMM's core contract; these tests
seed each way of breaking it and check the corresponding rule fires.
"""

import numpy as np
import pytest

from repro import HuffmanX
from repro.check import (
    CMMWatch,
    ContextThrashError,
    SteadyStateLeakError,
    UseAfterEvictError,
    assert_steady_state,
)
from repro.core.context import LEASE_FLOOR, MIN_BLOCK, ContextCache


class TestSteadyStateLeak:
    def test_real_codec_is_steady(self, rng):
        data = rng.integers(0, 64, size=20_000).astype(np.int64)
        h = HuffmanX()
        assert_steady_state(lambda: h.compress_keys(data, 64), h.cache)

    def test_fresh_name_every_call_is_a_leak(self):
        cache = ContextCache()
        calls = {"n": 0}

        def leaky():
            calls["n"] += 1
            ctx = cache.get("work")
            # a per-call buffer name defeats the cache entirely
            ctx.buffer(f"tmp{calls['n']}", (256,), np.float32)

        with pytest.raises(SteadyStateLeakError, match="SAN-LEAK"):
            assert_steady_state(leaky, cache)

    def test_growing_scratch_is_a_leak(self):
        cache = ContextCache()
        calls = {"n": 0}

        def growing():
            calls["n"] += 1
            cache.get("work").scratch("buf", 1024 * calls["n"], np.uint8)

        with pytest.raises(SteadyStateLeakError):
            assert_steady_state(growing, cache)

    def test_failure_names_the_offending_context(self):
        cache = ContextCache()
        calls = {"n": 0}

        def leaky():
            calls["n"] += 1
            cache.get("leaker").buffer(f"b{calls['n']}", (8,), np.uint8)

        with pytest.raises(SteadyStateLeakError, match="leaker"):
            assert_steady_state(leaky, cache)


class TestContextThrash:
    def test_shape_rebinding_is_thrash(self):
        cache = ContextCache()
        calls = {"n": 0}

        def thrashing():
            calls["n"] += 1
            # same name, alternating shape: the key should have carried
            # the shape — every call reallocates and poisons old views
            n = 128 if calls["n"] % 2 else 256
            cache.get("work").buffer("io", (n,), np.float32)

        with pytest.raises(ContextThrashError, match="SAN-CTX"):
            assert_steady_state(thrashing, cache)

    def test_dtype_flip_is_thrash(self):
        cache = ContextCache()
        calls = {"n": 0}

        def flipping():
            calls["n"] += 1
            dt = np.float32 if calls["n"] % 2 else np.int32
            cache.get("work").buffer("io", (64,), dt)

        with pytest.raises(ContextThrashError):
            assert_steady_state(flipping, cache)

    def test_stable_binding_is_clean(self):
        cache = ContextCache()
        assert_steady_state(
            lambda: cache.get("work").buffer("io", (64,), np.float32), cache
        )


class TestCMMWatch:
    def test_mark_resets_baseline(self):
        cache = ContextCache()
        watch = CMMWatch(cache)
        cache.get("a").buffer("x", (32,), np.uint8)
        assert watch.new_events == 1
        assert watch.new_bytes == MIN_BLOCK     # what the pool allocated
        watch.mark()
        assert watch.new_events == 0
        watch.check_leak()  # must not raise after re-mark
        # A lease that comes back from the pool is not an event: the
        # watch sees allocations, not borrowings.
        ctx = cache.get("b", pin=True)
        ctx.buffer("big", (LEASE_FLOOR,), np.uint8)
        cache.release(ctx)
        watch.mark()
        other = cache.get("c", pin=True)
        other.buffer("also big", (LEASE_FLOOR - 100,), np.uint8)
        cache.release(other)
        assert watch.new_events == 0
        watch.check_leak()

    def test_use_after_evict_still_raises_under_watch(self):
        # SAN-EVICT belongs to the context layer but is part of the same
        # taxonomy: a watched workload holding an evicted context fails
        # loudly, not silently.
        cache = ContextCache(capacity=1)
        ctx = cache.get("a")
        cache.get("b")
        with pytest.raises(UseAfterEvictError, match="SAN-EVICT"):
            ctx.buffer("x", (8,), np.uint8)
