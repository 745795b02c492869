"""Zero-alloc steady state (CMM, paper III-B) and cache-eviction safety.

The Context Memory Model's whole point is that the *steady state*
performs no runtime memory management: after warm-up, repeated
reductions of same-shaped data must not allocate through their cached
contexts.  These tests pin that property for all three codecs, and pin
the safety/accounting contracts of :class:`ContextCache` eviction.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Config, ErrorMode, HuffmanX, MGARDX, ZFPX
from repro.adapters.serial import SerialAdapter
from repro.check.cmm import assert_steady_state
from repro.core.context import (
    LEASE_FLOOR,
    POISON_BYTE,
    ContextCache,
    UseAfterEvictError,
)
from repro.data import gaussian_random_field, nyx_like


def _steady_state_events(codec, data):
    """New cache-wide allocation events on a 3rd same-shaped compress
    and a 2nd same-stream decompress (calls 1-2 are warm-up)."""
    blob = codec.compress(data)
    codec.compress(data)
    codec.decompress(blob)
    before = codec.cache.alloc_events
    codec.compress(data)
    codec.decompress(blob)
    return codec.cache.alloc_events - before


class TestZeroAllocSteadyState:
    def test_huffman(self, rng):
        data = rng.normal(size=(32, 32, 32)).astype(np.float32)
        assert _steady_state_events(HuffmanX(), data) == 0

    def test_huffman_openmp(self, rng):
        from tests.conftest import fanning_openmp

        # Threads pinned and the fan-out floor at 0: the encode launch
        # is split four ways whatever the host reports.
        data = rng.integers(0, 256, size=400_000).astype(np.uint8)
        codec = HuffmanX(adapter=fanning_openmp(4))
        assert _steady_state_events(codec, data) == 0

    def test_mgard(self, rng):
        data = rng.normal(size=(24, 24, 24)).astype(np.float32)
        codec = MGARDX(Config(error_bound=1e-3, error_mode=ErrorMode.REL))
        assert _steady_state_events(codec, data) == 0

    def test_zfp(self, rng):
        data = rng.normal(size=(24, 24, 24)).astype(np.float32)
        assert _steady_state_events(ZFPX(rate=10), data) == 0

    def test_alloc_count_stops_increasing(self, rng):
        # The per-context counter (not just the cache aggregate) must
        # flatline too: the blocks a call leases (80 KB of keys is over
        # the lease floor) come back from the pool, not the allocator.
        keys = rng.integers(0, 64, size=10_000).astype(np.int64)
        h = HuffmanX()
        h.compress_keys(keys, 64)
        h.compress_keys(keys, 64)
        ctx = h._key_context(keys.shape, keys.dtype, 64)
        h.cache.release(ctx)
        before = ctx.alloc_count
        assert before > 0
        h.compress_keys(keys, 64)
        assert ctx.alloc_count == before
        # ... and between calls the context keeps only its small ones.
        assert ctx._blocks
        assert all(b.size < LEASE_FLOOR for b in ctx._blocks.values())
        assert h.cache.pool.pooled_bytes >= keys.nbytes


MB = 1 << 20


def _traced_peak(fn):
    """``fn()`` and the most memory it had allocated at once beyond
    what was live when it started (tracemalloc: NumPy arrays included)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestFootprint:
    """A warm key coder holds only planes whose data is live: merged
    code/end items, the packed words, one decode plane no wider than
    the keys.  The serial adapter is built directly so ``HPDR_SAN=1``
    adds no shadow copies to what tracemalloc sees."""

    def test_huffman_byte_round_trip(self):
        # direct_field's lossless variable: quarter-integer values of a
        # Gaussian random field, 64^3 float32 = 1 MB.
        data = np.round(
            gaussian_random_field((64, 64, 64), -2.0, seed=2) * 4
        ).astype(np.float32)
        codec = HuffmanX(adapter=SerialAdapter())
        for _ in range(2):
            blob = codec.compress(data)
            assert np.array_equal(codec.decompress(blob), data)
        blob, compress_peak = _traced_peak(lambda: codec.compress(data))
        back, decompress_peak = _traced_peak(lambda: codec.decompress(blob))
        assert np.array_equal(back, data)
        assert codec.cache.live_bytes <= 12 * MB
        assert compress_peak <= 2.5 * MB
        assert decompress_peak <= 1.5 * MB     # the 1 MB result included

    def test_mgard_round_trip(self):
        data = nyx_like((64, 64, 64), seed=2)
        codec = MGARDX(Config(error_bound=1e-3, error_mode=ErrorMode.REL),
                       adapter=SerialAdapter())
        for _ in range(2):
            codec.decompress(codec.compress(data))
        assert codec.cache.live_bytes <= 15 * MB


class TestLaunchWidth:
    """Single-shot is a batch of one: a codec keeps one context per
    shape/dtype/params, and the batch count is a launch width under it —
    not a rebind (SAN-CTX), and past the widest launch seen not an
    allocation either (SAN-LEAK)."""

    @pytest.mark.parametrize("build, contexts", [
        (lambda: MGARDX(Config(error_bound=1e-3, error_mode=ErrorMode.REL)), 2),
        (lambda: ZFPX(rate=10), 1),
        (lambda: HuffmanX(), 1),
    ], ids=["mgard", "zfp", "huffman"])
    def test_alternating_batch_counts_reach_steady_state(
        self, rng, build, contexts
    ):
        codec = build()
        fields = [rng.normal(size=(24, 24, 24)).astype(np.float32)
                  for _ in range(8)]

        def one_pass():
            for n in (1, 3, 8):
                blobs = codec.compress_batch(fields[:n])
                backs = codec.decompress_batch(blobs)
                assert len(backs) == n

        one_pass()                      # ... the first pass at 8 included
        before = codec.cache.alloc_events
        one_pass()
        assert codec.cache.alloc_events == before
        assert_steady_state(one_pass, codec.cache, warmup=0)
        # MGARD-X's second context is its nested key coder's.
        assert len(codec.cache) == contexts


class TestEvictionSafety:
    def test_eviction_poisons_buffers_and_invalidates_context(self):
        # Eviction is loud: what the victim still holds — its small
        # buffers, and any lease an unpinned user never released —
        # reads NaN / 0xA5, and further context use raises.
        cache = ContextCache(capacity=1)
        ctx = cache.get("a")
        buf = ctx.buffer("x", (128,), np.float64)
        ints = ctx.buffer("y", (16,), np.int64)
        big = ctx.buffer("z", (LEASE_FLOOR,), np.float32)
        buf[:] = 7.0
        big[:] = 7.0
        cache.get("b")  # evicts "a" mid-run
        assert "a" not in cache
        assert cache.evictions == 1
        assert ctx.evicted
        assert np.all(np.isnan(buf))
        assert np.all(np.isnan(big))
        assert np.all(ints.view(np.uint8) == POISON_BYTE)
        with pytest.raises(UseAfterEvictError):
            ctx.buffer("x", (128,), np.float64)
        with pytest.raises(UseAfterEvictError):
            ctx.scratch("s", 8)
        with pytest.raises(UseAfterEvictError):
            ctx.object("o", lambda: 1)
        # Nothing was freed: the victim's blocks are the pool's now.
        assert cache.free_bytes_total == 0
        assert cache.pool.pooled_bytes == cache.live_bytes > big.nbytes

    def test_released_leases_leave_eviction_nothing_large_to_poison(
        self, monkeypatch
    ):
        monkeypatch.delenv("HPDR_SAN", raising=False)  # it poisons at release
        cache = ContextCache(capacity=1)
        ctx = cache.get("a", pin=True)
        big = ctx.buffer("z", (LEASE_FLOOR,), np.float32)
        big[:] = 7.0
        cache.release(ctx)
        cache.get("b")
        assert ctx.evicted
        assert np.all(big == 7.0)   # handed back at release, untouched since

    def test_pinned_context_survives_eviction_pressure(self):
        cache = ContextCache(capacity=1)
        ctx = cache.get("a", pin=True)
        buf = ctx.buffer("x", (64,), np.float64)
        buf[:] = 7.0
        other = cache.get("b")  # "a" is pinned: "b" is the only victim…
        assert not ctx.evicted  # …but never evicts itself on creation
        assert not other.evicted
        assert len(cache) == 2  # temporarily over capacity
        assert np.all(buf == 7.0)
        cache.release(ctx)
        assert len(cache) == 1  # release() shrinks back to capacity
        assert ctx.evicted

    def test_pins_nest(self):
        cache = ContextCache(capacity=1)
        ctx = cache.get("a", pin=True)
        assert cache.get("a", pin=True) is ctx
        cache.release(ctx)
        cache.get("b")
        assert not ctx.evicted  # still one pin outstanding
        cache.release(ctx)
        cache.get("c")
        assert ctx.evicted

    def test_reacquired_key_gets_fresh_context(self):
        cache = ContextCache(capacity=1)
        first = cache.get("a")
        first.buffer("x", (8,), np.uint8)
        cache.get("b")
        again = cache.get("a")
        assert again is not first
        assert "x" not in again

    def test_codec_roundtrips_under_eviction_pressure(self, rng):
        # capacity=1 forces an eviction on every shape change; streams
        # must still round-trip exactly (evicted contexts are dropped,
        # never recycled under in-flight work).
        cache = ContextCache(capacity=1)
        h = HuffmanX(context_cache=cache)
        for n in (1_000, 2_000, 3_000, 1_000):
            keys = rng.integers(0, 64, size=n).astype(np.int64)
            blob = h.compress_keys(keys, 64)
            assert np.array_equal(h.decompress_keys(blob), keys)
        assert cache.evictions >= 3


_KEYS = st.integers(0, 5)
_OPS = st.one_of(
    st.tuples(st.just("get"), _KEYS, st.booleans()),
    st.tuples(st.just("buffer"), _KEYS, st.integers(1, 3 * LEASE_FLOOR)),
    st.tuples(st.just("scratch"), _KEYS, st.integers(0, 3 * LEASE_FLOOR)),
    st.tuples(st.just("object"), _KEYS, st.integers(0, 4096)),
    st.tuples(st.just("release"), _KEYS, st.none()),
    st.tuples(st.just("clear"), st.none(), st.none()),
)


class TestByteAccounting:
    @settings(deadline=None, max_examples=60)
    @given(ops=st.lists(_OPS, min_size=1, max_size=60),
           capacity=st.integers(1, 4))
    def test_alloc_and_free_totals_balance(self, ops, capacity):
        """Over any get/pin/buffer/scratch/object/release/evict/clear
        sequence, ``alloc - free == live`` holds after every step: live
        is blocks with contexts + blocks in the pool + array objects,
        counted independently of the totals.  The external hooks see
        the same bytes, and ``clear()`` frees all of them."""
        hook = {"alloc": 0, "free": 0}
        cache = ContextCache(
            capacity=capacity,
            on_alloc=lambda nb: hook.__setitem__("alloc", hook["alloc"] + nb),
            on_free=lambda nb: hook.__setitem__("free", hook["free"] + nb),
        )
        pinned = {}     # key -> [ctx, ...] with a pin outstanding
        for op, key, arg in ops:
            if op == "get":
                ctx = cache.get(key, pin=arg)   # may evict (capacity <= 4)
                if arg:
                    pinned.setdefault(key, []).append(ctx)
            elif op == "release":
                if pinned.get(key):
                    ctx = pinned[key].pop()
                    cache.release(ctx)
                    if not ctx.pinned:  # the outermost release ends the leases
                        assert all(b.size < LEASE_FLOOR
                                   for b in ctx._blocks.values())
            elif op == "clear":
                cache.clear()
                pinned.clear()
            elif op == "buffer":
                cache.get(key).buffer("b", (arg,), np.uint8)
            elif op == "scratch":
                cache.get(key).scratch("s", arg, np.uint16)
            else:
                cache.get(key).object("o", lambda: [np.zeros(arg, np.uint8)])
            assert cache.alloc_bytes_total - cache.free_bytes_total == cache.live_bytes
        cache.clear()
        assert cache.live_bytes == 0
        assert cache.pool.pooled_bytes == 0
        assert cache.free_bytes_total == cache.alloc_bytes_total
        assert hook["alloc"] == cache.alloc_bytes_total
        assert hook["free"] == cache.free_bytes_total
