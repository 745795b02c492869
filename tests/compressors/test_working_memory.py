"""Per-call working memory of MGARD-X and Huffman-X, pinned.

Working memory is sized by buffer lifetime: a grid that dies inside its
level shares one slot with every other level's, the Thomas staging is
shared by the three axes of a cube, the key decoder's window is 4 bytes
a payload byte, and the MGARD-X decompress chain (keys → codes →
coefficients) runs in one planned plane.  Two figures per call:

* the pooled blocks bound to contexts at the call's high-water mark
  (block capacities, every context of the cache, small blocks that stay
  with their context included), and
* the transient peak of everything else the call allocates, as
  ``tracemalloc`` sees it on a warm call (pool blocks already exist).
"""

import tracemalloc

import numpy as np
import pytest

from repro import Config, ErrorMode, HuffmanX, MGARDX
from repro.adapters import SerialAdapter
from repro.compressors.mgard.decompose import LEVEL_SLOT, decompose, recompose
from repro.compressors.mgard.hierarchy import Hierarchy
from repro.core.context import ContextCache
from repro.data import gaussian_random_field
from repro.resilience import ResilientAdapter
from repro.resilience.errors import DeviceBatchFault

MB = 1e6
_REL = Config(error_bound=1e-3, error_mode=ErrorMode.REL)


class _BoundBlocks:
    """High-water mark of the block bytes a cache's pool has out."""

    def __init__(self, cache: ContextCache) -> None:
        pool = self.pool = cache.pool
        self.out = self.peak = 0
        lease, give_back = pool.lease, pool.give_back

        def counted_lease(nbytes):
            block, fresh = lease(nbytes)
            self.out += block.size
            self.peak = max(self.peak, self.out)
            return block, fresh

        def counted_give_back(block):
            self.out -= block.size
            give_back(block)

        pool.lease, pool.give_back = counted_lease, counted_give_back

    def warm_call(self, fn):
        """Run ``fn`` twice; the pooled and transient peaks of the
        second (warm) call, in MB."""
        fn()
        self.peak = self.out
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn()
            transient = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        return self.peak / MB, transient / MB


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(0)
    return np.cumsum(rng.normal(size=(64, 64, 64)), axis=0).astype(np.float32)


def test_mgard_round_trip_of_a_64_cube_stays_in_budget(field):
    """At most 8 MB of pooled blocks bound and 7 MB of transient peak,
    each way (the per-name binding held 11.8 MB compressing and drew
    8.7 / 10.8 MB of transients)."""
    cache = ContextCache()
    blocks = _BoundBlocks(cache)
    codec = MGARDX(_REL, adapter=SerialAdapter(), context_cache=cache)
    blob = codec.compress(field)
    pooled, transient = blocks.warm_call(lambda: codec.compress(field))
    assert pooled <= 8.0, f"compress bound {pooled:.2f} MB of blocks"
    assert transient <= 7.0, f"compress drew {transient:.2f} MB of transients"
    pooled, transient = blocks.warm_call(lambda: codec.decompress(blob))
    assert pooled <= 8.0, f"decompress bound {pooled:.2f} MB of blocks"
    assert transient <= 7.0, f"decompress drew {transient:.2f} MB of transients"
    assert np.max(np.abs(codec.decompress(blob) - field)) <= _REL.absolute_bound(field)


def test_huffman_decode_of_a_megabyte_stays_in_budget():
    """A 1 MB field of quarter-integers (a 286 KB payload): the uint32
    window and the byte-wide decoded plane bind at most 5 MB of pooled
    blocks (the int64 window bound 6.6 MB)."""
    data = np.round(gaussian_random_field((64, 64, 64), -2.0, seed=5151002)
                    * 4).astype(np.float32)
    cache = ContextCache()
    blocks = _BoundBlocks(cache)
    codec = HuffmanX(adapter=SerialAdapter(), context_cache=cache)
    blob = codec.compress(data)
    pooled, _ = blocks.warm_call(lambda: codec.decompress(blob))
    assert pooled <= 5.0, f"decode bound {pooled:.2f} MB of blocks"
    assert codec.decompress(blob).tobytes() == data.tobytes()


class _FailsAfterFirstGroup(SerialAdapter):
    """Fails its first Map&Process launch after running the first
    subset, as a device that aborts a launch part-way would."""

    armed = False

    def execute_domain(self, functor, data):
        if self.armed and functor.name == "map_and_process":
            self.armed = False
            functor.apply(data[:1])
            raise DeviceBatchFault("dem.map_and_process", "aborted part-way")
        return super().execute_domain(functor, data)


def test_a_retried_dequantize_launch_resumes_instead_of_rescaling(field):
    """The planned decompress chain dequantizes in place; a launch the
    resilient adapter retries after it converted a group must not read
    those bin centres as codes again."""
    blob = MGARDX(_REL).compress(field)
    want = MGARDX(_REL).decompress(blob)
    device = _FailsAfterFirstGroup()
    codec = MGARDX(_REL, adapter=ResilientAdapter(
        device, fallback=None, sleep=lambda s: None))
    device.armed = True
    got = codec.decompress(blob)
    assert not device.armed                 # the fault did fire
    assert got.tobytes() == want.tobytes()


def _spy_on_slot(ctx, name):
    """Record every view ``ctx.scratch`` hands out under ``name``, and
    whether the views handed out before each borrow were all NaN then."""
    views, poisoned_at_borrow = [], []
    scratch = ctx.scratch

    def spy(n, size, dtype=np.uint8):
        if n == name:
            poisoned_at_borrow.append(
                all(np.isnan(v).all() for v in views)
            )
        view = scratch(n, size, dtype)
        if n == name:
            views.append(view)
        return view

    ctx.scratch = spy
    return views, poisoned_at_borrow


@pytest.mark.parametrize("san", ["1", "0"])
def test_a_view_kept_past_its_level_reads_poison_under_san(monkeypatch, san):
    """The level slot is retired as each level ends: under
    ``HPDR_SAN=1`` a view kept from an earlier level reads NaN by the
    time the next level borrows the slot (SAN-ALIAS), and NaN stays
    after the release (SAN-EVICT); without it retiring costs nothing."""
    monkeypatch.setenv("HPDR_SAN", san)
    cache = ContextCache()
    ctx = cache.get("grid", pin=True)
    hierarchy = Hierarchy((17, 9, 5))
    data = np.random.default_rng(1).normal(size=hierarchy.shape)
    views, poisoned_at_borrow = _spy_on_slot(ctx, LEVEL_SLOT)
    coeffs, coarsest = decompose(data, hierarchy, ctx=ctx)
    assert len(views) == hierarchy.total_levels
    level0 = views[0]
    if san == "1":
        assert poisoned_at_borrow == [True] * len(views)
        assert np.isnan(level0).all()
    else:
        assert not np.isnan(level0).any()
    # The coefficients never alias the shared slot: still exact.
    back = recompose(coeffs, coarsest, hierarchy, ctx=ctx)
    assert np.allclose(back, data, rtol=0, atol=1e-12)
    cache.release(ctx)
    if san == "1":
        assert np.isnan(level0).all()
