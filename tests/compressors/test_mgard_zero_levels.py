"""Zero-coefficient levels: the skip in ``recompose_levels`` is bit-exact.

``_reference_recompose`` is the loop as it stood before the skip —
every level pays mass / restrict / solve, zero or not.  The properties
compare raw bytes, so the sign of every zero is part of the contract.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compressors.mgard.decompose import (
    decompose,
    level_factors,
    recompose,
    recompose_levels,
)
from repro.compressors.mgard.hierarchy import Hierarchy
from repro.compressors.mgard.ops1d import lerp_fill

from ._reference_kernels import reference_mass_trans


def _reference_recompose(coeffs, coarsest, h):
    current = np.asarray(coarsest, dtype=np.float64).copy()
    for level in range(h.total_levels - 1, -1, -1):
        dims = h.active_dims(level)
        factors = level_factors(h, level)
        shape = h.shape_at(level)
        selector = np.ix_(*(
            dimh.level(level).coarse_idx if level < dimh.num_levels
            else np.arange(n)
            for dimh, n in zip(h.dims, shape)
        ))
        fine = np.ones(shape, dtype=bool)
        fine[selector] = False
        mc = np.zeros(shape)
        new = np.zeros(shape)
        mc[fine] = coeffs[level]
        corr = mc
        for d in dims:
            lvl = h.dim_level(d, level)
            corr = reference_mass_trans(corr, lvl, d)
        for d in dims:
            corr = factors[d].solve_along(corr, axis=d)
        new[selector] = current - corr
        for d in dims:
            lerp_fill(new, h.dim_level(d, level), d)
        new += mc
        current = new
    return current


shapes = st.integers(1, 4).flatmap(
    lambda nd: st.lists(
        st.sampled_from([3, 5, 7, 9] if nd > 2 else [3, 5, 9, 17, 33]),
        min_size=nd, max_size=nd,
    ).map(tuple)
)


KINDS = ["keep", "+0", "-0", "+-0"]


def _planted(values, kind, rng):
    """Copy of ``values`` with zeros planted: the whole group ``+0.0``,
    ``-0.0`` or mixed-sign zeros; ``"keep"`` zeroes a random fifth."""
    signed_zero = np.array([0.0, -0.0])
    out = values.copy()
    flat = out.reshape(-1)
    if kind == "keep":
        hit = rng.random(flat.size) < 0.2
        flat[hit] = signed_zero[rng.integers(0, 2, size=int(hit.sum()))]
    elif kind == "+-0":
        flat[:] = signed_zero[rng.integers(0, 2, size=flat.size)]
    else:
        flat[:] = -0.0 if kind == "-0" else 0.0
    return out


def _lane(shape, seed, kinds):
    """Decomposed random field; ``kinds[l]`` plants zeros in level ``l``
    and ``kinds[-1]`` in the coarsest approximation."""
    rng = np.random.default_rng(seed)
    h = Hierarchy(shape)
    coeffs, coarsest = decompose(rng.normal(size=shape), h)
    coeffs = [_planted(c, kinds[l], rng) for l, c in enumerate(coeffs)]
    return h, coeffs, _planted(coarsest, kinds[-1], rng)


level_kinds = st.lists(st.sampled_from(KINDS), min_size=8, max_size=8)


@settings(max_examples=120, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**32 - 1), kinds=level_kinds)
# A -0.0 level over a -0.0 coarse grid keeps its -0.0 (x + -0.0), so a
# float ``.any()`` test for "zero level" would flip signs here.
@example(shape=(3,), seed=0, kinds=["-0"] * 8)
def test_skipping_zero_levels_is_bit_exact(shape, seed, kinds):
    h, coeffs, coarsest = _lane(shape, seed, kinds)
    got = recompose(coeffs, coarsest, h)
    want = _reference_recompose(coeffs, coarsest, h)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**31 - 1),
       kinds=st.lists(level_kinds, min_size=2, max_size=3))
def test_batched_lanes_with_mixed_zero_levels_match_single_shot(
    shape, seed, kinds
):
    lanes = [_lane(shape, seed + i, k) for i, k in enumerate(kinds)]
    h = lanes[0][0]
    stacked = [np.stack([lane[1][level] for lane in lanes])
               for level in range(h.total_levels)]
    out = recompose(stacked, np.stack([lane[2] for lane in lanes]), h)
    for i, (_, coeffs, coarsest) in enumerate(lanes):
        assert out[i].tobytes() == recompose(coeffs, coarsest, h).tobytes()


def test_resuming_from_a_carried_grid_equals_one_pass(rng):
    """``recompose_levels`` split at any level is the same arithmetic."""
    shape = (9, 17, 5)
    h = Hierarchy(shape)
    coeffs, coarsest = decompose(rng.normal(size=shape), h)
    whole = recompose(coeffs, coarsest, h).tobytes()
    top = h.total_levels - 1
    for split in range(top + 1):
        carried = recompose_levels(coeffs, coarsest, h, top, split + 1)
        assert carried.shape == h.shape_at(split + 1)
        resumed = recompose_levels(coeffs, carried, h, split)
        assert resumed.tobytes() == whole
