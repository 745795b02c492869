"""ZFP building blocks: fixed point, lifting transform, negabinary,
bitplane coding."""

import numpy as np
import pytest

from repro.compressors.zfp.bitplane import (
    INTPREC,
    decode_blocks,
    encode_blocks,
    from_negabinary,
    to_negabinary,
)
from repro.compressors.zfp.fixedpoint import (
    block_exponents,
    from_fixed_point,
    to_fixed_point,
)
from repro.compressors.zfp.transform import (
    fwd_lift,
    fwd_transform,
    inv_lift,
    inv_transform,
    sequency_order,
)


class TestFixedPoint:
    """Block batches are coefficient-major: ``(block_size, nblocks)``."""

    def test_exponent_bounds_magnitude(self, rng):
        blocks = rng.normal(size=(64, 20)).astype(np.float32) * 100
        emax = block_exponents(blocks)
        assert emax.shape == (20,)
        assert np.all(np.abs(blocks).max(axis=0) < 2.0 ** emax.astype(np.float64))

    def test_zero_block_exponent(self):
        blocks = np.zeros((16, 2), dtype=np.float32)
        emax = block_exponents(blocks)
        assert np.all(emax == -126)  # clipped to -bias+1

    def test_fixed_point_magnitude_under_q(self, rng):
        for dt, q in ((np.float32, 30), (np.float64, 62)):
            blocks = (rng.normal(size=(64, 10)) * 1e5).astype(dt)
            emax = block_exponents(blocks)
            ib = to_fixed_point(blocks, emax)
            assert ib.dtype == np.int64 and ib.flags.c_contiguous
            assert np.all(np.abs(ib) < 2**q)

    def test_fixed_point_of_a_transposed_view_is_contiguous(self, rng):
        """Callers hand in ``batch.reshape(n, -1).T``; the in-place
        transform needs a C-contiguous batch back."""
        blocks = rng.normal(size=(10, 64)).astype(np.float32).T
        ib = to_fixed_point(blocks, block_exponents(blocks))
        assert ib.shape == (64, 10) and ib.flags.c_contiguous

    def test_roundtrip_precision(self, rng):
        blocks = rng.normal(size=(64, 10)).astype(np.float64)
        emax = block_exponents(blocks)
        back = from_fixed_point(to_fixed_point(blocks, emax), emax, np.float64)
        # Truncation error ≤ 1 ulp of the fixed-point grid.
        scale = 2.0 ** (emax.astype(np.float64) - 62)
        assert np.all(np.abs(back - blocks) <= scale * 1.0001)

    def test_unsupported_dtype(self):
        with pytest.raises(TypeError):
            to_fixed_point(np.zeros((4, 1), dtype=np.int32), np.zeros(1, np.int32))


class TestLifting:
    def test_fwd_lift_requires_length4(self):
        """A batch is ``(4**ndim, nblocks)``: any other row count has no
        four slices per block axis."""
        with pytest.raises(ValueError):
            fwd_transform(np.zeros((3, 2), dtype=np.int64), 1)
        with pytest.raises(ValueError):
            inv_transform(np.zeros((5, 2), dtype=np.int64), 1)
        with pytest.raises(ValueError):
            fwd_transform(np.zeros((16,), dtype=np.int64), 2)

    def test_transform_refuses_a_batch_it_could_only_lift_a_copy_of(self):
        with pytest.raises(ValueError, match="contiguous"):
            fwd_transform(np.zeros((7, 16), dtype=np.int64).T, 2)

    def test_lift_nearly_invertible(self, rng):
        """zfp's lifting drops low bits in shifts: |error| stays tiny."""
        v = rng.integers(-(2**28), 2**28, size=(4, 100)).astype(np.int64)
        work = v.copy()
        fwd_lift(*work)
        assert not np.array_equal(work, v)      # lifted where it stands
        inv_lift(*work)
        assert np.abs(work - v).max() <= 4

    def test_transform_error_negligible_at_scale(self, rng):
        """Relative transform error is ~2^-26 of the fixed-point range."""
        for ndim in (1, 2, 3):
            ib = rng.integers(-(2**29), 2**29, size=(4**ndim, 50)).astype(np.int64)
            coeffs = fwd_transform(ib.copy(), ndim)
            before = coeffs.copy()
            back = inv_transform(coeffs, ndim)
            assert np.array_equal(coeffs, before)   # the inverse copies
            assert np.abs(back - ib).max() <= 64

    def test_transform_decorrelates_smooth_ramp(self):
        """A linear ramp concentrates energy in low-sequency coeffs."""
        ramp = np.arange(64, dtype=np.int64).reshape(64, 1) * 1000
        coeffs = fwd_transform(ramp, 3)
        head = np.abs(coeffs[:8, 0]).sum()
        tail = np.abs(coeffs[32:, 0]).sum()
        assert head > tail

    def test_sequency_order_is_permutation(self):
        for ndim in (1, 2, 3, 4):
            p = sequency_order(ndim)
            assert sorted(p) == list(range(4**ndim))

    def test_sequency_order_starts_with_dc(self):
        for ndim in (1, 2, 3):
            assert sequency_order(ndim)[0] == 0

    def test_sequency_bad_ndim(self):
        with pytest.raises(ValueError):
            sequency_order(5)


class TestNegabinary:
    @pytest.mark.parametrize("width", [32, 64])
    def test_roundtrip(self, width, rng):
        lim = 2 ** (width - 2)
        x = rng.integers(-lim, lim, size=5000).astype(np.int64)
        assert np.array_equal(from_negabinary(to_negabinary(x, width), width), x)

    def test_small_values_have_leading_zeros(self):
        """The property zfp exploits: small |x| → high bits zero."""
        x = np.array([0, 1, -1, 2, -2, 3, -3], dtype=np.int64)
        neg = to_negabinary(x, 32)
        assert np.all(neg < 16)

    def test_zero_maps_to_zero(self):
        assert to_negabinary(np.array([0]), 64)[0] == 0


class TestBitplaneCoding:
    def test_full_rate_roundtrip_fp32(self, rng):
        coeffs = rng.integers(-(2**20), 2**20, size=(16, 30)).astype(np.int64)
        emax = rng.integers(-10, 10, size=30).astype(np.int32)
        maxbits = 1 + 8 + 32 * 16  # full precision
        before = coeffs.copy()
        rec = encode_blocks(coeffs, emax, maxbits, np.float32)
        assert np.array_equal(coeffs, before)
        c2, e2 = decode_blocks(rec, maxbits, 16, np.float32)
        assert np.array_equal(c2, coeffs)
        assert np.array_equal(e2, emax)

    def test_truncation_shrinks_magnitude_error(self, rng):
        coeffs = rng.integers(-(2**24), 2**24, size=(16, 50)).astype(np.int64)
        emax = np.zeros(50, dtype=np.int32)
        errs = []
        for planes in (8, 16, 24, 32):
            maxbits = 1 + 8 + planes * 16
            rec = encode_blocks(coeffs, emax, maxbits, np.float32)
            c2, _ = decode_blocks(rec, maxbits, 16, np.float32)
            errs.append(np.abs(c2 - coeffs).max())
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_records_have_fixed_size(self, rng):
        coeffs = rng.integers(-100, 100, size=(64, 7)).astype(np.int64)
        emax = np.zeros(7, dtype=np.int32)
        rec = encode_blocks(coeffs, emax, 515, np.float32)
        assert rec.shape == (7, -(-515 // 8)) and rec.flags.c_contiguous

    def test_zero_block_flag(self):
        coeffs = np.zeros((16, 3), dtype=np.int64)
        emax = np.full(3, -127, dtype=np.int32)
        rec = encode_blocks(coeffs, emax, 64, np.float32)
        assert np.all(rec == 0)
        c2, _ = decode_blocks(rec, 64, 16, np.float32)
        assert c2.shape == (16, 3) and np.all(c2 == 0)

    def test_header_must_fit(self):
        with pytest.raises(ValueError):
            encode_blocks(np.zeros((16, 1), dtype=np.int64),
                          np.zeros(1, dtype=np.int32), 8, np.float32)
