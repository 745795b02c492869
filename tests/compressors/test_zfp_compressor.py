"""ZFP-X fixed-rate compressor end-to-end."""

import numpy as np
import pytest

from repro.adapters import list_adapters
from repro.compressors.zfp import ZFPX, rate_for_error_bound


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(64,), (16, 20), (9, 10, 11), (4, 4, 4, 4)])
    def test_high_rate_small_error(self, dtype, shape, rng):
        data = rng.normal(size=shape).astype(dtype)
        z = ZFPX(rate=28.0)
        back = z.decompress(z.compress(data))
        assert back.shape == data.shape
        assert back.dtype == data.dtype
        vr = float(data.max() - data.min())
        assert np.max(np.abs(back - data)) < 1e-4 * vr

    def test_error_monotone_in_rate(self, smooth_3d):
        errs = []
        for rate in (4, 8, 16, 28):
            z = ZFPX(rate=rate)
            back = z.decompress(z.compress(smooth_3d))
            errs.append(float(np.max(np.abs(back - smooth_3d))))
        assert all(a >= b * 0.999 for a, b in zip(errs, errs[1:]))

    def test_smooth_data_low_rate_decent(self, smooth_3d, rng):
        """Smooth fields survive aggressive rates far better than noise
        (the decorrelating transform works).  Note: this codec
        serializes raw truncated bitplanes — the design the paper
        describes for ZFP-X — not zfp's embedded group-testing, so its
        rate-distortion sits above the reference codec's."""
        z = ZFPX(rate=6)
        back = z.decompress(z.compress(smooth_3d))
        vr = float(smooth_3d.max() - smooth_3d.min())
        smooth_err = np.max(np.abs(back - smooth_3d)) / vr
        assert smooth_err < 0.35
        noise = rng.normal(size=smooth_3d.shape).astype(np.float32)
        nb = z.decompress(z.compress(noise))
        noise_err = np.max(np.abs(nb - noise)) / float(noise.max() - noise.min())
        assert smooth_err < noise_err

    def test_constant_field_exact(self):
        data = np.full((8, 8, 8), 3.25, dtype=np.float32)
        z = ZFPX(rate=8)
        back = z.decompress(z.compress(data))
        assert np.allclose(back, data, atol=1e-6)

    def test_zero_field_exact(self):
        data = np.zeros((8, 8), dtype=np.float64)
        z = ZFPX(rate=4)
        assert np.all(z.decompress(z.compress(data)) == 0)

    def test_negative_values(self, rng):
        data = -np.abs(rng.normal(size=(12, 12)).astype(np.float64)) * 1e6
        z = ZFPX(rate=32)
        back = z.decompress(z.compress(data))
        assert np.max(np.abs(back - data)) < 1e-3 * np.abs(data).max()


class TestFixedRateProperty:
    def test_stream_size_is_rate_determined(self, rng):
        """Fixed rate: stream size depends only on shape, not content."""
        z = ZFPX(rate=8)
        a = z.compress(rng.normal(size=(32, 32)).astype(np.float32))
        b = z.compress(np.zeros((32, 32), dtype=np.float32))
        assert len(a) == len(b)

    def test_expected_ratio(self):
        z = ZFPX(rate=8)
        # fp32, 3-D: 32 bits/value → 8 bits/value ≈ 4× (modulo padding)
        r = z.expected_ratio(3, np.float32)
        assert 3.5 < r < 4.5

    def test_actual_matches_expected_on_aligned_shape(self, rng):
        z = ZFPX(rate=8)
        data = rng.normal(size=(32, 32, 32)).astype(np.float32)
        blob = z.compress(data)
        actual = z.compression_ratio(data, blob)
        assert abs(actual - z.expected_ratio(3, np.float32)) < 0.5


class TestValidation:
    def test_bad_rate(self):
        with pytest.raises(ValueError):
            ZFPX(rate=0)
        with pytest.raises(ValueError):
            ZFPX(rate=100)

    def test_bad_dtype(self):
        z = ZFPX()
        with pytest.raises(TypeError):
            z.compress(np.zeros((4, 4), dtype=np.int32))

    def test_bad_ndim(self):
        z = ZFPX()
        with pytest.raises(ValueError):
            z.compress(np.zeros((2, 2, 2, 2, 2), dtype=np.float32))

    def test_bad_magic(self):
        z = ZFPX()
        with pytest.raises(ValueError):
            z.decompress(b"NOPE" + bytes(64))


class TestRateHeuristic:
    def test_tighter_bound_higher_rate(self):
        assert rate_for_error_bound(1e-6) > rate_for_error_bound(1e-2)

    def test_rate_bounds(self):
        assert rate_for_error_bound(0.5) >= 2
        assert rate_for_error_bound(1e-12, np.float32) <= 34

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            rate_for_error_bound(0.0)
        with pytest.raises(ValueError):
            rate_for_error_bound(2.0)

    def test_achieves_target_on_smooth_data(self, smooth_3d):
        """The heuristic rate should deliver roughly the requested
        relative error on smooth data."""
        for eb in (1e-2, 1e-4):
            rate = rate_for_error_bound(eb, np.float32, ndim=3)
            z = ZFPX(rate=rate)
            back = z.decompress(z.compress(smooth_3d))
            vr = float(smooth_3d.max() - smooth_3d.min())
            assert np.max(np.abs(back - smooth_3d)) <= eb * vr * 8


class TestAdapterPortability:
    @pytest.mark.parametrize("family", list_adapters())
    def test_bitstreams_identical(self, family, rng):
        from repro.adapters import get_adapter

        data = rng.normal(size=(17, 23)).astype(np.float32)
        ref = ZFPX(rate=12).compress(data)
        alt = ZFPX(rate=12, adapter=get_adapter(family)).compress(data)
        assert ref == alt

    def test_cross_decode(self, rng):
        from repro.adapters import get_adapter

        data = rng.normal(size=(10, 10, 10)).astype(np.float64)
        blob = ZFPX(rate=20, adapter=get_adapter("hip")).compress(data)
        back = ZFPX(rate=20, adapter=get_adapter("serial")).decompress(blob)
        assert np.max(np.abs(back - data)) < 1e-4 * np.ptp(data)


@pytest.mark.parametrize("shape,n", [((32, 32), 8), ((30, 33), 8),
                                     ((12, 9, 7), 1), ((12, 9, 7), 3)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_is_blockized_whole_and_matches_one_at_a_time(shape, n, dtype):
    """The flush is blockized and unblockized in one call each (a padded
    edge included): every stream and every decoded array is the one a
    batch of one gives."""
    rng = np.random.default_rng(n * 100 + len(shape))
    arrays = [rng.normal(size=shape).astype(dtype) for _ in range(n)]
    codec = ZFPX(rate=10)
    blobs = codec.compress_batch(arrays)
    assert blobs == [codec.compress(a) for a in arrays]
    backs = codec.decompress_batch(blobs)
    for back, blob in zip(backs, blobs):
        want = codec.decompress(blob)
        assert back.shape == shape and back.dtype == dtype
        assert back.tobytes() == want.tobytes()
