"""cuSZ-style baseline: dual-quantized Lorenzo + Huffman."""

import numpy as np
import pytest

from repro.core.config import Config, ErrorMode
from repro.compressors.baselines.sz import SZ, lorenzo_forward, lorenzo_inverse


class TestLorenzo:
    @pytest.mark.parametrize("shape", [(64,), (9, 13), (5, 6, 7), (3, 4, 5, 2)])
    def test_forward_inverse_exact(self, shape, rng):
        xq = rng.integers(-1000, 1000, size=shape).astype(np.int64)
        assert np.array_equal(lorenzo_inverse(lorenzo_forward(xq)), xq)

    def test_1d_is_first_difference(self):
        xq = np.array([3, 5, 4, 4], dtype=np.int64)
        assert np.array_equal(lorenzo_forward(xq), [3, 2, -1, 0])

    def test_2d_mixed_difference(self):
        xq = np.arange(9, dtype=np.int64).reshape(3, 3)
        delta = lorenzo_forward(xq)
        # interior of a bilinear ramp has zero mixed difference
        assert np.all(delta[1:, 1:] == 0)

    def test_smooth_data_small_deltas(self, smooth_2d):
        xq = np.round(smooth_2d / 0.01).astype(np.int64)
        delta = lorenzo_forward(xq)
        assert np.abs(delta[1:, 1:]).mean() < np.abs(xq).mean()


class TestSZCompressor:
    @pytest.mark.parametrize("eb", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_rel_error_bound_guaranteed(self, eb, smooth_3d):
        sz = SZ(Config(error_bound=eb, error_mode=ErrorMode.REL))
        blob = sz.compress(smooth_3d)
        vr = float(smooth_3d.max() - smooth_3d.min())
        assert sz.max_error(smooth_3d, blob) <= eb * vr

    def test_abs_bound_on_random_data(self, rng):
        data = rng.normal(size=(31, 17)) * 50
        sz = SZ(Config(error_bound=0.1, error_mode=ErrorMode.ABS))
        assert sz.max_error(data, sz.compress(data)) <= 0.1

    def test_bound_is_exact_by_construction(self, rng):
        """Even adversarial data satisfies |x - x'| ≤ eb exactly."""
        data = rng.uniform(-1, 1, size=1000) * 10.0 ** rng.integers(-3, 4, size=1000)
        data = data.astype(np.float64)
        sz = SZ(Config(error_bound=1e-3, error_mode=ErrorMode.ABS))
        assert sz.max_error(data, sz.compress(data)) <= 1e-3

    def test_float32_output_adds_half_an_ulp(self):
        """The bound is ``eb`` in float64 and ``eb + ½ ulp`` after the cast
        to float32: on this seeded field one value lands on the bound and
        the cast rounds it across."""
        eb = 1e-4
        data = np.random.default_rng(1).normal(size=(64, 64)).astype(np.float32)
        sz = SZ(Config(error_bound=eb, error_mode=ErrorMode.ABS))
        back = sz.decompress(sz.compress(data))
        assert back.dtype == np.float32
        err = np.abs(back.astype(np.float64) - data.astype(np.float64))
        assert err.max() > eb
        assert np.all(err <= eb + np.spacing(np.abs(back)).astype(np.float64) / 2)
        assert sz.max_error(data.astype(np.float64),
                            sz.compress(data.astype(np.float64))) <= eb

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_preserved(self, dtype, smooth_2d):
        data = smooth_2d.astype(dtype)
        sz = SZ(Config(error_bound=1e-3))
        back = sz.decompress(sz.compress(data))
        assert back.dtype == dtype
        assert back.shape == data.shape

    def test_smooth_data_compresses_well(self, smooth_3d):
        sz = SZ(Config(error_bound=1e-2, error_mode=ErrorMode.REL))
        blob = sz.compress(smooth_3d)
        assert sz.compression_ratio(smooth_3d, blob) > 4

    def test_looser_bound_better_ratio(self, smooth_3d):
        r = []
        for eb in (1e-2, 1e-4):
            sz = SZ(Config(error_bound=eb, error_mode=ErrorMode.REL))
            r.append(sz.compression_ratio(smooth_3d, sz.compress(smooth_3d)))
        assert r[0] > r[1]

    def test_constant_field_tiny_stream(self):
        data = np.full((64, 64), 2.5, dtype=np.float32)
        sz = SZ(Config(error_bound=1e-3))
        blob = sz.compress(data)
        # One-symbol Huffman floors at 1 bit/value (512 B for 4096
        # values) plus a ~100 B header.
        assert len(blob) < data.nbytes / 20

    def test_1d_and_4d(self, rng):
        for shape in [(200,), (4, 5, 6, 7)]:
            data = rng.normal(size=shape)
            sz = SZ(Config(error_bound=0.01, error_mode=ErrorMode.ABS))
            assert sz.max_error(data, sz.compress(data)) <= 0.01

    def test_bad_dtype(self):
        with pytest.raises(TypeError):
            SZ().compress(np.zeros(4, dtype=np.int32))

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            SZ().decompress(b"NOPE" + bytes(64))
