"""MGARD-X compressor: error bounds, formats, CMM integration."""

import numpy as np
import pytest

from repro.core.config import Config, ErrorMode
from repro.core.context import ContextCache
from repro.compressors.mgard.compressor import MGARDX
from repro.compressors.mgard.quantize import from_symbols, to_symbols


class TestErrorBound:
    @pytest.mark.parametrize("eb", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_rel_bound_holds_smooth(self, eb, smooth_3d):
        c = MGARDX(Config(error_bound=eb, error_mode=ErrorMode.REL))
        blob = c.compress(smooth_3d)
        vr = float(smooth_3d.max() - smooth_3d.min())
        assert c.max_error(smooth_3d, blob) <= eb * vr

    def test_abs_bound_holds_random(self, rng):
        data = rng.normal(size=(19, 23))
        c = MGARDX(Config(error_bound=0.03, error_mode=ErrorMode.ABS))
        blob = c.compress(data)
        assert c.max_error(data, blob) <= 0.03

    @pytest.mark.parametrize("shape", [(50,), (13, 17), (9, 8, 7), (5, 4, 6, 3)])
    def test_bound_across_dimensionalities(self, shape, rng):
        data = rng.normal(size=shape)
        c = MGARDX(Config(error_bound=0.01, error_mode=ErrorMode.ABS))
        assert c.max_error(data, c.compress(data)) <= 0.01

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtypes(self, dtype, smooth_2d):
        data = smooth_2d.astype(dtype)
        c = MGARDX(Config(error_bound=1e-3, error_mode=ErrorMode.REL))
        blob = c.compress(data)
        back = c.decompress(blob)
        assert back.dtype == dtype
        assert c.max_error(data, blob) <= 1e-3 * np.ptp(data) + 1e-6

    def test_verify_mode_tightens_until_met(self, rng):
        data = rng.normal(size=(15, 15)) * 100
        c = MGARDX(Config(error_bound=0.5, error_mode=ErrorMode.ABS),
                   kappa=0.01, verify=True)  # absurdly loose kappa
        blob = c.compress(data)
        assert c.max_error(data, blob) <= 0.5

    def test_constant_field(self):
        data = np.full((9, 9), 5.0, dtype=np.float64)
        c = MGARDX(Config(error_bound=1e-3, error_mode=ErrorMode.REL))
        blob = c.compress(data)
        assert c.max_error(data, blob) <= 1e-3


class TestCompressionBehaviour:
    def test_smooth_better_than_random(self, smooth_3d, rng):
        c = MGARDX(Config(error_bound=1e-3, error_mode=ErrorMode.REL))
        smooth_ratio = smooth_3d.nbytes / len(c.compress(smooth_3d))
        noise = rng.normal(size=smooth_3d.shape).astype(np.float32)
        c2 = MGARDX(Config(error_bound=1e-3, error_mode=ErrorMode.REL))
        noise_ratio = noise.nbytes / len(c2.compress(noise))
        assert smooth_ratio > noise_ratio

    def test_looser_bound_better_ratio(self, smooth_3d):
        sizes = []
        for eb in (1e-2, 1e-4):
            c = MGARDX(Config(error_bound=eb, error_mode=ErrorMode.REL))
            sizes.append(len(c.compress(smooth_3d)))
        assert sizes[0] < sizes[1]

    def test_lossless_none_mode(self, rng):
        """lossless='none' stores raw symbols; still bound-correct."""
        data = rng.normal(size=(12, 12))
        c = MGARDX(Config(error_bound=0.01, error_mode=ErrorMode.ABS,
                          lossless="none"))
        assert c.max_error(data, c.compress(data)) <= 0.01

    def test_outlier_channel_roundtrip(self, rng):
        """Spiky data forces escape symbols; the bound must still hold."""
        data = rng.normal(size=(20, 20))
        data[5, 5] = 1e6
        data[10, 3] = -1e6
        c = MGARDX(Config(error_bound=0.5, error_mode=ErrorMode.ABS),
                   dict_size=64)
        assert c.max_error(data, c.compress(data)) <= 0.5


class TestContextCaching:
    def test_repeated_compression_hits_cache(self, smooth_2d):
        cache = ContextCache()
        c = MGARDX(Config(error_bound=1e-3), context_cache=cache)
        c.compress(smooth_2d)
        misses = cache.misses
        c.compress(smooth_2d)
        assert cache.misses == misses  # no new context built

    def test_different_shapes_different_contexts(self, rng):
        cache = ContextCache()
        c = MGARDX(Config(error_bound=1e-3, error_mode=ErrorMode.ABS),
                   context_cache=cache)
        c.compress(rng.normal(size=(8, 8)))
        c.compress(rng.normal(size=(16, 8)))
        assert cache.misses >= 2

    def test_decompress_reuses_compress_context(self, smooth_2d):
        cache = ContextCache()
        c = MGARDX(Config(error_bound=1e-3), context_cache=cache)
        blob = c.compress(smooth_2d)
        misses = cache.misses
        c.decompress(blob)
        assert cache.misses == misses


class TestValidation:
    def test_bad_dtype(self):
        c = MGARDX()
        with pytest.raises(TypeError):
            c.compress(np.zeros((4, 4), dtype=np.int64))

    def test_bad_ndim(self):
        c = MGARDX()
        with pytest.raises(ValueError):
            c.compress(np.zeros((2,) * 5, dtype=np.float32))

    def test_bad_magic(self):
        c = MGARDX()
        with pytest.raises(ValueError):
            c.decompress(b"JUNK" + bytes(128))

    def test_bad_dict_size(self):
        with pytest.raises(ValueError):
            MGARDX(dict_size=1)
        with pytest.raises(ValueError):
            MGARDX(dict_size=1 << 17)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", [ErrorMode.REL, ErrorMode.ABS])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, None])
    def test_refuses_what_it_could_not_read_back(self, bad, mode, dtype):
        """NaN, inf and empty input used to become an ``MGRX`` stream
        the reader rejects (escape markers without outliers) or one of
        two NumPy messages; now one ``ValueError`` before any work."""
        data = np.linspace(0.0, 1.0, 81, dtype=dtype).reshape(9, 9)
        good = data.copy()
        if bad is None:
            data = data[:0]
        else:
            data[4, 5] = bad
        codec = MGARDX(Config(error_bound=1e-2, error_mode=mode))
        match = "non-empty" if bad is None else "finite"
        with pytest.raises(ValueError, match=match):
            codec.compress(data)
        if bad is not None:
            with pytest.raises(ValueError, match=match):
                codec.compress_batch([good, data])
        # The refusal leaves the codec usable.
        assert np.abs(codec.decompress(codec.compress(good)) - good).max() <= 1e-2


class TestSymbolMapping:
    def test_zigzag_roundtrip(self, rng):
        q = rng.integers(-1000, 1000, size=500).astype(np.int64)
        syms, outliers = to_symbols(q, 4096)
        assert np.array_equal(from_symbols(syms, outliers), q)

    def test_outliers_escape(self):
        q = np.array([0, 5, 100000, -3], dtype=np.int64)
        syms, outliers = to_symbols(q, 16)
        assert syms[2] == 0
        assert list(outliers) == [100000]
        assert np.array_equal(from_symbols(syms, outliers), q)

    def test_outlier_count_mismatch_rejected(self):
        q = np.array([100000], dtype=np.int64)
        syms, outliers = to_symbols(q, 16)
        with pytest.raises(ValueError):
            from_symbols(syms, outliers[:0])

    def test_all_values_in_dict(self, rng):
        q = rng.integers(-5, 6, size=100).astype(np.int64)
        syms, outliers = to_symbols(q, 4096)
        assert outliers.size == 0
        assert np.all(syms > 0)


class TestSmoothnessParameter:
    def test_s_zero_matches_default(self, smooth_2d):
        cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
        a = MGARDX(cfg).compress(smooth_2d)
        b = MGARDX(cfg, s=0.0).compress(smooth_2d)
        assert a == b

    @pytest.mark.parametrize("s", [0.5, 1.0, -0.5])
    def test_bound_holds_for_any_s(self, s, rng):
        """The budget redistribution preserves the total error budget."""
        data = rng.normal(size=(21, 17))
        c = MGARDX(Config(error_bound=0.02, error_mode=ErrorMode.ABS), s=s)
        assert c.max_error(data, c.compress(data)) <= 0.02

    def test_s_changes_stream(self, smooth_2d):
        cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
        a = MGARDX(cfg, s=0.0).compress(smooth_2d)
        b = MGARDX(cfg, s=1.0).compress(smooth_2d)
        assert a != b

    def test_positive_s_helps_fine_scale_noise(self, rng):
        """With fine-scale noise on a smooth background, s>0 spends the
        budget where it buys compression: the noisy finest level."""
        x, y = np.meshgrid(*[np.linspace(0, 2 * np.pi, 48)] * 2, indexing="ij")
        data = np.sin(x) * np.cos(y) + 0.002 * rng.normal(size=(48, 48))
        cfg = Config(error_bound=2e-3, error_mode=ErrorMode.REL)
        size0 = len(MGARDX(cfg, s=0.0).compress(data))
        size1 = len(MGARDX(cfg, s=1.0).compress(data))
        assert size1 < size0
