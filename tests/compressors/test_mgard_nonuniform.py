"""MGARD-X on non-uniform tensor grids (a core MGARD capability)."""

import numpy as np
import pytest

from repro import Config, ErrorMode, MGARDX
from repro.compressors.mgard.decompose import decompose, recompose
from repro.compressors.mgard.hierarchy import Hierarchy


def stretched_coords(n: int, power: float = 2.0) -> np.ndarray:
    """Boundary-refined grid (classic CFD clustering)."""
    u = np.linspace(0, 1, n)
    return u**power


class TestNonUniformDecompose:
    def test_roundtrip_exact(self, rng):
        shape = (17, 12)
        coords = (stretched_coords(17), stretched_coords(12, 1.5))
        h = Hierarchy(shape, coords)
        data = rng.normal(size=shape)
        c, g = decompose(data, h)
        back = recompose(c, g, h)
        assert np.max(np.abs(back - data)) < 1e-9

    def test_linear_function_exact_on_any_grid(self):
        coords = (stretched_coords(21, 3.0),)
        h = Hierarchy((21,), coords)
        data = 5.0 * coords[0] + 1.0  # linear in physical space
        cfs, _ = decompose(data, h)
        for c in cfs:
            assert np.max(np.abs(c)) < 1e-10

    def test_uniform_and_nonuniform_differ(self, rng):
        data = rng.normal(size=(17,))
        hu = Hierarchy((17,))
        hn = Hierarchy((17,), (stretched_coords(17),))
        cu, _ = decompose(data, hu)
        cn, _ = decompose(data, hn)
        assert not np.allclose(cu[0], cn[0])


class TestNonUniformCompressor:
    def test_bound_holds_on_stretched_grid(self, rng):
        shape = (25, 19)
        coords = (stretched_coords(25), stretched_coords(19, 2.5))
        data = rng.normal(size=shape)
        c = MGARDX(Config(error_bound=0.02, error_mode=ErrorMode.ABS))
        blob = c.compress(data, coords=coords)
        back = c.decompress(blob, coords=coords)
        assert np.max(np.abs(back - data)) <= 0.02

    def test_smooth_physical_field_compresses_better_with_true_grid(self):
        """A field smooth in *physical* space looks rough on index space
        near the refined boundary; the true coordinates recover the
        smoothness and with it compression ratio."""
        n = 65
        x = stretched_coords(n, 3.0)
        data = np.sin(6.0 * x)
        cfg = Config(error_bound=1e-4, error_mode=ErrorMode.REL)
        with_grid = MGARDX(cfg)
        blob_grid = with_grid.compress(data, coords=(x,))
        without = MGARDX(cfg)
        blob_index = without.compress(data)
        assert len(blob_grid) <= len(blob_index)

    def test_coords_cached_separately(self, rng):
        data = rng.normal(size=(17,))
        c = MGARDX(Config(error_bound=0.1, error_mode=ErrorMode.ABS))
        c.compress(data)
        misses = c.cache.misses
        c.compress(data, coords=(stretched_coords(17),))
        assert c.cache.misses > misses  # different hierarchy context

    def test_coords_validation(self, rng):
        data = rng.normal(size=(8, 8))
        c = MGARDX()
        with pytest.raises(ValueError):
            c.compress(data, coords=(np.arange(8.0),))  # wrong count
        with pytest.raises(ValueError):
            c.compress(data, coords=(np.arange(8.0), np.arange(7.0)))
        with pytest.raises(ValueError):
            # non-monotone coordinates rejected by the hierarchy
            bad = np.array([0.0, 2.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0])
            c.compress(data, coords=(bad, np.arange(8.0)))


def test_coordinate_sets_never_share_a_context(monkeypatch, rng):
    """The grid context is keyed by the coordinates themselves: two
    coordinate sets whose hashes collide still get a hierarchy each."""
    import repro.compressors.mgard.compressor as mgard_module

    monkeypatch.setattr(mgard_module, "hash", lambda _: 0, raising=False)
    data = rng.normal(size=(25, 19))
    a = (stretched_coords(25), stretched_coords(19, 2.5))
    b = (stretched_coords(25, 3.0), stretched_coords(19, 1.5))
    cfg = Config(error_bound=0.02, error_mode=ErrorMode.ABS)
    shared = MGARDX(cfg)
    shared.compress(data, coords=a)
    assert shared.compress(data, coords=b) == MGARDX(cfg).compress(data, coords=b)
