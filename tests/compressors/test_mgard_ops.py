"""MGARD 1-D operators: lerp, mass matrix + restriction (``mass_trans``),
prolongation, Thomas solver."""

import numpy as np
import pytest

from repro.compressors.mgard.hierarchy import DimHierarchy
from repro.compressors.mgard.ops1d import (
    TridiagFactors,
    lerp_fill,
    mass_trans,
    prolong,
)


def mass_matrix(coords: np.ndarray) -> np.ndarray:
    """Dense P1 mass matrix for verification."""
    n = coords.size
    h = np.diff(coords)
    M = np.zeros((n, n))
    for i in range(n - 1):
        M[i, i] += h[i] / 3
        M[i + 1, i + 1] += h[i] / 3
        M[i, i + 1] += h[i] / 6
        M[i + 1, i] += h[i] / 6
    return M


class TestLerpFill:
    def test_linear_function_reproduced_exactly(self):
        """P1 interpolation is exact on linear data → coefficients 0."""
        lvl = DimHierarchy(17).level(0)
        u = 3.0 * np.arange(17) + 2.0
        approx = u.copy()
        lerp_fill(approx, lvl, 0)
        assert np.allclose(approx, u)

    def test_2d_axis_selection(self, rng):
        lvl = DimHierarchy(9).level(0)
        u = rng.normal(size=(9, 4))
        v = u.copy()
        lerp_fill(v, lvl, 0)
        # Coarse rows untouched; fine rows replaced by neighbor means.
        assert np.allclose(v[lvl.coarse_idx], u[lvl.coarse_idx])
        assert np.allclose(v[1], 0.5 * (u[0] + u[2]))

    def test_nonuniform_weights(self):
        coords = np.array([0.0, 0.25, 1.0])
        lvl = DimHierarchy(3, coords).level(0)
        u = np.array([0.0, 99.0, 4.0])
        lerp_fill(u, lvl, 0)
        assert u[1] == pytest.approx(1.0)  # 0 + 0.25 * (4 - 0)


def prolongation_matrix(lvl) -> np.ndarray:
    """Dense interpolation P (fine x coarse), column by column."""
    return np.stack(
        [prolong(e, lvl, 0) for e in np.eye(lvl.n_coarse)], axis=1
    )


class TestMassApply:
    """``mass_trans`` is the mass matrix followed by P^T."""

    def test_matches_dense_matrix(self, rng):
        for n in (5, 8, 13):
            d = DimHierarchy(n)
            lvl = d.level(0)
            u = rng.normal(size=n)
            b = mass_trans(u, lvl, 0)
            dense = prolongation_matrix(lvl).T @ mass_matrix(lvl.coords)
            assert np.allclose(b, dense @ u)

    def test_along_second_axis(self, rng):
        d = DimHierarchy(7)
        lvl = d.level(0)
        u = rng.normal(size=(3, 7))
        b = mass_trans(u, lvl, 1)
        dense = prolongation_matrix(lvl).T @ mass_matrix(lvl.coords)
        assert np.allclose(b, u @ dense.T)


class TestRestrictProlong:
    def test_restrict_is_prolong_transpose(self, rng):
        """⟨P^T M y, b⟩ = ⟨M y, P b⟩ — adjointness on random vectors."""
        d = DimHierarchy(11)
        lvl = d.level(0)
        y = rng.normal(size=11)
        b = rng.normal(size=lvl.n_coarse)
        lhs = np.dot(mass_trans(y, lvl, 0), b)
        rhs = np.dot(mass_matrix(lvl.coords) @ y, prolong(b, lvl, 0))
        assert lhs == pytest.approx(rhs)

    def test_prolong_shape(self, rng):
        lvl = DimHierarchy(9).level(0)
        b = rng.normal(size=(5,))
        assert prolong(b, lvl, 0).shape == (9,)

    def test_restrict_multi_axis(self, rng):
        d0, d1 = DimHierarchy(9), DimHierarchy(7)
        u = rng.normal(size=(9, 7))
        r0 = mass_trans(u, d0.level(0), 0)
        assert r0.shape == (5, 7)
        r01 = mass_trans(r0, d1.level(0), 1)
        assert r01.shape == (5, 4)


class TestTridiagSolve:
    def test_solver_matches_numpy(self, rng):
        for n in (2, 3, 5, 9, 17):
            coords = np.sort(rng.uniform(0, 10, size=n))
            f = TridiagFactors.from_coords(coords)
            M = mass_matrix(coords)
            b = rng.normal(size=n)
            x = f.solve_along(b, axis=0)
            assert np.allclose(x, np.linalg.solve(M, b), rtol=1e-10)

    def test_solve_along_higher_axis(self, rng):
        coords = np.arange(9.0)
        f = TridiagFactors.from_coords(coords)
        M = mass_matrix(coords)
        b = rng.normal(size=(4, 9, 3))
        x = f.solve_along(b, axis=1)
        expect = np.einsum("ij,ajb->aib", np.linalg.inv(M), b)
        assert np.allclose(x, expect)

    def test_length_mismatch(self, rng):
        f = TridiagFactors.from_coords(np.arange(5.0))
        with pytest.raises(ValueError):
            f.solve_along(rng.normal(size=4), axis=0)

    def test_solve_uses_iterative_abstraction(self, rng, launch_spans):
        """The solve dispatches through a device adapter (GEM groups)."""
        from repro.adapters import get_adapter

        f = TridiagFactors.from_coords(np.arange(9.0))
        f.solve_along(rng.normal(size=(9, 20)), axis=0,
                      adapter=get_adapter("cuda"))
        assert "gem.mgard.tridiag" in [e.name for e in launch_spans()]
