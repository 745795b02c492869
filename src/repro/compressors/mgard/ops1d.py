"""Coordinate-aware 1-D operators for the multilevel transform.

All operators act along one axis of an N-D array (the decomposition is a
tensor product, so N-D behaviour is the composition of 1-D passes):

* :func:`lerp_fill` — overwrite fine-only nodes with the linear
  interpolation of their coarse neighbors (the ``lerp`` kernel of
  Algorithm 1, line 6).
* :func:`mass_trans` — multiply by the piecewise-linear FEM mass matrix
  of the fine grid (tridiagonal, non-uniform spacing), then apply the
  interpolation transpose P^T, folding fine values into coarse
  positions: the paper's ``mass_trans`` kernel (line 8).
* :class:`TridiagFactors` — prefactored Thomas solver for the coarse
  mass matrix (line 9); the sweep is sequential per vector, so it runs
  under the Iterative abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compressors.mgard.hierarchy import DimLevel
from repro.core.abstractions import iterative
from repro.core.functor import IterativeFunctor
from repro.util import hot_path, move_axis


def _bshape(w: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a per-node weight vector for axis-0 broadcasting."""
    return w.reshape((-1,) + (1,) * (ndim - 1))


@hot_path(reason="per-level lerp kernel of Algorithm 1 (every axis pass)")
def lerp_fill(u: np.ndarray, level: DimLevel, axis: int) -> None:
    """In place: fine-only nodes ← lerp of coarse neighbors, along axis."""
    v = move_axis(u, axis, 0)
    nd = v.ndim
    stop = 2 * level.nf
    t = _bshape(level.wl, nd) * v[0:stop:2]
    t += _bshape(level.wr, nd) * v[2 : stop + 1 : 2]
    v[1:stop:2] = t


def _mass_rows(v, h, first: int, count: int, out, tmp) -> None:
    """Interior mass-matrix rows ``first, first + 2, ...`` (``count`` of
    them) of ``v`` into ``out``, with ``tmp`` (same shape) as scratch.

    Row i: ``(h_{i-1}(u_{i-1} + 2u_i) + h_i(2u_i + u_{i+1})) / 6``, each
    bracket and product rounded exactly as written: ``2u_i`` is exact,
    so computing it once per bracket changes no bit.
    """
    stop = first + 2 * count
    mid = v[first:stop:2]
    np.multiply(mid, 2.0, out=out)
    np.add(v[first - 1 : stop - 1 : 2], out, out=out)
    np.multiply(h[first - 1 : stop - 1 : 2], out, out=out)
    np.multiply(mid, 2.0, out=tmp)
    tmp += v[first + 1 : stop + 1 : 2]
    np.multiply(h[first:stop:2], tmp, out=tmp)
    out += tmp
    out /= 6.0


def mass_trans(u: np.ndarray, level: DimLevel, axis: int) -> np.ndarray:
    """Fine-grid mass matrix, then the interpolation transpose P^T,
    along ``axis``: fine → coarse size (the paper's ``mass_trans``).

    The mass matrix is tridiagonal with non-uniform spacing — row i is
    ``(h_{i-1}(u_{i-1} + 2u_i) + h_i(2u_i + u_{i+1})) / 6`` with
    single-sided boundary rows — and P^T keeps the coarse rows and folds
    each fine-only row into its neighbours:
    ``b_j = y[coarse_j] + wl_j·y_f(j) + wr_{j-1}·y_f(j-1)``, the left
    contributions added before the right ones.  So the coarse rows of
    the mass product go straight into the result and only the fine-only
    rows — half the grid — are held; every element sees the same
    operations in the same order as the two passes composed, so the
    result is bit-equal to them.  ``u`` is a float64 working grid and is
    only read.
    """
    v = move_axis(u, axis, 0)
    nd = v.ndim
    h = _bshape(level.h, nd)        # h_i between node i and i+1
    nf = level.nf
    # Allocated in u's own axis order, so the result stays C-contiguous
    # for the next dimension's pass.
    b = np.empty((level.n_coarse,) + v.shape[1:], dtype=v.dtype)
    # Interior even rows 2, 4, ... land at coarse positions 1, 2, ...;
    # the first and last nodes are the boundary rows (the last node is
    # coarse whether n is odd or even).
    neven = (v.shape[0] - 2) // 2
    yf = np.empty((nf,) + v.shape[1:], dtype=v.dtype)
    tmp = np.empty((max(nf, neven),) + v.shape[1:], dtype=v.dtype)
    _mass_rows(v, h, 2, neven, b[1 : 1 + neven], tmp[:neven])
    b[0] = h[0] * (2.0 * v[0] + v[1]) / 6.0
    b[-1] = h[-1] * (v[-2] + 2.0 * v[-1]) / 6.0
    _mass_rows(v, h, 1, nf, yf, tmp[:nf])
    np.multiply(_bshape(level.wl, nd), yf, out=tmp[:nf])
    b[0:nf] += tmp[:nf]
    np.multiply(_bshape(level.wr, nd), yf, out=yf)
    b[1 : nf + 1] += yf
    return move_axis(b, 0, axis)


def prolong(b: np.ndarray, level: DimLevel, axis: int, out_dtype=None) -> np.ndarray:
    """Interpolation P along ``axis``: coarse → fine size.

    Coarse values copy to their fine positions; fine-only nodes get the
    lerp of their neighbors (used when applying corrections back onto
    the fine grid is expressed explicitly; decompose/recompose use
    :func:`lerp_fill` on views instead).
    """
    v = move_axis(b, axis, 0)
    out = np.zeros((level.n,) + v.shape[1:], dtype=out_dtype or b.dtype)
    evens = out[0::2]
    evens[...] = v[: evens.shape[0]]
    if level.n % 2 == 0:
        out[-1] = v[-1]
    lerp_fill(out, level, 0)
    return move_axis(out, 0, axis)


class _ThomasFunctor(IterativeFunctor):
    """Iterative-abstraction kernel: prefactored Thomas sweeps.

    Forward/backward recurrences are sequential along each vector (the
    reason Algorithm 1 needs the Iterative abstraction) and vectorized
    across the vectors in a group: each step is one contiguous row of a
    sweep-major ``(n, nvec)`` copy, and each coefficient a 0-d array (a
    NumPy scalar is converted on every call).
    """

    name = "mgard.tridiag"

    def __init__(self, dprime: np.ndarray, c: np.ndarray) -> None:
        self._dprime = dprime
        self._c = c
        self._w = np.empty_like(dprime)
        self._w[0] = 0.0
        if c.size:
            self._w[1:] = c / dprime[:-1]
        self._coef = [tuple(map(np.asarray, v)) for v in (self._w, c, dprime)]

    @hot_path(reason="Thomas sweeps dominate the mgard correction solve")
    def apply(self, vectors: np.ndarray) -> np.ndarray:
        nvec, n = vectors.shape
        if n != self._dprime.size:
            raise ValueError(
                f"vector length {n} != factored system size {self._dprime.size}"
            )
        # The sweep updates in place; the copy keeps apply() pure so the
        # iterative staging buffer can be reused across vector groups.
        # It is the transpose, plus one scratch row for the products.
        # hpdrlint: disable=HPL001 — purity copy required by the contract
        x = np.empty((n + 1, nvec), dtype=np.float64)
        np.copyto(x[:n], vectors.T)
        rows, t = list(x[:n]), x[n]
        w, c, dp = self._coef
        for i in range(1, n):
            np.multiply(w[i], rows[i - 1], out=t)
            np.subtract(rows[i], t, out=rows[i])
        np.divide(rows[-1], dp[-1], out=rows[-1])
        for i in range(n - 2, -1, -1):
            np.multiply(c[i], rows[i + 1], out=t)
            np.subtract(rows[i], t, out=rows[i])
            np.divide(rows[i], dp[i], out=rows[i])
        return x[:n].T


@dataclass
class TridiagFactors:
    """LU factorization of a coarse-grid mass matrix.

    The sweep kernel (with its forward multipliers ``c / dprime``) is
    built once with the factors, not on every solve.
    """

    dprime: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        self._sweeps = _ThomasFunctor(self.dprime, self.c)

    @classmethod
    def from_coords(cls, coords: np.ndarray) -> "TridiagFactors":
        """Factor the P1 mass matrix of the grid ``coords``."""
        n = coords.size
        if n < 2:
            return cls(
                dprime=np.ones(max(n, 1), dtype=np.float64),
                c=np.zeros(0, dtype=np.float64),
            )
        h = np.diff(coords)
        d = np.empty(n, dtype=np.float64)
        d[0] = h[0] / 3.0
        d[-1] = h[-1] / 3.0
        if n > 2:
            d[1:-1] = (h[:-1] + h[1:]) / 3.0
        c = h / 6.0
        dprime = np.empty(n, dtype=np.float64)
        dprime[0] = d[0]
        for i in range(1, n):
            dprime[i] = d[i] - c[i - 1] ** 2 / dprime[i - 1]
        return cls(dprime=dprime, c=c)

    def solve_along(
        self, b: np.ndarray, axis: int, adapter=None, group_size: int = 64,
        ctx=None,
    ) -> np.ndarray:
        """Solve ``M x = b`` along ``axis`` via the Iterative abstraction.

        ``ctx`` forwards to :func:`~repro.core.abstractions.iterative`
        so the vector-batch staging buffer persists across solves (CMM).
        """
        if b.shape[axis] != self.dprime.size:
            raise ValueError(
                f"axis length {b.shape[axis]} != system size {self.dprime.size}"
            )
        if self.dprime.size == 1:
            out = b / self.dprime[0]
            return out
        return iterative(
            b.astype(np.float64, copy=False),
            self._sweeps,
            axis=axis,
            group_size=group_size,
            adapter=adapter,
            ctx=ctx,
        )
