"""ZFP's near-orthogonal decorrelating transform (integer lifting).

The forward transform applies, along each dimension of a 4^d block, the
lifted near-orthogonal basis

            ( 4  4  4  4)
    1/16 *  ( 5  1 -1 -5)
            (-4  4  4 -4)
            (-2  6 -6  2)

implemented exactly as zfp's ``fwd_lift``/``inv_lift`` integer lifting
steps (arithmetic right shifts on two's-complement int64).

Blocks are held coefficient-major, ``(4**ndim, nblocks)`` int64: row
``c`` is position ``c`` (C order) of every block.  Viewed as
``(4,)*ndim + (nblocks,)``, the four samples a lifting step combines
along a block axis are four basic slices, so a step is a few in-place
array operations over runs of ``nblocks`` contiguous values; nothing is
moved, copied or stacked.  DESIGN.md §3.1 says why that is exact and
why float32 blocks need int64 too.

Coefficients are reordered by total sequency (sum of per-dimension
frequencies), low frequencies first, so the large ones serialize into
earlier bitplane positions; here that is a row permutation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def fwd_lift(x: np.ndarray, y: np.ndarray, z: np.ndarray, w: np.ndarray) -> None:
    """Forward lifting, in place, of the four samples along a block axis."""
    x += w; x >>= 1; w -= x
    z += y; z >>= 1; y -= z
    x += z; x >>= 1; z -= x
    w += y; w >>= 1; y -= w
    t = y >> 1; w += t
    np.right_shift(w, 1, out=t); y -= t


def inv_lift(x: np.ndarray, y: np.ndarray, z: np.ndarray, w: np.ndarray) -> None:
    """Exact inverse of :func:`fwd_lift`, in place."""
    t = w >> 1; y += t
    np.right_shift(y, 1, out=t); w -= t
    y += w; w <<= 1; w -= y
    z += x; x <<= 1; x -= z
    y += z; z <<= 1; z -= y
    w += x; x <<= 1; x -= w


@lru_cache(maxsize=8)
def sequency_order(ndim: int) -> np.ndarray:
    """Flat coefficient permutation ordered by total sequency.

    Sorting key: (sum of per-dim frequency indices, flat index), a
    deterministic stand-in for zfp's precomputed ``perm`` tables with
    the same low-frequency-first property.
    """
    if not 1 <= ndim <= 4:
        raise ValueError(f"ndim must be in [1, 4], got {ndim}")
    grids = np.indices((4,) * ndim).reshape(ndim, -1)
    total = grids.sum(axis=0)
    flat = np.arange(4**ndim)
    return np.lexsort((flat, total)).astype(np.intp)


def _axis_samples(blocks: np.ndarray, ndim: int) -> list[list[np.ndarray]]:
    """Per block axis, its four slices of a C-contiguous batch (a copy
    would swallow the in-place lifting)."""
    if blocks.ndim != 2 or blocks.shape[0] != 4**ndim:
        raise ValueError(
            f"expected a ({4**ndim}, nblocks) batch, got {blocks.shape}"
        )
    if not blocks.flags.c_contiguous:
        raise ValueError("the block batch must be C-contiguous")
    v = blocks.reshape((4,) * ndim + (-1,))
    return [[v[(slice(None),) * axis + (i,)] for i in range(4)]
            for axis in range(ndim)]


def fwd_transform(iblocks: np.ndarray, ndim: int) -> np.ndarray:
    """Forward transform of a block batch ``(4**ndim, nblocks)`` int64.

    Lifts ``iblocks`` in place (it holds no meaningful values
    afterwards) and returns the coefficients in sequency order, same
    shape, as a new array.
    """
    for samples in _axis_samples(iblocks, ndim):
        fwd_lift(*samples)
    return iblocks[sequency_order(ndim)]


def inv_transform(coeffs: np.ndarray, ndim: int) -> np.ndarray:
    """Inverse of :func:`fwd_transform`: a new int64 batch, ``coeffs`` intact."""
    iblocks = np.empty(coeffs.shape, dtype=np.int64)
    iblocks[sequency_order(ndim)] = coeffs
    for samples in reversed(_axis_samples(iblocks, ndim)):
        inv_lift(*samples)
    return iblocks
