"""Grid hierarchy for the multilevel decomposition.

Each dimension refines independently: level *l*'s grid keeps the even
indices of level *l-1* plus the last node (so non-dyadic sizes stay
exactly representable; the boundary interval just becomes non-uniform,
which the coordinate-aware 1-D operators handle).  A dimension stops
coarsening below 3 nodes.  The global level count is the maximum across
dimensions; short dimensions simply stop refining early — the same
policy MGARD-X uses for arbitrary shapes.

Hierarchies are cached per (shape, dtype) through the CMM, since
rebuilding coordinates, interpolation weights and tridiagonal factors on
every call is part of the allocation overhead the paper eliminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class DimLevel:
    """Geometry of one (dimension, level) pair, fine side.

    The grid keeps the even indices plus the last node, so every index
    set the 1-D operators touch is an arithmetic progression: with
    ``nf`` fine-only nodes, those sit at ``1:2*nf:2``, their left and
    right coarse neighbours at ``0:2*nf:2`` and ``2:2*nf+1:2`` (coarse
    positions ``0:nf`` and ``1:nf+1``), and the coarse nodes at ``0::2``
    plus, for even ``n``, the appended last node, which no fine-only
    node neighbours.  The operators index with these slices directly.
    """

    n: int                      # fine size
    n_coarse: int               # coarse size
    coords: np.ndarray          # fine coordinates, shape (n,)
    h: np.ndarray               # node spacing diff(coords), shape (n - 1,)
    coarse_idx: np.ndarray      # indices (into fine) of coarse nodes
    fine_idx: np.ndarray        # indices of fine-only nodes
    wl: np.ndarray              # lerp weight of the left neighbor
    wr: np.ndarray              # lerp weight of the right neighbor

    @property
    def nf(self) -> int:
        """Number of fine-only nodes."""
        return (self.n - 1) // 2


class DimHierarchy:
    """All levels of one dimension."""

    def __init__(self, n: int, coords: np.ndarray | None = None) -> None:
        if n < 1:
            raise ValueError(f"dimension size must be >= 1, got {n}")
        if coords is None:
            coords = np.arange(n, dtype=np.float64)
        else:
            coords = np.asarray(coords, dtype=np.float64)
            if coords.shape != (n,):
                raise ValueError("coords length mismatch")
            if n > 1 and not np.all(np.diff(coords) > 0):
                raise ValueError("coords must be strictly increasing")
        self.n = n
        self.levels: list[DimLevel] = []
        cur = coords
        while cur.size >= 3:
            lvl = _build_level(cur)
            self.levels.append(lvl)
            cur = cur[lvl.coarse_idx]
        self.coarsest_coords = cur

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def size_at(self, level: int) -> int:
        """Grid size after ``level`` coarsening steps of this dimension."""
        if level <= 0:
            return self.n
        if level >= self.num_levels:
            return self.coarsest_coords.size
        return self.levels[level].n

    def level(self, l: int) -> DimLevel:
        return self.levels[l]


def _build_level(coords: np.ndarray) -> DimLevel:
    n = coords.size
    nf = (n - 1) // 2
    evens = np.arange(0, n, 2)
    coarse_idx = evens if n % 2 else np.concatenate([evens, [n - 1]])

    xl = coords[0 : 2 * nf : 2]
    xr = coords[2 : 2 * nf + 1 : 2]
    xf = coords[1 : 2 * nf : 2]
    wr = (xf - xl) / (xr - xl)
    wl = 1.0 - wr
    return DimLevel(
        n=n,
        n_coarse=coarse_idx.size,
        coords=coords,
        h=np.diff(coords),
        coarse_idx=coarse_idx,
        fine_idx=np.arange(1, 2 * nf, 2),
        wl=wl,
        wr=wr,
    )


class Hierarchy:
    """Multidimensional hierarchy: one :class:`DimHierarchy` per dim.

    ``total_levels`` is the paper's ``hierarchy.total_levels``: the
    number of global decomposition steps.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        coords: tuple[np.ndarray, ...] | None = None,
    ) -> None:
        if not 1 <= len(shape) <= 4:
            raise ValueError(f"MGARD-X supports 1-4 dims, got {len(shape)}")
        self.shape = tuple(int(n) for n in shape)
        self.dims = [
            DimHierarchy(n, None if coords is None else coords[d])
            for d, n in enumerate(self.shape)
        ]
        self.total_levels = max((d.num_levels for d in self.dims), default=0)

    def shape_at(self, level: int) -> tuple[int, ...]:
        """Array shape after ``level`` global decomposition steps."""
        return tuple(d.size_at(level) for d in self.dims)

    def active_dims(self, level: int) -> list[int]:
        """Dimensions that still refine at global step ``level`` (0-based)."""
        return [i for i, d in enumerate(self.dims) if level < d.num_levels]

    def dim_level(self, dim: int, level: int) -> DimLevel:
        return self.dims[dim].level(level)

    def num_coefficients(self, level: int) -> int:
        """Coefficients emitted by global step ``level``: all nodes of
        the step's fine grid except the all-coarse subgrid."""
        fine = np.prod([self.shape_at(level)[i] for i in range(len(self.shape))])
        coarse = np.prod(self.shape_at(level + 1))
        return int(fine - coarse)

    def group_sizes(self) -> list[int]:
        """Values per quantization group, finest first: each step's
        coefficients, then the coarsest approximation."""
        sizes = [self.num_coefficients(l) for l in range(self.total_levels)]
        return sizes + [math.prod(self.shape_at(self.total_levels))]
