"""Multilevel decomposition / recomposition (Algorithm 1, lines 5-13).

Per global level:

1. ``approx`` ← multilinear interpolation of the all-coarse subgrid,
   computed with one in-place :func:`lerp_fill` pass per active
   dimension (the passes compose into the tensor-product interpolant;
   intermediate mixed-node reads are overwritten by later passes, so the
   result depends only on all-coarse values).
2. multilevel coefficients ``mc = u - approx`` (zero at all-coarse
   nodes); the fine-node values are extracted in C order.
3. global correction: ``corr = (⊗_d M_d^c)^{-1} (⊗_d P_d^T M_d) mc`` —
   mass multiply + restriction per dimension, then a tridiagonal solve
   per dimension (Iterative abstraction).
4. next level ← all-coarse subgrid of ``u`` + ``corr``.

Recomposition runs the exact inverse; without quantization the round
trip is exact to floating-point roundoff.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compressors.mgard.hierarchy import Hierarchy
from repro.compressors.mgard.ops1d import TridiagFactors, lerp_fill, mass_trans


def _coarse_selector(hierarchy: Hierarchy, level: int):
    """``np.ix_`` selector of the all-coarse subgrid at ``level``."""
    idx = []
    for d, dimh in enumerate(hierarchy.dims):
        if level < dimh.num_levels:
            idx.append(dimh.level(level).coarse_idx)
        else:
            idx.append(np.arange(dimh.size_at(level)))
    return np.ix_(*idx)


def _coarse_mask(hierarchy: Hierarchy, level: int) -> np.ndarray:
    """Boolean mask of all-coarse nodes on the level's fine grid."""
    shape = hierarchy.shape_at(level)
    mask = np.ones(shape, dtype=bool)
    for d, dimh in enumerate(hierarchy.dims):
        in_coarse = np.zeros(shape[d], dtype=bool)
        if level < dimh.num_levels:
            in_coarse[dimh.level(level).coarse_idx] = True
        else:
            in_coarse[:] = True
        expand = [None] * len(shape)
        expand[d] = slice(None)
        mask &= in_coarse[tuple(expand)]
    return mask


def _level_geometry(hierarchy: Hierarchy, level: int, ctx=None):
    """``(selector, fine_idx)`` for a level, CMM-cached when ``ctx`` given.

    ``fine_idx`` are the flat C-order indices of the fine (non-coarse)
    nodes — the positions whose multilevel coefficients the level emits.
    Both are pure functions of the hierarchy, so repeated reductions
    reuse them instead of rebuilding full-grid boolean masks.
    """

    def _build_selector():
        return _coarse_selector(hierarchy, level)

    def _build_fine_idx():
        return np.flatnonzero(~_coarse_mask(hierarchy, level).ravel())

    if ctx is None:
        return _build_selector(), _build_fine_idx()
    return (
        ctx.object(f"geometry.selector.{level}", _build_selector),
        ctx.object(f"geometry.fine_idx.{level}", _build_fine_idx),
    )


def level_factors(hierarchy: Hierarchy, level: int) -> dict[int, TridiagFactors]:
    """Tridiagonal factorizations of each active dim's coarse mass matrix."""
    out = {}
    for d in hierarchy.active_dims(level):
        lvl = hierarchy.dim_level(d, level)
        coarse_coords = lvl.coords[lvl.coarse_idx]
        out[d] = TridiagFactors.from_coords(coarse_coords)
    return out


def _correction(
    mc: np.ndarray,
    hierarchy: Hierarchy,
    level: int,
    factors: dict[int, TridiagFactors],
    adapter=None,
    ctx=None,
    lead: int = 0,
) -> np.ndarray:
    """Global correction of ``mc``; ``lead`` counts leading batch axes
    (grid dim ``d`` is array axis ``d + lead``)."""
    corr = mc
    dims = hierarchy.active_dims(level)
    for d in dims:
        lvl = hierarchy.dim_level(d, level)
        corr = mass_trans(corr, lvl, d + lead)
    for d in dims:
        corr = factors[d].solve_along(corr, axis=d + lead, adapter=adapter,
                                      ctx=ctx)
    return corr


def _grid(ctx, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Uninitialised float64 working grid; context memory with ``ctx``.

    Borrowed as *scratch*: the leading batch axis is a launch width that
    varies from call to call under one context, and scratch capacity only
    grows to the widest launch seen — a width change is neither a rebind
    (SAN-CTX) nor, past the high-water mark, an allocation.  The same
    property lets one name serve every level: a grid that dies inside its
    level borrows :data:`LEVEL_SLOT`, sized by the finest level.
    """
    if ctx is None:
        return np.empty(shape, dtype=np.float64)
    return ctx.scratch(name, math.prod(shape), np.float64).reshape(shape)


#: The one working grid whose life is a single level: the
#: interpolant-then-coefficients grid of a decomposition level and the
#: scattered coefficients of a recomposition level.  Neither survives
#: its level, and decomposition and recomposition never interleave, so
#: all of them share one slot; the slot is retired at the end of each
#: level (poisoned under ``HPDR_SAN=1``).
LEVEL_SLOT = "level.mc"


def _retire(ctx, name: str) -> None:
    """End the life of a :func:`_grid`'s contents (see
    :meth:`~repro.core.context.ReductionContext.retire`)."""
    if ctx is not None:
        ctx.retire(name)


def decompose(
    data: np.ndarray,
    hierarchy: Hierarchy,
    adapter=None,
    factors_per_level: list[dict[int, TridiagFactors]] | None = None,
    ctx=None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Full multilevel decomposition.

    Returns ``(coefficients, coarsest)``: per-level 1-D coefficient
    arrays (finest level first) and the coarsest-grid approximation.
    ``factors_per_level`` may come from a CMM context to skip
    refactorization on repeated calls; with ``ctx`` the per-level
    working grids, coefficient buffers, and node-geometry index tables
    also persist, so repeated same-shaped decompositions allocate
    nothing through the context.  Returned coefficient arrays then alias
    context memory and are valid until the next decomposition through
    the same context.

    ``data`` may be a ``(N,) + shape`` stack, or a sequence of ``N``
    same-shaped arrays (the batch axis is read off the number of
    dimensions); coefficient planes are then ``(N, size)`` and lane
    ``i`` of every result is bit-identical to ``decompose(data[i],
    ...)``: each 1-D operator pass runs along ``d + 1``, which
    broadcasts the exact per-item arithmetic across lanes — elementwise
    lerp/mass kernels, the restriction's left-then-right slice updates,
    and per-vector Thomas sweeps are all independent of how many lanes
    ride along.
    """
    current = np.array(data, dtype=np.float64)   # the one working copy
    lead = current.ndim - len(hierarchy.shape)
    if lead not in (0, 1) or current.shape[lead:] != hierarchy.shape:
        raise ValueError(
            f"data shape {current.shape} != hierarchy {hierarchy.shape}"
        )
    batch = current.shape[:lead]
    coeffs: list[np.ndarray] = []
    for level in range(hierarchy.total_levels):
        dims = hierarchy.active_dims(level)
        factors = (
            factors_per_level[level]
            if factors_per_level is not None
            else level_factors(hierarchy, level)
        )
        shape = batch + hierarchy.shape_at(level)
        # The interpolant, then (in place) the coefficients u - approx.
        mc = _grid(ctx, LEVEL_SLOT, shape)
        np.copyto(mc, current)
        for d in dims:
            lerp_fill(mc, hierarchy.dim_level(d, level), d + lead)
        np.subtract(current, mc, out=mc)
        selector, fine_idx = _level_geometry(hierarchy, level, ctx)
        level_coeffs = _grid(
            ctx, f"decompose.coeffs.{level}", batch + (fine_idx.size,)
        )
        np.take(mc.reshape(batch + (-1,)), fine_idx, axis=-1, out=level_coeffs)
        coeffs.append(level_coeffs)
        corr = _correction(mc, hierarchy, level, factors, adapter, ctx=ctx,
                           lead=lead)
        _retire(ctx, LEVEL_SLOT)
        current = current[(Ellipsis,) + selector] + corr
    return coeffs, current


def _zeroed(ctx, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Zero-filled :func:`_grid`."""
    grid = _grid(ctx, name, shape)
    grid[...] = 0.0
    return grid


def recompose_levels(
    coeffs: list[np.ndarray],
    current: np.ndarray,
    hierarchy: Hierarchy,
    start: int,
    stop: int = 0,
    adapter=None,
    factors_per_level: list[dict[int, TridiagFactors]] | None = None,
    ctx=None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Run recomposition levels ``start, start-1, ..., stop``.

    ``current`` is the grid entering level ``start`` (``shape_at(start
    + 1)``, optionally behind one leading batch axis) and is only read;
    the result is the grid leaving level ``stop``.  :func:`recompose` is
    the whole range from the coarsest approximation; a caller that keeps
    the grid leaving a level whose coarser coefficients are final can
    resume from it instead of recomposing them again (the progressive
    writer does).  With ``ctx`` the result aliases the context's
    ``recompose.new.<stop>`` buffer, which stays intact until level
    ``stop`` runs again through the same context.  ``out`` (float64,
    the result's shape) takes the place of that buffer; it may hold the
    coefficients themselves, since a level reads its own before it
    writes its grid and coarser levels have run by then.

    A level whose coefficients are all ``+0.0`` issues no mass / restrict
    / solve launches: the correction of zeros is exactly ``+0.0``
    (products and sums of ``+0.0`` under positive weights), so ``current
    - corr`` is ``current`` bit for bit and ``new += mc`` only turns
    ``-0.0`` into ``+0.0``, which ``new += 0.0`` does as well.  ``-0.0``
    coefficients take the full path: adding them would keep a ``-0.0``.
    """
    lead = current.ndim - len(hierarchy.shape)
    for level in range(start, stop - 1, -1):
        level_coeffs = np.asarray(coeffs[level], dtype=np.float64)
        shape = current.shape[:lead] + hierarchy.shape_at(level)
        selector, fine_idx = _level_geometry(hierarchy, level, ctx)
        mc: np.ndarray | float = 0.0
        if level_coeffs.view(np.int64).any():   # any bit set: not all +0.0
            factors = (
                factors_per_level[level]
                if factors_per_level is not None
                else level_factors(hierarchy, level)
            )
            mc = _zeroed(ctx, LEVEL_SLOT, shape)
            mc.reshape(shape[:lead] + (-1,))[..., fine_idx] = level_coeffs
            current = current - _correction(
                mc, hierarchy, level, factors, adapter, ctx=ctx, lead=lead
            )
        if level == stop and out is not None:
            new = out
            new[...] = 0.0
        else:
            new = _zeroed(ctx, f"recompose.new.{level}", shape)
        new[(Ellipsis,) + selector] = current
        for d in hierarchy.active_dims(level):
            lerp_fill(new, hierarchy.dim_level(d, level), d + lead)
        new += mc
        _retire(ctx, LEVEL_SLOT)
        current = new
    return current


def recompose(
    coeffs: list[np.ndarray],
    coarsest: np.ndarray,
    hierarchy: Hierarchy,
    adapter=None,
    factors_per_level: list[dict[int, TridiagFactors]] | None = None,
    ctx=None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Exact inverse of :func:`decompose` (also when ``coarsest`` and the
    coefficient planes carry a leading batch axis; see its lane-identity
    argument).

    With ``ctx`` the per-level grids come from persistent context
    buffers; the returned array then aliases context memory (callers
    copy or cast before handing it out).  ``out`` receives the finest
    grid, as in :func:`recompose_levels`.
    """
    if len(coeffs) != hierarchy.total_levels:
        raise ValueError(
            f"{len(coeffs)} coefficient levels != {hierarchy.total_levels}"
        )
    return recompose_levels(
        coeffs, np.asarray(coarsest, dtype=np.float64).copy(), hierarchy,
        hierarchy.total_levels - 1, adapter=adapter,
        factors_per_level=factors_per_level, ctx=ctx, out=out,
    )
