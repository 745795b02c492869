"""The four parallelization abstractions (paper Section III-A, Fig. 3).

* :func:`locality` — decompose the input into blocks (optionally with
  halo regions), execute an algorithm-defined functor cooperatively per
  block, reassemble.  Used by ZFP's 4^d blocks, MGARD's interpolation /
  mass-transfer passes, Huffman's chunked encoder.
* :func:`iterative` — process vectors along one dimension, each vector
  sequentially, B vectors per group.  Used by MGARD's tridiagonal
  solves.
* :func:`map_and_process` — map data into subsets and process each with
  its own function.  Used by MGARD's per-level quantization.
* :func:`global_pipeline` — whole-domain processing with global
  synchronization between stages.  Used by Huffman's histogram and
  parallel serialization.

Each abstraction dispatches to a device adapter following the Table I
mapping (Locality/Iterative → GEM, Map&Process/Global → DEM).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.functor import (
    DomainFunctor,
    FnDomain,
    IterativeFunctor,
    LocalityFunctor,
)
from repro.util import move_axis


def _default_adapter() -> Any:
    from repro.adapters import get_adapter

    return get_adapter("serial")


# ----------------------------------------------------------------------
# Block decomposition helpers
# ----------------------------------------------------------------------
def block_grid(
    shape: tuple[int, ...], block_shape: tuple[int, ...]
) -> tuple[int, ...]:
    """Blocks per dimension (ceil-division) for :func:`blockize`."""
    return tuple(-(-n // b) for n, b in zip(shape, block_shape))


def blockize(
    data: np.ndarray,
    block_shape: tuple[int, ...],
    halo: int = 0,
    pad_mode: str = "edge",
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Decompose ``data`` into a batch of blocks.

    Returns ``(batch, grid_shape)`` where ``batch`` has shape
    ``(nblocks, *(block_shape + 2*halo))`` and ``grid_shape`` is the
    number of blocks per dimension.  The input is padded (``pad_mode``)
    up to a multiple of ``block_shape``, plus ``halo`` cells on every
    boundary so edge blocks also carry full halos.

    ``out`` (shape ``(nblocks, *window)``, matching dtype) receives the
    batch in place — typically a persistent CMM buffer — so the steady
    state performs no batch allocation.  Without ``out``, the 1-D
    no-halo case still returns a zero-copy view of the (padded) input.
    """
    if data.ndim != len(block_shape):
        raise ValueError(
            f"block_shape rank {len(block_shape)} != data rank {data.ndim}"
        )
    if any(b < 1 for b in block_shape):
        raise ValueError(f"block sizes must be >= 1, got {block_shape}")
    if halo < 0:
        raise ValueError(f"halo must be >= 0, got {halo}")

    grid_shape = block_grid(data.shape, block_shape)
    pad = [
        (halo, g * b - n + halo)
        for n, b, g in zip(data.shape, block_shape, grid_shape)
    ]
    padded = np.pad(data, pad, mode=pad_mode) if any(p != (0, 0) for p in pad) else data

    window = tuple(b + 2 * halo for b in block_shape)
    nblocks = int(np.prod(grid_shape))
    if out is not None and (
        out.shape != (nblocks,) + window or out.dtype != data.dtype
    ):
        raise ValueError(
            f"out has shape {out.shape}/{out.dtype}, expected "
            f"{(nblocks,) + window}/{data.dtype}"
        )
    if halo == 0:
        # Fast path: pure reshape/transpose; the single copy (when one
        # is needed at all) lands directly in ``out``.
        g = grid_shape
        b = block_shape
        interleaved = padded.reshape(
            *(dim for pair in zip(g, b) for dim in pair)
        )
        ndim = data.ndim
        axes = tuple(range(0, 2 * ndim, 2)) + tuple(range(1, 2 * ndim, 2))
        arranged = interleaved.transpose(axes)
        if out is None:
            return np.ascontiguousarray(arranged).reshape(-1, *b), grid_shape
        np.copyto(out.reshape(*g, *b), arranged)
        return out, grid_shape
    windows = sliding_window_view(padded, window)
    # windows has shape (padded - window + 1 per dim, *window); take
    # block-stride steps.
    idx = tuple(slice(None, None, b) for b in block_shape)
    strided = windows[idx]
    if out is None:
        return np.ascontiguousarray(strided).reshape(-1, *window), grid_shape
    np.copyto(out.reshape(strided.shape), strided)
    return out, grid_shape


def unblockize(
    batch: np.ndarray,
    grid_shape: tuple[int, ...],
    out_shape: tuple[int, ...],
    halo: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Reassemble a block batch produced by :func:`blockize`.

    When ``halo > 0`` only each block's core region is written back.
    ``out`` receives the result in place.  When every output dimension
    is an exact multiple of its block size the stitch is a single copy
    (no intermediate assembly buffer).
    """
    ndim = len(out_shape)
    if batch.ndim != ndim + 1:
        raise ValueError(
            f"batch rank {batch.ndim} incompatible with out rank {ndim}"
        )
    window = batch.shape[1:]
    block_shape = tuple(w - 2 * halo for w in window)
    if any(b < 1 for b in block_shape):
        raise ValueError("halo larger than block")
    if halo > 0:
        core = (slice(None),) + tuple(slice(halo, halo + b) for b in block_shape)
        batch = batch[core]
    g = grid_shape
    b = block_shape
    if out is not None and (
        out.shape != tuple(out_shape) or out.dtype != batch.dtype
    ):
        raise ValueError(
            f"out has shape {out.shape}/{out.dtype}, expected "
            f"{tuple(out_shape)}/{batch.dtype}"
        )
    full = batch.reshape(*g, *b)
    axes: list[int] = []
    for i in range(ndim):
        axes.extend([i, ndim + i])
    arranged = full.transpose(axes)  # (g0, b0, g1, b1, ...) view
    if tuple(out_shape) == tuple(gi * bi for gi, bi in zip(g, b)):
        # Exact tiling: one copy straight into the destination.
        if out is None:
            out = np.empty(out_shape, dtype=batch.dtype)
        np.copyto(
            out.reshape(*(dim for pair in zip(g, b) for dim in pair)),
            arranged,
        )
        return out
    stitched = arranged.reshape(*(gi * bi for gi, bi in zip(g, b)))
    crop = tuple(slice(0, n) for n in out_shape)
    if out is None:
        return np.ascontiguousarray(stitched[crop])
    np.copyto(out, stitched[crop])
    return out


# ----------------------------------------------------------------------
# Abstraction entry points
# ----------------------------------------------------------------------
def locality(
    data: np.ndarray,
    functor: LocalityFunctor,
    block_shape: tuple[int, ...] | None = None,
    halo: int = 0,
    adapter=None,
    pad_mode: str = "edge",
    reassemble: bool | None = None,
    ctx=None,
) -> np.ndarray:
    """Locality abstraction (Fig. 3a).

    ``block_shape=None`` treats the whole array as a single block (an
    algorithm-defined choice MGARD's level passes use).  When the
    functor's output blocks match its input block shape the result is
    reassembled to ``data.shape``; otherwise the raw output batch is
    returned (encoded outputs, e.g. ZFP bitplanes), or force the
    behaviour via ``reassemble``.

    ``ctx`` is an optional :class:`~repro.core.context.ReductionContext`
    supplying the persistent block-batch buffer (CMM, Section III-B):
    with it, repeated same-shaped calls perform no batch allocation.
    """
    adapter = adapter if adapter is not None else _default_adapter()
    if block_shape is None:
        block_shape = data.shape
        if halo != 0:
            raise ValueError("halo requires an explicit block_shape")
    block_shape = tuple(block_shape)
    batch_out = None
    if ctx is not None and (halo > 0 or data.ndim > 1):
        # 1-D no-halo blockize is a zero-copy reshape; forcing it into a
        # persistent buffer would *add* a copy, so only multi-dim /
        # halo decompositions draw their batch from the context.
        grid = block_grid(data.shape, block_shape)
        window = tuple(b + 2 * halo for b in block_shape)
        shape_tag = "x".join(map(str, data.shape))
        batch_out = ctx.buffer(
            f"locality.{functor.name}.{shape_tag}.batch",
            (int(np.prod(grid)),) + window,
            data.dtype,
        )
    batch, grid_shape = blockize(
        data, block_shape, halo, pad_mode, out=batch_out
    )
    out = adapter.execute_group_batch(functor, batch)
    if out.shape[0] != batch.shape[0]:
        raise ValueError(
            f"functor {functor.name!r} changed the block count: "
            f"{batch.shape[0]} -> {out.shape[0]}"
        )
    core_shape = tuple(block_shape)
    if reassemble is None:
        reassemble = out.shape[1:] in (batch.shape[1:], core_shape)
    if not reassemble:
        return out
    if halo > 0 and out.shape[1:] == core_shape:
        # Functor already cropped its halo: stitch the cores directly.
        return unblockize(out, grid_shape, data.shape, halo=0)
    return unblockize(out, grid_shape, data.shape, halo)


class _GroupedIterative(LocalityFunctor):
    """Internal shim: presents B-vector groups to the adapter as GEM
    groups while the user functor still sees flat ``(nvec, n)``."""

    def __init__(self, inner: IterativeFunctor) -> None:
        self._inner = inner
        self.name = inner.name
        self.bytes_per_element = inner.bytes_per_element

    def apply(self, groups: np.ndarray) -> np.ndarray:
        ngroups, b, n = groups.shape
        flat = groups.reshape(ngroups * b, n)
        out = self._inner.apply(flat)
        return out.reshape(ngroups, b, n)


def iterative(
    data: np.ndarray,
    functor: IterativeFunctor,
    axis: int = -1,
    group_size: int = 16,
    adapter=None,
    ctx=None,
) -> np.ndarray:
    """Iterative abstraction (Fig. 3b).

    Extracts all vectors along ``axis``, organizes every ``group_size``
    vectors into a group (the paper's B:1 mapping for memory locality),
    and applies the functor, whose computation is sequential along the
    vector but parallel across vectors.

    ``ctx`` supplies the persistent vector-batch buffer (CMM): the
    axis-move gather and group padding then reuse cached memory and the
    steady state allocates nothing for the batch.  The functor must not
    return its input: the staging is retired when the launch returns.
    """
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    adapter = adapter if adapter is not None else _default_adapter()
    moved = move_axis(data, axis, -1)
    lead_shape = moved.shape[:-1]
    n = moved.shape[-1]
    nvec = int(np.prod(lead_shape)) if lead_shape else 1

    ngroups = -(-nvec // group_size)
    padded_n = ngroups * group_size
    slot = f"iterative.{functor.name}.vectors"
    if ctx is not None:
        # One slot per functor, whatever the axis or staging shape: the
        # buffer dies with its launch, so every solve of a call (every
        # axis of every level of MGARD's hierarchy) shares one block,
        # which grows to the largest staging and is retired below.
        vectors = ctx.scratch(slot, padded_n * n, data.dtype).reshape(
            padded_n, n
        )
        np.copyto(vectors[:nvec].reshape(moved.shape), moved)
        if padded_n != nvec:
            vectors[nvec:] = vectors[nvec - 1]
    else:
        vectors = np.ascontiguousarray(moved.reshape(-1, n))
        if padded_n != nvec:
            pad = np.repeat(vectors[-1:], padded_n - nvec, axis=0)
            vectors = np.concatenate([vectors, pad], axis=0)
    groups = vectors.reshape(ngroups, group_size, n)
    out = adapter.execute_group_batch(_GroupedIterative(functor), groups)
    if ctx is not None:
        ctx.retire(slot)
    out = out.reshape(padded_n, n)[:nvec]
    return move_axis(out.reshape(*lead_shape, n), -1, axis)


def map_and_process(
    data: Any,
    mapper: Callable[[Any], Sequence[Any]],
    processors: Sequence[Callable[[Any], Any]] | Callable[[Any, int], Any],
    adapter=None,
) -> list[Any]:
    """Map&Process abstraction (Fig. 3c) — DEM.

    ``mapper`` splits the input into subsets; each subset *i* is
    processed by ``processors[i]`` (or ``processors(subset, i)`` when a
    single callable is given).  All subsets are processed within one
    whole-domain execution.
    """
    adapter = adapter if adapter is not None else _default_adapter()
    subsets = list(mapper(data))

    def _process(subs: list[Any]) -> list[Any]:
        out = []
        for i, s in enumerate(subs):
            if callable(processors):
                out.append(processors(s, i))
            else:
                out.append(processors[i](s))
        return out

    if not callable(processors) and len(processors) != len(subsets):
        raise ValueError(
            f"{len(subsets)} subsets but {len(processors)} processors"
        )
    functor = FnDomain(_process, name="map_and_process")
    return adapter.execute_domain(functor, subsets)


def global_pipeline(
    data: Any,
    functor: DomainFunctor,
    adapter=None,
) -> Any:
    """Global pipeline abstraction (Fig. 3d) — DEM.

    The whole domain is processed at once; the functor's stages are
    separated by global synchronization (trivially satisfied by
    sequential stage execution on every backend).
    """
    adapter = adapter if adapter is not None else _default_adapter()
    return adapter.execute_domain(functor, data)
