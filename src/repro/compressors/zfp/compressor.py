"""ZFP-X fixed-rate compressor (paper Algorithm 3).

The whole per-block chain — exponent alignment, fixed-point conversion,
near-orthogonal transform, bitplane truncation — runs under a single
Locality abstraction: blocks are independent, emit identical bit counts,
and need no global coordination for serialization.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.container import Header, pack_shape
from repro.core.abstractions import block_grid, blockize, unblockize
from repro.core.context import ContextCache
from repro.core.functor import LocalityFunctor
from repro.compressors.zfp.bitplane import INTPREC, decode_blocks, encode_blocks
from repro.compressors.zfp.fixedpoint import (
    E_BITS,
    block_exponents,
    from_fixed_point,
    to_fixed_point,
)
from repro.compressors.zfp.transform import fwd_transform, inv_transform
from repro.trace.tracer import count_bytes, span
from repro.util import stream_errors

#: float64 flag, ndim, rate, record bits; then the shape.
_HEADER = Header(b"ZFPX", 1, "BBdI", "ZFP-X")


def check_input(dtype: np.dtype, shape: tuple[int, ...],
                who: str = "ZFP-X") -> None:
    """Refuse what no ZFP mode codes: another dtype, a rank outside 1-4,
    or an empty array."""
    if dtype not in INTPREC:
        raise TypeError(f"{who} supports float32/float64, got {dtype}")
    if not 1 <= len(shape) <= 4:
        raise ValueError(f"{who} supports 1-4 dimensions, got {len(shape)}")
    if 0 in shape:
        raise ValueError(f"{who} needs a non-empty array, got shape {shape}")


def record_bits(rate: float, ndim: int, dtype) -> int:
    """Bits per block record at ``rate`` bits per value (header at least)."""
    return max(int(round(rate * 4**ndim)), 1 + E_BITS[np.dtype(dtype)])


def open_records(header: Header, blob):
    """``(dtype, shape, maxbits, records)`` of a fixed-rate stream, the
    records a ``(nblocks, record bytes)`` view: every block has one, so
    the shape is checked against the bytes before a block is decoded."""
    (is64, ndim, _rate, maxbits), r = header.open(blob)
    dtype = np.dtype(np.float64 if is64 else np.float32)
    shape = r.shape(ndim)
    check_input(dtype, shape, header.who)
    if maxbits < 1 + E_BITS[dtype]:
        raise ValueError(f"corrupt stream: {maxbits}-bit block records")
    rec_bytes = -(-maxbits // 8)
    nblocks = math.prod(-(-n // 4) for n in shape)
    records = r.array(np.uint8, nblocks * rec_bytes)
    return dtype, shape, maxbits, records.reshape(nblocks, rec_bytes)


def rate_for_error_bound(error_bound: float, dtype=np.float32, ndim: int = 3) -> float:
    """Heuristic rate (bits/value) targeting a relative error bound.

    Transform-coding error halves per kept bitplane, so the plane count
    scales with ``-log2(eb)``; the block header amortizes over ``4^ndim``
    values.  This mirrors how the paper's evaluation drives ZFP's
    fix-rate mode from the same relative bounds used for MGARD.
    """
    if error_bound <= 0 or error_bound >= 1:
        raise ValueError(f"error_bound must be in (0, 1), got {error_bound}")
    dtype = np.dtype(dtype)
    # Extra planes absorb the inverse transform's error amplification
    # (roughly a factor per lifted dimension) and the fact that this
    # codec truncates bitplanes uniformly (no embedded group-testing,
    # so every coefficient shares the budget).
    planes = math.ceil(-math.log2(error_bound)) + 2 + ndim
    planes = max(2, min(INTPREC[dtype], planes))
    bs = 4**ndim
    return planes + (1 + E_BITS[dtype]) / bs


def analyze(batch: np.ndarray, ndim: int,
            exact: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Block-major floats ``(n, 4, ..)`` to sequency-ordered ``(coeffs,
    emax)``, coefficient-major ``(4**ndim, n)`` like every kernel between
    here and the records: one transpose each way.  ``exact`` is
    :func:`to_fixed_point`'s."""
    n = batch.shape[0]
    with span("zfp.align", cat="zfp", blocks=n):
        flat = np.ascontiguousarray(batch.reshape(n, -1).T)
        emax = block_exponents(flat)
        iblocks = to_fixed_point(flat, emax, exact)
    with span("zfp.transform", cat="zfp", blocks=n):
        return fwd_transform(iblocks, ndim), emax


def synthesize(coeffs: np.ndarray, emax: np.ndarray, ndim: int, dtype,
               exact: bool = False) -> np.ndarray:
    """Invert :func:`analyze`: coefficients back to blocks ``(n, 4, ..)``."""
    n = coeffs.shape[1]
    with span("zfp.transform", cat="zfp", blocks=n):
        iblocks = inv_transform(coeffs, ndim)
    with span("zfp.align", cat="zfp", blocks=n):
        flat = from_fixed_point(iblocks, emax, dtype, exact)
        return np.ascontiguousarray(flat.T).reshape((n,) + (4,) * ndim)


class _ZfpFunctor(LocalityFunctor):
    """One Locality launch over a block batch."""

    def __init__(self, ndim: int, maxbits: int, dtype: np.dtype) -> None:
        self._ndim = ndim
        self._maxbits = maxbits
        self._dtype = np.dtype(dtype)


class _ZfpEncodeFunctor(_ZfpFunctor):
    """Locality stage: align → fixed point → transform → bitplanes."""

    name = "zfp.encode"

    def apply(self, blocks: np.ndarray) -> np.ndarray:
        coeffs, emax = analyze(blocks, self._ndim)
        with span("zfp.bitplane", cat="zfp", blocks=blocks.shape[0]):
            return encode_blocks(coeffs, emax, self._maxbits, self._dtype)


class _ZfpDecodeFunctor(_ZfpFunctor):
    """Locality stage: bitplanes → inverse transform → floats."""

    name = "zfp.decode"

    def apply(self, records: np.ndarray) -> np.ndarray:
        n = records.shape[0]
        with span("zfp.bitplane", cat="zfp", blocks=n):
            coeffs, emax = decode_blocks(
                records.reshape(n, -1), self._maxbits, 4**self._ndim, self._dtype
            )
        return synthesize(coeffs, emax, self._ndim, self._dtype)


class ZFPX:
    """HPDR fixed-rate ZFP compressor.

    Parameters
    ----------
    rate:
        Compressed bits per value.  Each 4^d block stores exactly
        ``round(rate * 4^d)`` bits (byte-padded per block).
    adapter:
        Device adapter (defaults to serial).
    context_cache:
        Optional CMM cache: the block-batch staging buffer persists per
        (shape, dtype, rate), so repeated same-shaped compressions
        allocate nothing through the context.
    """

    def __init__(
        self,
        rate: float = 8.0,
        adapter=None,
        context_cache: ContextCache | None = None,
    ) -> None:
        if rate <= 0 or rate > 64 + 2:
            raise ValueError(f"rate must be in (0, 66], got {rate}")
        self.rate = float(rate)
        self.adapter = adapter
        self.cache = context_cache if context_cache is not None else ContextCache()

    def _launch(self, functor: _ZfpFunctor, batch: np.ndarray) -> np.ndarray:
        if self.adapter is not None:
            return self.adapter.execute_group_batch(functor, batch)
        return functor.apply(batch)

    # -- single-shot is a batch of one ------------------------------------
    def compress(self, data: np.ndarray) -> bytes:
        return self.compress_batch([data])[0]

    def decompress(self, blob: bytes) -> np.ndarray:
        return self.decompress_batch([blob])[0]

    def compress_batch(self, arrays: Sequence[np.ndarray]) -> list[bytes]:
        """Compress N same-shape/same-dtype arrays in one GEM launch.

        A batch of N is byte-identical to N batches of one: ZFP blocks
        encode independently with per-block exponents, so concatenating
        every array's blocks into one batch and slicing the records back
        out reproduces each array's own stream exactly (the serving
        conformance suite pins this).  The win is amortization — one
        adapter launch and one vectorized bitplane pass over
        ``N x nblocks`` blocks instead of N launches over ``nblocks``.

        Raises ``ValueError`` when the arrays disagree on shape or dtype
        (callers such as :class:`repro.serve.worker.Worker` then fall
        back to per-array execution).
        """
        # ``asarray``, not ``ascontiguousarray``: a 0-d input stays 0-d and
        # is refused, not promoted to one value of shape (1,).
        arrays = [np.asarray(a, order="C") for a in arrays]
        if not arrays:
            return []
        first = arrays[0]
        dtype = np.dtype(first.dtype)
        shape = first.shape
        ndim = first.ndim
        check_input(dtype, shape)
        for a in arrays[1:]:
            if a.shape != shape or a.dtype != dtype:
                raise ValueError(
                    "compress_batch requires uniform shape/dtype, got "
                    f"{a.shape}/{a.dtype} vs {shape}/{dtype}"
                )

        maxbits = record_bits(self.rate, ndim, dtype)
        block_shape = (4,) * ndim
        grid_shape = block_grid(shape, block_shape)
        nblocks = int(np.prod(grid_shape))
        n = len(arrays)
        # The batch staging lives in scratch (capacity only grows), so a
        # fluctuating batch size N reaches a zero-alloc steady state
        # instead of rebinding an exact-shape buffer every flush.
        ctx = self.cache.get(("zfp", shape, dtype.str, maxbits), pin=True)
        try:
            batch = ctx.scratch("batch", n * nblocks * 4**ndim, dtype).reshape(
                (n * nblocks,) + block_shape
            )
            with span("zfp.blockize", cat="zfp", arrays=n, blocks=n * nblocks):
                # One call for the flush: the arrays stacked on a leading
                # axis of blocks one deep, whose C-order block walk is
                # each array's own walk, array after array.
                stacked = arrays[0][None] if n == 1 else np.stack(arrays)
                blockize(
                    stacked, (1,) + block_shape, pad_mode="edge",
                    out=batch.reshape((n * nblocks, 1) + block_shape),
                )
            records = self._launch(_ZfpEncodeFunctor(ndim, maxbits, dtype), batch)
        finally:
            self.cache.release(ctx)
        with span("zfp.serialize", cat="zfp", nblocks=n * nblocks, arrays=n):
            header = _HEADER.pack(
                int(dtype == np.float64), ndim, self.rate, maxbits
            ) + pack_shape(shape)
            per_array = records.reshape(n, nblocks, -1)
            blobs = [header + per_array[i].tobytes() for i in range(n)]
        count_bytes("zfp", n * first.nbytes, sum(len(b) for b in blobs))
        return blobs

    @stream_errors
    def decompress_batch(self, blobs: Sequence[bytes]) -> list[np.ndarray]:
        """Decompress N uniform ZFP-X streams in one GEM launch.

        Every stream must carry a byte-identical header (same shape,
        dtype and rate); otherwise ``ValueError`` and callers fall back
        per stream.
        """
        blobs = list(blobs)
        if not blobs:
            return []
        dtype, shape, maxbits, first = open_records(_HEADER, blobs[0])
        off = _HEADER.size + 8 * len(shape)
        header = bytes(blobs[0][:off])
        for b in blobs[1:]:
            if bytes(b[:off]) != header:
                raise ValueError(
                    "decompress_batch requires uniform stream headers"
                )
        nblocks, rec_bytes = first.shape
        grid_shape = block_grid(shape, (4,) * len(shape))
        n = len(blobs)

        ctx = self.cache.get(("zfp", shape, dtype.str, maxbits), pin=True)
        try:
            # Sized by the first stream's checked records; a short twin
            # fails its view before a byte is copied.
            size = first.size
            records = ctx.scratch("records", n * size, np.uint8).reshape(n, size)
            with span("zfp.gather", cat="zfp", arrays=n, blocks=n * nblocks):
                for i, b in enumerate(blobs):
                    records[i] = np.frombuffer(b, np.uint8, size, off)
            blocks = self._launch(
                _ZfpDecodeFunctor(len(shape), maxbits, dtype),
                records.reshape(n * nblocks, rec_bytes),
            )
        finally:
            self.cache.release(ctx)
        return list(unblockize(
            blocks.reshape((n * nblocks, 1) + blocks.shape[1:]),
            (n,) + grid_shape, (n,) + tuple(shape),
        ))

    # -- reporting helpers ------------------------------------------------
    def compression_ratio(self, data: np.ndarray, blob: bytes) -> float:
        return data.nbytes / len(blob)

    def expected_ratio(self, ndim: int, dtype=np.float32) -> float:
        """Nominal ratio from the rate alone (ignores headers/padding)."""
        bits_per_value = np.dtype(dtype).itemsize * 8
        stored_bits = 8 * (-(-record_bits(self.rate, ndim, dtype) // 8))
        return bits_per_value * 4**ndim / stored_bits
