"""ZFP's other two compression modes (paper Section IV-C).

The paper implements only fix-rate mode ("the other two modes can be
implemented similarly"); this module supplies them:

* **fix-precision** — every block keeps exactly ``precision`` bitplanes.
  Records remain fixed-size, so the implementation is the fix-rate
  machinery with a plane-derived budget.
* **fix-accuracy** — every block keeps as many planes as its exponent
  requires to meet an *absolute* error tolerance.  Record sizes vary per
  block; blocks are grouped by plane count so encoding/decoding stays
  vectorized (at most ``intprec`` groups).

Both reuse the fix-rate building blocks: block-floating-point, the
near-orthogonal transform and the negabinary bitplane coder.
"""

from __future__ import annotations

import math

import numpy as np

from repro.container import Header, pack_shape
from repro.core.abstractions import blockize, unblockize
from repro.compressors.zfp.bitplane import INTPREC, decode_blocks, encode_blocks
from repro.compressors.zfp.compressor import ZFPX, analyze, check_input, synthesize
from repro.compressors.zfp.fixedpoint import E_BITS, Q_BITS
from repro.util import stream_errors

#: float64 flag, ndim, tolerance; then the shape, one plane count per
#: block, and the variable-size records.
_HEADER = Header(b"ZFPA", 1, "BBd", "ZFP fix-accuracy")


def planes_for_tolerance(
    emax: np.ndarray, tolerance: float, ndim: int, dtype: np.dtype
) -> np.ndarray:
    """Bitplanes each block must keep for an absolute tolerance.

    In the block's fixed-point domain (scale ``2^(emax-q)``), dropping
    everything below plane *j* perturbs a coefficient by at most
    ``~2^(j+1)``; the inverse transform amplifies by at most ``~2^ndim``.
    Solving for the largest droppable *j* gives the kept-plane count,
    clamped to ``[0, intprec]``.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    dtype = np.dtype(dtype)
    q = Q_BITS[dtype]
    width = INTPREC[dtype]
    # error_int ≤ 2^(j+1+ndim) · 2^(emax-q)  ≤  tol, plus two guard
    # planes for the lifting's shift truncation and negabinary rounding
    # (worst observed err/tol with this margin is ~0.55 over randomized
    # shapes/dtypes/magnitudes — see tests/compressors/test_zfp_modes.py)
    # ⇒ j ≤ log2(tol) - emax + q - ndim - 3
    j = np.floor(np.log2(tolerance) - emax.astype(np.float64) + q - ndim - 3)
    kept = width - 1 - j  # planes width-1 … j+1 are kept
    return np.clip(kept, 0, width).astype(np.int64)


class ZFPAccuracy:
    """Fix-accuracy ZFP: absolute error tolerance, variable-size blocks."""

    def __init__(self, tolerance: float, adapter=None) -> None:
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        self.tolerance = float(tolerance)
        self.adapter = adapter  # uniform API; encoding is grouped/vectorized

    # ------------------------------------------------------------------
    def compress(self, data: np.ndarray) -> bytes:
        data = np.asarray(data, order="C")   # a 0-d input stays 0-d: refused
        dtype = np.dtype(data.dtype)
        ndim = data.ndim
        check_input(dtype, data.shape, _HEADER.who)
        bs = 4**ndim
        e_bits = E_BITS[dtype]

        batch, grid = blockize(data, (4,) * ndim, pad_mode="edge")
        coeffs, emax = analyze(batch, ndim)

        kept = planes_for_tolerance(emax, self.tolerance, ndim, dtype)
        # Blocks whose fixed-point scale hit the clamp are redone with
        # the exact two-step scale when they keep planes; the rest code
        # no planes, so their records stay as the clamp left them.
        redo = (kept > 0) & (Q_BITS[dtype] - emax > 1023)
        if redo.any():
            coeffs[:, redo] = analyze(batch[redo], ndim, exact=True)[0]
        # All-zero blocks need no planes.
        kept[~np.any(coeffs != 0, axis=0)] = 0

        nblocks = coeffs.shape[1]
        records: list[bytes | None] = [None] * nblocks
        for k in np.unique(kept):
            idx = np.flatnonzero(kept == k)
            maxbits = 1 + e_bits + int(k) * bs
            recs = encode_blocks(coeffs[:, idx], emax[idx], maxbits, dtype)
            for j, block_id in enumerate(idx):
                records[block_id] = recs[j].tobytes()

        header = _HEADER.pack(
            1 if dtype == np.float64 else 0, ndim, self.tolerance
        ) + pack_shape(data.shape)
        counts = kept.astype(np.uint8).tobytes()
        payload = b"".join(records)  # type: ignore[arg-type]
        return header + counts + payload

    # ------------------------------------------------------------------
    @stream_errors
    def decompress(self, blob: bytes) -> np.ndarray:
        (is64, ndim, _tolerance), r = _HEADER.open(blob)
        dtype = np.dtype(np.float64 if is64 else np.float32)
        shape = r.shape(ndim)
        check_input(dtype, shape, _HEADER.who)
        e_bits = E_BITS[dtype]
        bs = 4**ndim
        grid = tuple(-(-n // 4) for n in shape)
        nblocks = math.prod(grid)

        # One plane count per block, then every record: both checked
        # against the bytes present before a block is decoded.
        kept = r.array(np.uint8, nblocks).astype(np.int64)
        rec_bytes = (1 + e_bits + kept * bs + 7) // 8
        body = r.array(np.uint8, int(rec_bytes.sum()))
        offsets = np.concatenate([[0], np.cumsum(rec_bytes)])

        coeffs = np.zeros((bs, nblocks), dtype=np.int64)
        emax = np.full(nblocks, 0, dtype=np.int32)
        for k in np.unique(kept):
            idx = np.flatnonzero(kept == k)
            maxbits = 1 + e_bits + int(k) * bs
            nb = (maxbits + 7) // 8
            recs = np.stack([body[offsets[i] : offsets[i] + nb] for i in idx])
            c, e = decode_blocks(recs, maxbits, bs, dtype)
            coeffs[:, idx] = c
            emax[idx] = e

        return unblockize(synthesize(coeffs, emax, ndim, dtype, exact=True), grid, tuple(shape))

    def compression_ratio(self, data: np.ndarray, blob: bytes) -> float:
        return data.nbytes / len(blob)

    def max_error(self, data: np.ndarray, blob: bytes) -> float:
        back = self.decompress(blob)
        return float(np.max(np.abs(back.astype(np.float64) - data.astype(np.float64))))


class ZFPPrecision:
    """Fix-precision ZFP: every block keeps exactly ``precision`` planes.

    Records stay fixed-size, so this is the fix-rate machinery with the
    budget expressed in planes rather than bits per value.
    """

    def __init__(self, precision: int, adapter=None) -> None:
        if precision < 1 or precision > 64:
            raise ValueError(f"precision must be in [1, 64], got {precision}")
        self.precision = int(precision)
        self.adapter = adapter

    def _as_rate(self, ndim: int, dtype: np.dtype) -> ZFPX:
        dtype = np.dtype(dtype)
        bs = 4**ndim
        precision = min(self.precision, INTPREC[dtype])
        rate = precision + (1 + E_BITS[dtype]) / bs
        return ZFPX(rate=rate, adapter=self.adapter)

    def compress(self, data: np.ndarray) -> bytes:
        return self._as_rate(np.ndim(data), np.asarray(data).dtype).compress(data)

    def decompress(self, blob: bytes) -> np.ndarray:
        return ZFPX(adapter=self.adapter).decompress(blob)

    def compression_ratio(self, data: np.ndarray, blob: bytes) -> float:
        return data.nbytes / len(blob)
