"""Block-floating-point conversion (ZFP step 1: exponent alignment).

Each 4^d block aligns all values to the block's maximum exponent and
converts to two's-complement fixed point with ``q`` integer bits of
headroom (q = 30 for FP32 / 62 for FP64, mirroring zfp), guaranteeing
the subsequent integer lifting transform cannot overflow.

Like every ZFP kernel these work on coefficient-major batches,
``(4**ndim, nblocks)``: a per-block quantity is a reduction over rows
and a per-block scale broadcasts along the contiguous axis.
"""

from __future__ import annotations

import numpy as np

#: fixed-point precision q per source dtype (zfp's intprec - 2).
Q_BITS = {np.dtype(np.float32): 30, np.dtype(np.float64): 62}
#: exponent field width per source dtype.
E_BITS = {np.dtype(np.float32): 8, np.dtype(np.float64): 11}
#: exponent bias per source dtype.
E_BIAS = {np.dtype(np.float32): 127, np.dtype(np.float64): 1023}


def block_exponents(blocks: np.ndarray) -> np.ndarray:
    """Per-block maximum exponent ``emax`` with ``max|v| < 2^emax``.

    ``blocks`` is ``(block_size, nblocks)`` float.  All-zero blocks get
    the minimum representable exponent (they encode as a zero flag).
    """
    absmax = np.max(np.abs(blocks), axis=0)
    emax = np.zeros(blocks.shape[1], dtype=np.int32)
    nz = absmax > 0
    # frexp: absmax = m * 2^e with m in [0.5, 1)  =>  absmax < 2^e.
    _, e = np.frexp(absmax[nz])
    emax[nz] = e
    bias = E_BIAS[np.dtype(blocks.dtype)]
    emax[~nz] = -bias
    return np.clip(emax, -bias + 1, bias)


def to_fixed_point(blocks: np.ndarray, emax: np.ndarray,
                   exact: bool = False) -> np.ndarray:
    """Scale each block by ``2^(q - emax)`` and truncate to int64.

    Values satisfy ``|x| < 2^q`` afterwards, so the decorrelating
    transform's bounded amplification stays inside 64-bit integers.
    The scale exponent is clamped at 1023, which flushes float64 blocks
    under ``2^(q - 1023)``; ``exact`` scales those blocks in two exact
    power-of-two steps instead (fix-accuracy mode, whose tolerance is a
    guarantee — the fixed-rate and fixed-precision streams keep the
    clamp).
    """
    dtype = np.dtype(blocks.dtype)
    if dtype not in Q_BITS:
        raise TypeError(f"unsupported dtype {dtype}; use float32/float64")
    q = Q_BITS[dtype]
    exp = q - emax
    scale = np.ldexp(np.ones_like(emax, dtype=np.float64), np.minimum(exp, 1023))
    # One pass: the product is formed in float64 and truncated on store.
    out = np.empty(blocks.shape, dtype=np.int64)
    np.multiply(blocks, scale, out=out, dtype=np.float64, casting="unsafe")
    big = exp > 1023
    if exact and big.any():
        step = blocks[:, big].astype(np.float64) * 2.0**1023
        out[:, big] = step * np.ldexp(1.0, exp[big] - 1023)
    return out


def from_fixed_point(
    iblocks: np.ndarray, emax: np.ndarray, dtype: np.dtype,
    exact: bool = False,
) -> np.ndarray:
    """Invert :func:`to_fixed_point` (up to the truncation)."""
    dtype = np.dtype(dtype)
    q = Q_BITS[dtype]
    exp = emax - q
    scale = np.ldexp(np.ones_like(emax, dtype=np.float64),
                     np.maximum(exp, -1074))
    out = np.empty(iblocks.shape, dtype=dtype)
    np.multiply(iblocks, scale, out=out, dtype=np.float64, casting="unsafe")
    # The mirror of the exact two-step scale: an exact step into range,
    # then one rounding multiply.
    tiny = exp < -1074
    if exact and tiny.any():
        step = iblocks[:, tiny] * np.ldexp(1.0, exp[tiny] + 64)
        out[:, tiny] = step * 2.0**-64
    return out
