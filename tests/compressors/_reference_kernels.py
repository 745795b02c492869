"""Reference kernels: the bodies the fast kernels replaced (tests only).

Each function here is the slow, obviously-right formulation the source
tree used before the key coder, the multilevel operators and the ZFP
block kernels were rewritten around fewer array passes (or, for the key
decoder and the Thomas sweep, around fewer array calls).  ``test_kernel_oracles.py`` asserts
the fast kernels equal them bit for bit; nothing in ``src/`` imports
this module.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Huffman: code lengths and bit packing
# ---------------------------------------------------------------------------
def reference_tree_depths(freqs: np.ndarray) -> np.ndarray:
    """Unlimited Huffman code lengths by the two-queue merge, popping
    one node at a time (a tie between the queues takes the leaf).

    Needs at least two used symbols; the result is what
    ``huffman_code_lengths`` hands to its length limiter.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    nonzero = np.flatnonzero(freqs)
    order = nonzero[np.argsort(freqs[nonzero], kind="stable")]
    n = order.size
    leaf_w = freqs[order]
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    internal_w: list[int] = []
    li = 0  # next leaf
    ii = 0  # next unconsumed internal node
    next_id = n

    def _pop_min() -> int:
        nonlocal li, ii
        take_leaf = li < n and (
            ii >= len(internal_w) or int(leaf_w[li]) <= internal_w[ii]
        )
        if take_leaf:
            node = li
            li += 1
            return node
        node = n + ii
        ii += 1
        return node

    def _weight_of(node: int) -> int:
        return int(leaf_w[node]) if node < n else internal_w[node - n]

    while (n - li) + (len(internal_w) - ii) > 1:
        a = _pop_min()
        b = _pop_min()
        parent[a] = next_id
        parent[b] = next_id
        internal_w.append(_weight_of(a) + _weight_of(b))
        next_id += 1

    depth = np.zeros(2 * n - 1, dtype=np.int64)
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths = np.zeros(freqs.size, dtype=np.int64)
    lengths[order] = depth[:n]
    return lengths


def reference_limit_lengths(lengths: np.ndarray, max_len: int) -> np.ndarray:
    """Clamp to ``max_len`` and repair the Kraft sum one step at a time:
    each round lengthens the longest code still under ``max_len`` (the
    lowest symbol among equals) by one bit."""
    lengths = lengths.astype(np.int64)
    used = lengths > 0
    over = lengths > max_len
    if not over.any():
        return lengths.astype(np.uint8)
    lengths[over] = max_len
    kraft = int(np.sum(2 ** (max_len - lengths[used])))
    budget = 1 << max_len
    while kraft > budget:
        candidates = np.flatnonzero(used & (lengths < max_len))
        pick = candidates[np.argmax(lengths[candidates])]
        kraft -= 2 ** (max_len - lengths[pick] - 1)
        lengths[pick] += 1
    return lengths.astype(np.uint8)


def reference_pack_bits(codes, lengths) -> np.ndarray:
    """Contiguous MSB-first stream of ``codes``, one bit at a time."""
    bits = []
    for code, length in zip(map(int, codes), map(int, lengths)):
        bits.extend((code >> (length - 1 - j)) & 1 for j in range(length))
    return np.packbits(np.array(bits, dtype=np.uint8))


def reference_decode_keys(book, payload, offsets, n: int, chunk: int):
    """One ``HUFX`` stream's ``n`` keys, decoded alone one step at a time
    across its chunks: each lane reads the ``width`` bits at its bit
    position, most significant first and zero past the payload's end,
    looks the window up in the codebook's table and moves on by the
    code's length."""
    width = max(1, book.max_length)
    symbols, lengths, _ = book.decode_table(width)
    bits = np.concatenate([np.unpackbits(np.asarray(payload, dtype=np.uint8)),
                           np.zeros(width, dtype=np.uint8)])
    weights = 1 << np.arange(width - 1, -1, -1)
    pos = np.asarray(offsets, dtype=np.int64).copy()
    keys = np.zeros((pos.size, chunk), dtype=np.int64)
    for step in range(chunk):
        at = np.minimum(pos, bits.size - width)
        window = bits[at[:, None] + np.arange(width)] @ weights
        keys[:, step] = symbols[window]
        pos += lengths[window]
    return keys.reshape(-1)[:n]


# ---------------------------------------------------------------------------
# MGARD: 1-D operators through explicit index arrays
# ---------------------------------------------------------------------------
def _neighbours(level):
    """Per fine-only node: neighbour indices on the fine grid and their
    positions on the coarse grid, looked up rather than assumed."""
    left_idx = level.fine_idx - 1
    right_idx = level.fine_idx + 1
    coarse_pos_of = np.full(level.n, -1, dtype=np.int64)
    coarse_pos_of[level.coarse_idx] = np.arange(level.coarse_idx.size)
    assert (coarse_pos_of[left_idx] >= 0).all()
    assert (coarse_pos_of[right_idx] >= 0).all()
    return left_idx, right_idx, coarse_pos_of[left_idx], coarse_pos_of[right_idx]


def _bshape(w: np.ndarray, ndim: int) -> np.ndarray:
    return w.reshape((-1,) + (1,) * (ndim - 1))


def reference_lerp_fill(u: np.ndarray, level, axis: int) -> None:
    v = np.moveaxis(u, axis, 0)
    left_idx, right_idx, _, _ = _neighbours(level)
    wl = _bshape(level.wl, v.ndim)
    wr = _bshape(level.wr, v.ndim)
    v[level.fine_idx] = wl * v[left_idx] + wr * v[right_idx]


def reference_mass_apply(u: np.ndarray, level, axis: int) -> np.ndarray:
    v = np.moveaxis(u, axis, 0)
    hL = _bshape(np.diff(level.coords), v.ndim)
    y = np.empty_like(v)
    y[1:-1] = (
        hL[:-1] * (v[:-2] + 2.0 * v[1:-1]) + hL[1:] * (2.0 * v[1:-1] + v[2:])
    ) / 6.0
    y[0] = hL[0] * (2.0 * v[0] + v[1]) / 6.0
    y[-1] = hL[-1] * (v[-2] + 2.0 * v[-1]) / 6.0
    return np.moveaxis(y, 0, axis)


def reference_restrict(y: np.ndarray, level, axis: int) -> np.ndarray:
    v = np.moveaxis(y, axis, 0)
    _, _, left_pos, right_pos = _neighbours(level)
    b = v[level.coarse_idx].copy()
    yf = v[level.fine_idx]
    np.add.at(b, left_pos, _bshape(level.wl, v.ndim) * yf)
    np.add.at(b, right_pos, _bshape(level.wr, v.ndim) * yf)
    return np.moveaxis(b, 0, axis)


def reference_mass_trans(u: np.ndarray, level, axis: int) -> np.ndarray:
    """The paper's ``mass_trans`` as the two passes it fuses: the full
    fine-grid mass product, then the restriction."""
    return reference_restrict(reference_mass_apply(u, level, axis), level, axis)


def reference_prolong(b: np.ndarray, level, axis: int) -> np.ndarray:
    v = np.moveaxis(b, axis, 0)
    left_idx, right_idx, _, _ = _neighbours(level)
    out = np.zeros((level.n,) + v.shape[1:], dtype=b.dtype)
    out[level.coarse_idx] = v
    out[level.fine_idx] = (
        _bshape(level.wl, v.ndim) * out[left_idx]
        + _bshape(level.wr, v.ndim) * out[right_idx]
    )
    return np.moveaxis(out, 0, axis)


def reference_thomas_solve(dprime, c, vectors: np.ndarray) -> np.ndarray:
    """Prefactored Thomas sweeps over ``(nvec, n)`` vectors, one column
    of the row-major copy per recurrence step."""
    n = vectors.shape[1]
    w = np.empty_like(dprime)
    w[0] = 0.0
    if c.size:
        w[1:] = c / dprime[:-1]
    x = np.array(vectors, dtype=np.float64, copy=True)
    dp = dprime
    for i in range(1, n):
        x[:, i] -= w[i] * x[:, i - 1]
    x[:, n - 1] /= dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[:, i] = (x[:, i] - c[i] * x[:, i + 1]) / dp[i]
    return x


# ---------------------------------------------------------------------------
# MGARD: zigzag symbols through ``where`` and a boolean gather
# ---------------------------------------------------------------------------
def reference_to_symbols(q: np.ndarray, dict_size: int):
    q = q.astype(np.int64)
    z = (q << 1) ^ (q >> 63)
    fits = z < dict_size - 1
    return np.where(fits, z + 1, 0), q[~fits]


def reference_from_symbols(symbols: np.ndarray, outliers: np.ndarray) -> np.ndarray:
    symbols = symbols.astype(np.int64)
    escaped = symbols == 0
    z = symbols - 1
    q = (z >> 1) ^ -(z & 1)
    q[escaped] = outliers
    return q


# ---------------------------------------------------------------------------
# ZFP: block-major lifting, one byte per bit in the plane coder
# ---------------------------------------------------------------------------
_ZFP = {  # dtype -> (negabinary width, exponent bits, exponent bias, q)
    np.dtype(np.float32): (32, 8, 127, 30),
    np.dtype(np.float64): (64, 11, 1023, 62),
}


def reference_block_exponents(blocks: np.ndarray) -> np.ndarray:
    """Block-major ``(nblocks, block_size)`` floats to ``emax``."""
    bias = _ZFP[np.dtype(blocks.dtype)][2]
    absmax = np.max(np.abs(blocks), axis=1)
    emax = np.zeros(blocks.shape[0], dtype=np.int32)
    nz = absmax > 0
    _, e = np.frexp(absmax[nz])
    emax[nz] = e
    emax[~nz] = -bias
    return np.clip(emax, -bias + 1, bias)


def reference_to_fixed_point(blocks: np.ndarray, emax: np.ndarray) -> np.ndarray:
    q = _ZFP[np.dtype(blocks.dtype)][3]
    exp = np.minimum(q - emax, 1023)
    scale = np.ldexp(np.ones_like(emax, dtype=np.float64), exp)
    return (blocks.astype(np.float64) * scale[:, None]).astype(np.int64)


def reference_from_fixed_point(iblocks, emax, dtype) -> np.ndarray:
    q = _ZFP[np.dtype(dtype)][3]
    exp = np.maximum(emax - q, -1074)
    scale = np.ldexp(np.ones_like(emax, dtype=np.float64), exp)
    return (iblocks.astype(np.float64) * scale[:, None]).astype(dtype)


def reference_fwd_lift(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Forward lifting along one length-4 axis of an int64 array."""
    v = np.moveaxis(v, axis, -1)
    x = v[..., 0].copy()
    y = v[..., 1].copy()
    z = v[..., 2].copy()
    w = v[..., 3].copy()

    x += w; x >>= 1; w -= x
    z += y; z >>= 1; y -= z
    x += z; x >>= 1; z -= x
    w += y; w >>= 1; y -= w
    w += y >> 1; y -= w >> 1

    out = np.stack([x, y, z, w], axis=-1)
    return np.moveaxis(out, -1, axis)


def reference_inv_lift(v: np.ndarray, axis: int = -1) -> np.ndarray:
    v = np.moveaxis(v, axis, -1)
    x = v[..., 0].copy()
    y = v[..., 1].copy()
    z = v[..., 2].copy()
    w = v[..., 3].copy()

    y += w >> 1; w -= y >> 1
    y += w; w <<= 1; w -= y
    z += x; x <<= 1; x -= z
    y += z; z <<= 1; z -= y
    w += x; x <<= 1; x -= w

    out = np.stack([x, y, z, w], axis=-1)
    return np.moveaxis(out, -1, axis)


def reference_fwd_transform(iblocks: np.ndarray, ndim: int) -> np.ndarray:
    """Block-major ``(nblocks, 4**ndim)`` in, sequency order out."""
    from repro.compressors.zfp.transform import sequency_order

    n = iblocks.shape[0]
    v = iblocks.reshape((n,) + (4,) * ndim).astype(np.int64)
    for axis in range(1, ndim + 1):
        v = reference_fwd_lift(v, axis=axis)
    return v.reshape(n, 4**ndim)[:, sequency_order(ndim)]


def reference_inv_transform(coeffs: np.ndarray, ndim: int) -> np.ndarray:
    from repro.compressors.zfp.transform import sequency_order

    n = coeffs.shape[0]
    perm = sequency_order(ndim)
    unperm = np.empty_like(perm)
    unperm[perm] = np.arange(perm.size, dtype=np.intp)
    v = coeffs[:, unperm].reshape((n,) + (4,) * ndim).astype(np.int64)
    for axis in range(ndim, 0, -1):
        v = reference_inv_lift(v, axis=axis)
    return v.reshape(n, 4**ndim)


_NB = 0xAAAAAAAAAAAAAAAA


def reference_to_negabinary(x: np.ndarray, width: int) -> np.ndarray:
    wmask = np.uint64((1 << width) - 1)
    mask = np.uint64(_NB) & wmask
    u = x.astype(np.int64, copy=False).view(np.uint64) & wmask
    return ((u + mask) ^ mask) & wmask


def reference_from_negabinary(u: np.ndarray, width: int) -> np.ndarray:
    wmask = np.uint64((1 << width) - 1)
    mask = np.uint64(_NB) & wmask
    w = ((u.astype(np.uint64, copy=False) ^ mask) - mask) & wmask
    x = w.view(np.int64)
    if width < 64:
        sign = np.uint64(1) << np.uint64(width - 1)
        x = np.where((w & sign) != 0, (w | ~wmask).view(np.int64), x)
    return x.astype(np.int64, copy=False)


def _window_bits(nplanes: int, width: int) -> int:
    """Smallest byte-aligned window >= ``nplanes`` (for packbits I/O)."""
    for w in (16, 32, 64):
        if nplanes <= w <= width:
            return w
    return width


def reference_encode_blocks(coeffs, emax, maxbits: int, dtype) -> np.ndarray:
    """Block-major ``(nblocks, block_size)`` coefficients to records,
    through a ``(nblocks, maxbits)`` array holding one bit per byte."""
    width, e_bits, bias, _ = _ZFP[np.dtype(dtype)]
    nblocks, bs = coeffs.shape
    neg = reference_to_negabinary(coeffs, width)

    nonzero = np.any(coeffs != 0, axis=1)
    ebiased = (emax.astype(np.int64) + bias).astype(np.uint64)

    bits = np.zeros((nblocks, maxbits), dtype=np.uint8)
    bits[:, 0] = nonzero
    for i in range(e_bits):  # exponent, MSB first
        shift = np.uint64(e_bits - 1 - i)
        bits[:, 1 + i] = ((ebiased >> shift) & np.uint64(1)).astype(np.uint8)

    plane_bits = max(0, maxbits - 1 - e_bits)
    nplanes = min(width, -(-plane_bits // bs)) if plane_bits else 0
    if nplanes:
        w = _window_bits(nplanes, width)
        win = (neg >> np.uint64(width - w)).astype(f">u{w // 8}", order="C")
        unpacked = np.unpackbits(
            win.view(np.uint8).reshape(nblocks, bs * (w // 8)), axis=1
        )
        planes = unpacked.reshape(nblocks, bs, w).transpose(0, 2, 1)[:, :nplanes, :]
        flat = planes.reshape(nblocks, nplanes * bs)[:, :plane_bits]
        bits[:, 1 + e_bits : 1 + e_bits + flat.shape[1]] = flat
    bits[~nonzero, 1:] = 0
    return np.packbits(bits, axis=1)


def reference_decode_blocks(records, maxbits: int, block_size: int, dtype):
    """Records to block-major ``(coeffs, emax)``."""
    width, e_bits, bias, _ = _ZFP[np.dtype(dtype)]
    nblocks = records.shape[0]
    bits = np.unpackbits(records, axis=1)[:, :maxbits]

    nonzero = bits[:, 0].astype(bool)
    ebiased = np.zeros(nblocks, dtype=np.uint64)
    for i in range(e_bits):
        ebiased = (ebiased << np.uint64(1)) | bits[:, 1 + i].astype(np.uint64)
    emax = ebiased.astype(np.int64) - bias

    plane_bits = max(0, maxbits - 1 - e_bits)
    nplanes = min(width, -(-plane_bits // block_size)) if plane_bits else 0
    neg = np.zeros((nblocks, block_size), dtype=np.uint64)
    if nplanes:
        payload = np.zeros((nblocks, nplanes * block_size), dtype=np.uint8)
        avail = min(plane_bits, nplanes * block_size)
        payload[:, :avail] = bits[:, 1 + e_bits : 1 + e_bits + avail]
        planes = payload.reshape(nblocks, nplanes, block_size)
        w = _window_bits(nplanes, width)
        arranged = np.zeros((nblocks, block_size, w), dtype=np.uint8)
        arranged[:, :, :nplanes] = planes.transpose(0, 2, 1)
        packed = np.packbits(arranged.reshape(nblocks, block_size * w), axis=1)
        vals = packed.reshape(nblocks, block_size, w // 8).view(f">u{w // 8}")
        neg = vals.reshape(nblocks, block_size).astype(np.uint64) << np.uint64(
            width - w
        )
    coeffs = reference_from_negabinary(neg, width)
    coeffs[~nonzero] = 0
    emax[~nonzero] = -bias
    return coeffs, emax.astype(np.int32)
