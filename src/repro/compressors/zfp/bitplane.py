"""Negabinary conversion and fixed-rate bitplane coding.

Transformed coefficients are mapped from two's complement to negabinary
(zfp's trick: small-magnitude values of either sign get leading zero
bits), then serialized plane-by-plane from the most significant plane.
Fix-rate mode truncates each block's stream at exactly ``maxbits`` bits:
all blocks emit the same size, so — as the paper notes for Algorithm 3 —
serialization needs no global coordination.

Negabinary width follows zfp's ``intprec``: 32 bits for FP32 blocks and
64 for FP64, so the plane budget is spent only on meaningful planes.

Per-block layout (bit granularity, zero-padded to whole bytes):

    [1 bit nonzero flag][e_bits biased emax][bitplane bits ...]

Coefficients arrive coefficient-major, ``(block_size, nblocks)``; the
stream nests the other way, plane after plane of ``block_size`` bits.
That bit-matrix transpose runs on words, never on one byte per bit: the
bytes of equal significance of eight coefficients form one ``uint64``
(an 8x8 bit matrix, row = coefficient, column = plane), three masked
swaps flip it across its anti-diagonal, and its bytes are then eight
consecutive planes of that coefficient group; the flip is its own
inverse, so decoding runs the same swaps.  Only the ``ceil(nplanes/8)``
byte lanes holding kept planes are touched, and one two-word shift over
the record makes room for the header.  A 1-D block (half a byte per
plane) goes as eight rows — its four values, then the four shifted up
one bit — so every second flipped byte is stream.  DESIGN.md §3.1
argues the exactness.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.zfp.fixedpoint import E_BIAS, E_BITS
from repro.util import hot_path

#: bitplane count (zfp intprec) per source dtype.
INTPREC = {np.dtype(np.float32): 32, np.dtype(np.float64): 64}

#: unsigned type as wide as the planes; stream words are big-endian.
_UINT = {32: np.dtype("<u4"), 64: np.dtype("<u8")}
_U64 = _UINT[64]
_BE64 = np.dtype(">u8")
#: the negabinary mask ...1010, per width.
_NBMASK = {w: t.type(0xAAAAAAAAAAAAAAAA & ((1 << w) - 1)) for w, t in _UINT.items()}

#: The swaps that flip an 8x8 bit matrix (byte r of a word = row r)
#: across its anti-diagonal: cells in 2x2 tiles, 2x2 in 4x4, 4x4 in 8x8.
_FLIP = (
    (np.uint64(9), np.uint64(0x0055005500550055)),
    (np.uint64(18), np.uint64(0x0000333300003333)),
    (np.uint64(36), np.uint64(0x000000000F0F0F0F)),
)


@hot_path(reason="runs over every coefficient on the zfp encode path")
def to_negabinary(x: np.ndarray, width: int = 64) -> np.ndarray:
    """Two's complement → negabinary, modulo ``2^width`` (invertible):
    a ``uint32`` / ``uint64`` array, whose cast and arithmetic wrap so."""
    # hpdrlint: disable=HPL001 — result handed to the caller
    u = np.asarray(x, dtype=np.int64).astype(_UINT[width], order="C")
    mask = _NBMASK[width]
    u += mask
    u ^= mask
    return u


def _from_negabinary(u: np.ndarray) -> np.ndarray:
    """Negabinary → two's complement in place; the signed view of ``u``."""
    mask = _NBMASK[8 * u.itemsize]
    u ^= mask
    u -= mask
    return u.view(f"<i{u.itemsize}")


@hot_path(reason="runs over every coefficient on the zfp decode path")
def from_negabinary(u: np.ndarray, width: int = 64) -> np.ndarray:
    """Inverse of :func:`to_negabinary`, sign-extended to int64."""
    # hpdrlint: disable=HPL001 — result handed to the caller
    x = _from_negabinary(np.asarray(u).astype(_UINT[width]))
    return x.astype(np.int64, copy=False)


def _flip8x8(words: np.ndarray) -> None:
    """Anti-diagonal flip of every 8x8 bit matrix in ``words``, in place."""
    t = np.empty_like(words)
    for shift, mask in _FLIP:
        np.right_shift(words, shift, out=t)
        t ^= words
        t &= mask
        words ^= t
        t <<= shift
        words ^= t


def _bytes(a: np.ndarray) -> np.ndarray:
    """``a.shape + (itemsize,)`` byte view, least significant byte first."""
    return a.view(np.uint8).reshape(a.shape + (a.itemsize,))


def _lanes(values: np.ndarray, nlanes: int) -> np.ndarray:
    """Byte view ``(lane, group, block, row)`` of ``(8 * groups, nblocks)``
    unsigned ``values``: each value's ``nlanes`` most significant bytes,
    most significant first (lane ``l`` holds planes ``8l .. 8l+7``)."""
    rows, n = values.shape
    top = values.itemsize
    by = _bytes(values).reshape(rows // 8, 8, n, top)
    return by[..., top - nlanes:top][..., ::-1].transpose(3, 0, 2, 1)


def _copy_lanes(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src`` a lane at a time: left in the copy, the lane
    axis (a few bytes, unit stride) becomes NumPy's inner loop."""
    for lane in range(dst.shape[0]):
        dst[lane] = src[lane]


class _Layout:
    """Where the bits of one ``maxbits``-bit record go."""

    def __init__(self, maxbits: int, block_size: int, dtype: np.dtype) -> None:
        self.width = INTPREC[dtype]
        self.e_bits = E_BITS[dtype]
        self.bias = E_BIAS[dtype]
        self.head = 1 + self.e_bits
        plane_bits = max(0, maxbits - self.head)
        nplanes = min(self.width, -(-plane_bits // block_size))
        #: payload bits kept: whole planes, the last maybe cut short.
        self.paybits = min(plane_bits, nplanes * block_size)
        self.nlanes = -(-nplanes // 8)
        #: matrix rows (a 1-D block twice); every ``step``-th byte is stream.
        self.rows = max(block_size, 8)
        self.step = self.rows // block_size
        self.nwords = -(-maxbits // 64)
        self.nbytes = -(-maxbits // 8)
        #: stream bytes the kept lanes expand to (may overshoot the record).
        self.lane_bytes = self.nlanes * block_size
        self.stream_words = max(self.nwords, -(-self.lane_bytes // 8))

    def stream(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """A zeroed big-endian payload buffer, ``(n, stream_words)``, and
        its ``(block, lane, plane, group)`` byte view over the lanes."""
        buf = np.zeros((n, self.stream_words), dtype=_BE64)
        by = buf.view(np.uint8)[:, :self.lane_bytes]
        return buf, by.reshape(n, self.nlanes, 8 // self.step, self.rows // 8)

    def planes(self, words: np.ndarray) -> np.ndarray:
        """Bytes of flipped ``(lane, group, block)`` words, as in :meth:`stream`."""
        return _bytes(words).transpose(2, 0, 3, 1)[:, :, ::self.step]

    def truncate(self, pay: np.ndarray) -> None:
        """Zero the bits of native payload words past ``paybits``."""
        last, used = divmod(self.paybits, 64)
        if last < pay.shape[1]:
            pay[:, last] &= np.uint64(0xFFFFFFFFFFFFFFFF ^ ((1 << (64 - used)) - 1))
            pay[:, last + 1:] = 0


def encode_blocks(
    coeffs: np.ndarray,
    emax: np.ndarray,
    maxbits: int,
    dtype: np.dtype,
) -> np.ndarray:
    """Encode a coefficient batch ``(block_size, nblocks)`` at fixed rate.

    Returns ``(nblocks, ceil(maxbits/8))`` uint8 — one fixed-size record
    per block.  All-zero blocks emit flag 0 and zero padding.
    """
    dtype = np.dtype(dtype)
    bs, n = coeffs.shape
    lay = _Layout(maxbits, bs, dtype)
    if maxbits < lay.head:
        raise ValueError(
            f"maxbits={maxbits} cannot fit the {lay.head}-bit block header"
        )
    nonzero = np.bitwise_or.reduce(coeffs, axis=0) != 0
    neg = to_negabinary(coeffs, lay.width)
    # Zero blocks carry no exponent either: their record is all zero bits.
    header = (emax.astype(np.int64) + lay.bias).astype(np.uint64)
    header &= np.uint64((1 << lay.e_bits) - 1)
    header |= np.uint64(1 << lay.e_bits)
    header *= nonzero

    buf, stream = lay.stream(n)
    if lay.nlanes:
        if bs == 4:
            neg = np.concatenate([neg, neg << neg.dtype.type(1)])
        words = np.empty((lay.nlanes, lay.rows // 8, n), dtype=_U64)
        _copy_lanes(_bytes(words), _lanes(neg, lay.nlanes))
        _flip8x8(words)
        stream[...] = lay.planes(words)
    pay = buf[:, :lay.nwords].astype(_U64)
    lay.truncate(pay)
    # One two-word shift makes room for the header in front.
    rec = pay >> np.uint64(lay.head)
    rec[:, 1:] |= pay[:, :-1] << np.uint64(64 - lay.head)
    rec[:, 0] |= header << np.uint64(64 - lay.head)
    out = rec.astype(_BE64).view(np.uint8)
    return np.ascontiguousarray(out[:, :lay.nbytes])


def decode_blocks(
    records: np.ndarray,
    maxbits: int,
    block_size: int,
    dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`encode_blocks`.

    Returns ``(coeffs, emax)`` with ``coeffs`` coefficient-major
    ``(block_size, nblocks)``, signed and as wide as the planes (int32
    for FP32 blocks); truncated low planes reconstruct as zero bits
    (negabinary rounds toward small magnitudes).
    """
    dtype = np.dtype(dtype)
    lay = _Layout(maxbits, block_size, dtype)
    n = records.shape[0]
    buf = np.zeros((n, lay.nwords + 1), dtype=_BE64)
    buf.view(np.uint8)[:, :lay.nbytes] = records
    rec = buf.astype(_U64)
    header = rec[:, 0] >> np.uint64(64 - lay.head)
    nonzero = (header >> np.uint64(lay.e_bits)) != 0
    emax = (header & np.uint64((1 << lay.e_bits) - 1)).astype(np.int64) - lay.bias
    emax[~nonzero] = -lay.bias

    pay = rec[:, :-1] << np.uint64(lay.head)
    pay |= rec[:, 1:] >> np.uint64(64 - lay.head)
    lay.truncate(pay)
    pay *= nonzero[:, None]     # a zero block's payload is never read
    neg = np.zeros((lay.rows, n), dtype=_UINT[lay.width])
    if lay.nlanes:
        buf, stream = lay.stream(n)
        buf[:, :lay.nwords] = pay
        words = np.zeros((lay.nlanes, lay.rows // 8, n), dtype=_U64)
        lay.planes(words)[...] = stream
        _flip8x8(words)
        _copy_lanes(_lanes(neg, lay.nlanes), _bytes(words))
    if block_size == 4:
        neg = neg[:4] | (neg[4:] >> neg.dtype.type(1))
    return _from_negabinary(neg), emax.astype(np.int32)
