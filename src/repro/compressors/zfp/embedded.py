"""Reference embedded bitplane coder (zfp's ``encode_ints``).

The production-fidelity path of this repository serializes raw truncated
bitplanes (vectorized, and the design the paper describes for ZFP-X).
Reference zfp instead *embeds* each block: per bitplane it emits the
already-active coefficients' bits verbatim and run-length-codes the
remainder with unary group tests, so budget concentrates on coefficients
that have become significant.  This module transcribes that coder
bit-for-bit (zfp ``src/template/codec.c``) as an opt-in, per-block
Python implementation — slow, but exact, and markedly better
rate-distortion at low rates.

Use via :class:`ZFPEmbedded` or ``ZFPX``-style round trips on small
arrays; the vectorized coder remains the default elsewhere.
"""

from __future__ import annotations

import numpy as np

from repro.container import Header, pack_shape
from repro.core.abstractions import blockize, unblockize
from repro.compressors.zfp.bitplane import INTPREC, from_negabinary, to_negabinary
from repro.compressors.zfp.compressor import (
    analyze,
    check_input,
    open_records,
    record_bits,
    synthesize,
)
from repro.compressors.zfp.fixedpoint import E_BIAS, E_BITS
from repro.util import stream_errors

#: ZFP-X's header under its own magic.
_HEADER = Header(b"ZFPE", 1, "BBdI", "ZFP-embedded")


class BitWriter:
    """LSB-first bit writer (zfp stream convention)."""

    def __init__(self) -> None:
        self._bits: list[int] = []

    def write_bit(self, b: int) -> int:
        self._bits.append(b & 1)
        return b & 1

    def write_bits(self, value: int, n: int) -> int:
        """Write the low ``n`` bits of ``value``; return ``value >> n``."""
        for _ in range(n):
            self._bits.append(value & 1)
            value >>= 1
        return value

    def __len__(self) -> int:
        return len(self._bits)

    def tobytes(self, pad_to_bits: int | None = None) -> bytes:
        bits = list(self._bits)
        if pad_to_bits is not None:
            if len(bits) > pad_to_bits:
                raise ValueError("bit budget exceeded")
            bits += [0] * (pad_to_bits - len(bits))
        arr = np.array(bits, dtype=np.uint8)
        return np.packbits(arr, bitorder="little").tobytes()


class BitReader:
    """LSB-first bit reader."""

    def __init__(self, data: bytes) -> None:
        self._bits = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8), bitorder="little"
        )
        self._pos = 0

    def read_bit(self) -> int:
        if self._pos >= self._bits.size:
            return 0
        b = int(self._bits[self._pos])
        self._pos += 1
        return b

    def read_bits(self, n: int) -> int:
        v = 0
        for i in range(n):
            v |= self.read_bit() << i
        return v


def encode_block_embedded(
    ublock: np.ndarray, maxbits: int, maxprec: int
) -> BitWriter:
    """zfp ``encode_ints``: embedded coding of one negabinary block.

    ``ublock`` holds unsigned (negabinary) coefficients in sequency
    order.  Returns the writer positioned at ≤ ``maxbits`` bits.
    """
    size = ublock.size
    intprec = maxprec
    w = BitWriter()
    bits = maxbits
    vals = [int(v) for v in ublock]

    n = 0
    for k in range(intprec - 1, -1, -1):
        if bits <= 0:
            break
        # step 1: extract bit plane #k to x (coefficient i → bit i of x)
        x = 0
        for i in range(size):
            x += ((vals[i] >> k) & 1) << i
        # step 2: emit first n bits of the plane (known-active coeffs)
        m = min(n, bits)
        bits -= m
        x = w.write_bits(x, m)
        # step 3: unary run-length encode the remainder (group tests).
        # Transcribed from zfp's nested for-loops: the outer condition
        # writes the group test (!!x), the inner loop emits literal bits
        # until the next 1, the outer increment skips past that 1.
        while n < size and bits:
            bits -= 1
            if not w.write_bit(1 if x else 0):
                break
            while n < size - 1 and bits:
                bits -= 1
                if w.write_bit(x & 1):
                    break
                x >>= 1
                n += 1
            x >>= 1
            n += 1
    return w


def decode_block_embedded(
    reader: BitReader, maxbits: int, maxprec: int, size: int
) -> np.ndarray:
    """zfp ``decode_ints``: invert :func:`encode_block_embedded`."""
    intprec = maxprec
    vals = [0] * size
    bits = maxbits

    n = 0
    for k in range(intprec - 1, -1, -1):
        if bits <= 0:
            break
        m = min(n, bits)
        bits -= m
        x = reader.read_bits(m)
        while n < size and bits:
            bits -= 1
            if not reader.read_bit():
                break
            while n < size - 1 and bits:
                bits -= 1
                if reader.read_bit():
                    break
                n += 1
            x += 1 << n
            n += 1
        # deposit plane #k
        i = 0
        while x:
            if x & 1:
                vals[i] += 1 << k
            x >>= 1
            i += 1
    return np.array(vals, dtype=np.uint64)


class ZFPEmbedded:
    """Fixed-rate ZFP with the reference embedded coder (per-block).

    API-compatible with :class:`~repro.compressors.zfp.compressor.ZFPX`.
    Intended for correctness studies and small arrays — the inner loops
    are per-block Python.
    """

    def __init__(self, rate: float = 8.0, adapter=None) -> None:
        if rate <= 0 or rate > 66:
            raise ValueError(f"rate must be in (0, 66], got {rate}")
        self.rate = float(rate)
        self.adapter = adapter

    def compress(self, data: np.ndarray) -> bytes:
        data = np.ascontiguousarray(data)
        dtype = np.dtype(data.dtype)
        ndim = data.ndim
        check_input(dtype, data.shape, _HEADER.who)
        e_bits = E_BITS[dtype]
        bias = E_BIAS[dtype]
        width = INTPREC[dtype]
        maxbits = record_bits(self.rate, ndim, dtype)

        batch, grid = blockize(data, (4,) * ndim, pad_mode="edge")
        coeffs, emax = analyze(batch, ndim)
        # The coder walks one block at a time: rows of the transpose.
        neg = to_negabinary(coeffs, width).T

        records = []
        rec_bytes = (maxbits + 7) // 8
        for b in range(neg.shape[0]):
            w = BitWriter()
            nonzero = bool(np.any(coeffs[:, b] != 0))
            w.write_bit(1 if nonzero else 0)
            if nonzero:
                w.write_bits(int(emax[b]) + bias, e_bits)
                inner = encode_block_embedded(
                    neg[b], maxbits - 1 - e_bits, width
                )
                w._bits.extend(inner._bits)
            records.append(w.tobytes(pad_to_bits=rec_bytes * 8))

        header = _HEADER.pack(
            int(dtype == np.float64), ndim, self.rate, maxbits
        ) + pack_shape(data.shape)
        return header + b"".join(records)

    @stream_errors
    def decompress(self, blob: bytes) -> np.ndarray:
        dtype, shape, maxbits, records = open_records(_HEADER, blob)
        ndim = len(shape)
        e_bits = E_BITS[dtype]
        bias = E_BIAS[dtype]
        width = INTPREC[dtype]
        bs = 4**ndim
        grid = tuple(-(-n // 4) for n in shape)
        nblocks = records.shape[0]

        neg = np.zeros((nblocks, bs), dtype=np.uint64)
        emax = np.full(nblocks, -bias, dtype=np.int32)
        for b in range(nblocks):
            r = BitReader(records[b])
            if r.read_bit():
                emax[b] = r.read_bits(e_bits) - bias
                neg[b] = decode_block_embedded(
                    r, maxbits - 1 - e_bits, width, bs
                )
        coeffs = from_negabinary(neg.T, width)
        return unblockize(synthesize(coeffs, emax, ndim, dtype), grid, tuple(shape))

    def compression_ratio(self, data: np.ndarray, blob: bytes) -> float:
        return data.nbytes / len(blob)
