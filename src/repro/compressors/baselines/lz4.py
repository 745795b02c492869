"""LZ4-flavoured lossless byte compressor (NVCOMP-LZ4 stand-in).

A greedy LZ77 with a 4-byte hash table and LZ4-style skip acceleration.
The sequence format mirrors LZ4's: a token byte packs literal/match
lengths (15 = continued in extra bytes), followed by literals, a 2-byte
little-endian match offset, and match-length continuation bytes.
Minimum match length 4, window 65 535 bytes.

On floating-point scientific data this achieves the ~1.1× ratios the
paper measures for NVCOMP-LZ4 (floats rarely repeat byte-exactly),
which is precisely why LZ4 fails to accelerate I/O in Fig. 17.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.container import Header, pack_meta
from repro.util import stream_errors

#: dtype-string length, ndim; then dtype, shape, and the two sizes.
_HEADER = Header(b"LZ4X", 1, "BB", "LZ4X")
_SIZES = struct.Struct("<QQ")   # raw length, block length
_MIN_MATCH = 4
_WINDOW = 0xFFFF
_HASH_LOG = 16


def _write_length(out: bytearray, n: int) -> None:
    while n >= 255:
        out.append(255)
        n -= 255
    out.append(n)


def compress_block(src: bytes) -> bytes:
    """Compress one block; always decodable by :func:`decompress_block`.

    The cost is per sequence, not per byte (a 16 KB tile of stepped
    floats is ~3,400 of them), so the match branch makes no calls of
    its own: the hash table is a list, the hash and the sequence
    writer are written out in place.
    """
    n = len(src)
    out = bytearray()
    if n == 0:
        return bytes(out)
    table = [-1] * (1 << _HASH_LOG)
    hash_shift = 32 - _HASH_LOG
    hash_mask = (1 << _HASH_LOG) - 1
    i = 0
    anchor = 0
    search_limit = n - _MIN_MATCH - 1
    step_counter = 0
    while i <= search_limit:
        word = src[i : i + 4]
        h = (int.from_bytes(word, "little") * 2654435761) >> hash_shift & hash_mask
        cand = table[h]
        table[h] = i
        if cand >= 0 and i - cand <= _WINDOW and src[cand : cand + 4] == word:
            # Extend the match forward.
            m = i + 4
            c = cand + 4
            while m < n and src[m] == src[c]:
                m += 1
                c += 1
            lit_len = i - anchor
            ml = m - i - _MIN_MATCH
            out.append((min(lit_len, 15) << 4) | min(ml, 15))
            if lit_len >= 15:
                _write_length(out, lit_len - 15)
            out += src[anchor:i]
            offset = i - cand
            out.append(offset & 0xFF)
            out.append(offset >> 8)
            if ml >= 15:
                _write_length(out, ml - 15)
            i = m
            anchor = i
            step_counter = 0
        else:
            # LZ4-style acceleration: skip faster through incompressible runs.
            step_counter += 1
            i += 1 + (step_counter >> 6)
    # Trailing literals (offset 0 marks a literal-only sequence).
    lit_len = n - anchor
    out.append(min(lit_len, 15) << 4)
    if lit_len >= 15:
        _write_length(out, lit_len - 15)
    out += src[anchor:n]
    out += b"\x00\x00"
    return bytes(out)


def decompress_block(blob: bytes, expected_size: int) -> bytes:
    out = bytearray()
    i = 0
    n = len(blob)
    while i < n:
        token = blob[i]
        i += 1
        lit_len = token >> 4
        if lit_len == 15:
            while True:
                b = blob[i]
                i += 1
                lit_len += b
                if b != 255:
                    break
        out += blob[i : i + lit_len]
        i += lit_len
        offset = blob[i] | blob[i + 1] << 8
        i += 2
        if offset == 0:
            continue  # literal-only (final) sequence
        ml = token & 0xF
        if ml == 15:
            while True:
                b = blob[i]
                i += 1
                ml += b
                if b != 255:
                    break
        match_len = ml + _MIN_MATCH
        start = len(out) - offset
        if start < 0:
            raise ValueError("corrupt LZ4X stream: offset past start")
        if len(out) + match_len > expected_size:
            raise ValueError(
                f"corrupt LZ4X stream: more than the expected {expected_size} bytes"
            )
        if offset >= match_len:
            out += out[start : start + match_len]
        else:
            # Self-overlapping match: the last ``offset`` bytes repeat.
            reps, tail = divmod(match_len, offset)
            pattern = out[start:]
            out += pattern * reps + pattern[:tail]
    if len(out) != expected_size:
        raise ValueError(
            f"corrupt LZ4X stream: got {len(out)} bytes, expected {expected_size}"
        )
    return bytes(out)


class LZ4:
    """Container API over the block codec (shape/dtype preserving)."""

    def __init__(self, adapter=None) -> None:
        self.adapter = adapter  # accepted for API symmetry; host-side codec

    def compress(self, data: np.ndarray | bytes) -> bytes:
        if isinstance(data, (bytes, bytearray, memoryview)):
            raw = bytes(data)
            dtype, shape = np.dtype(np.uint8), (len(raw),)
        else:
            arr = np.ascontiguousarray(data)
            raw = arr.tobytes()
            dtype, shape = arr.dtype, arr.shape
        body = compress_block(raw)
        return b"".join([
            _HEADER.pack(len(dtype.str), len(shape)),
            pack_meta(dtype, shape),
            _SIZES.pack(len(raw), len(body)),
            body,
        ])

    @stream_errors
    def decompress(self, blob: bytes) -> np.ndarray:
        (dts_len, ndim), r = _HEADER.open(blob)
        dtype, shape = r.meta(dts_len, ndim)
        raw_len, body_len = r.unpack(_SIZES)
        raw = decompress_block(r.take(body_len), raw_len)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def compression_ratio(self, data: np.ndarray, blob: bytes) -> float:
        nbytes = len(data) if isinstance(data, (bytes, bytearray)) else data.nbytes
        return nbytes / len(blob)
