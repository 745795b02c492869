"""Vectorized bit packing and window gathering.

Encoding packs variable-length MSB-first codes into 64-bit words with
no per-bit loop, the CPU analog of the paper's "each key encodes
independently" Locality parallelism.  A code is placed by where it
*ends*: with its last bit on stream bit ``end - 1``, the word holding
that bit receives ``code << (64 - end % 64)`` and the word before it
``code >> (end % 64)`` (nothing, for a code inside one word), and a
segmented bitwise-OR combines the codes that share a word.  Adjacent
codes of a contiguous stream concatenate into one longer code, so the
Huffman coder joins up to :func:`codes_per_field` of them into one item
as it gathers them and packs a fraction of the items, to the same
bytes.  The pack walks the items :data:`SLAB` at a time, so its
temporaries are a few hundred KB whatever the stream's length.

Decoding gathers ``width``-bit windows at arbitrary bit offsets (used by
the chunk-parallel Huffman decoder, which advances one symbol per
vectorized step across *all chunks simultaneously*).
"""

from __future__ import annotations

import numpy as np

from repro.util import hot_path

#: Zero bytes a decoder appends to a payload so any in-range offset can
#: safely load 4 bytes.
PAYLOAD_SLACK = 4

#: Items per slab of the encode gathers and the pack: three uint64
#: planes of it (384 KB) are all the scratch either holds beside its
#: output, and a slab's working set stays in cache.
SLAB = 1 << 14


def codes_per_field(max_length: int, chunk: int) -> int:
    """How many adjacent codes the encoder may join into one item.

    The largest power of two whose group still fits one 64-bit field
    when every code has ``max_length`` bits, and that divides ``chunk``
    — so no group straddles a chunk and the chunk bit offsets are group
    offsets.
    """
    group = 1
    while 2 * group * max_length <= 64 and chunk % (2 * group) == 0:
        group *= 2
    return group


@hot_path(reason="Huffman serialize stage; scratch is the caller's")
def pack_ends(
    codes: np.ndarray, ends: np.ndarray, words: np.ndarray, slab: np.ndarray
) -> np.ndarray:
    """Pack ``codes`` so that code *i* ends just before stream bit
    ``ends[i]``; returns the stream's bytes, a view of ``words``.

    ``codes`` are uint64 and no wider than their lengths (a zero-length
    code is 0); ``ends`` are int64, non-negative and non-decreasing, so
    codes never overlap.  ``words`` must hold ``(ends[-1] >> 6) + 2``
    uint64: word 0 takes the (empty) spill of codes inside the stream's
    first word, the rest are the stream.  ``slab`` is uint64 scratch of
    three equal planes; the pack walks the items a plane's length at a
    time.
    """
    step = slab.size // 3
    word = slab[:step].view(np.intp)
    shift, part = slab[step : 2 * step], slab[2 * step : 3 * step]
    words[:] = 0
    for at in range(0, codes.size, step):
        code = codes[at : at + step]
        end = ends[at : at + step].view(np.uint64)
        k = code.size
        w, s, p = word[:k], shift[:k], part[:k]
        np.right_shift(end, 6, out=w.view(np.uint64))
        # The codes ending in one word are a run (ends are sorted):
        # each run ORs into its word, and into the word before, once.
        change = p.view(np.bool_)[:k]
        change[0] = True
        np.not_equal(w[1:], w[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        runs = w[starts]
        np.bitwise_and(end, 63, out=s)
        np.right_shift(code, s, out=p)
        words[runs] |= np.bitwise_or.reduceat(p, starts)
        # code << (64 - e) without an undefined 64-bit shift at e == 0
        # (the two-step shift drops every bit: the code ended a word).
        np.subtract(63, s, out=s)
        np.left_shift(code, s, out=p)
        p <<= np.uint64(1)
        runs += 1
        words[runs] |= np.bitwise_or.reduceat(p, starts)
    # uint64 words → big-endian byte stream (bit 63 of the first word is
    # stream bit 0, matching np.packbits bit order).
    stream = words[1:]
    stream.byteswap(inplace=True)
    return stream.view(np.uint8)


def pack_bits(
    codes: np.ndarray,
    lengths: np.ndarray,
    total_bits: int | None = None,
    offsets: np.ndarray | None = None,
) -> np.ndarray:
    """Pack variable-length MSB-first codes into a byte stream.

    ``codes`` are right-aligned unsigned values (bits above a code's
    length are ignored); ``lengths`` are 0..64 bits (0 writes nothing);
    ``offsets`` are each code's starting bit, by default the exclusive
    prefix sum of ``lengths``, and must not make codes overlap;
    ``total_bits`` defaults to ``offsets[-1] + lengths[-1]``.  Returns
    ``uint8`` bytes, big-endian bit order within each.  The convenience
    form of :func:`pack_ends`, which the Huffman coder drives over its
    own planes.
    """
    codes = np.asarray(codes, dtype=np.uint64).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have equal shapes")
    if offsets is None:
        offsets = np.cumsum(lengths) - lengths
    else:
        offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)
        if offsets.shape != lengths.shape:
            raise ValueError("offsets shape mismatch")
    if total_bits is None:
        total_bits = int(offsets[-1] + lengths[-1]) if lengths.size else 0
    if total_bits == 0:
        return np.zeros(0, dtype=np.uint8)
    ends = offsets + lengths
    if ends.size > 1 and np.any(ends[1:] < ends[:-1]):
        order = np.argsort(ends, kind="stable")
        codes, lengths, ends = codes[order], lengths[order], ends[order]
    ulen = lengths.view(np.uint64)  # int64 ≥ 0: bit pattern is the value
    low = (np.uint64(1) << np.minimum(ulen, np.uint64(63))) - np.uint64(1)
    codes = np.where(ulen < 64, codes & low, codes)
    words = np.empty((max(total_bits, int(ends.max(initial=0))) >> 6) + 2,
                     dtype=np.uint64)
    slab = np.empty(3 * max(1, min(SLAB, codes.size)), dtype=np.uint64)
    return pack_ends(codes, ends, words, slab)[: (total_bits + 7) >> 3]


@hot_path(reason="per-symbol window loads of the chunk-parallel decoder")
def gather_windows(
    packed: np.ndarray,
    bit_offsets: np.ndarray,
    width: int,
) -> np.ndarray:
    """Extract ``width``-bit big-endian windows at arbitrary bit offsets.

    ``packed`` is the byte stream from :func:`pack_bits`.  Windows
    extending past the stream read as zero bits (the decoder's final
    symbols).  ``width`` must be ≤ 24 so a 4-byte load always covers the
    window after sub-byte shifting.
    """
    if not 1 <= width <= 24:
        raise ValueError(f"width must be in [1, 24], got {width}")
    packed = np.asarray(packed, dtype=np.uint8)
    offs = np.asarray(bit_offsets, dtype=np.int64)
    if offs.size and offs.min() < 0:
        raise ValueError("negative bit offset")
    # hpdrlint: disable=HPL001 — cold path; the decoder precomputes windows
    padded = np.concatenate([packed, np.zeros(PAYLOAD_SLACK, dtype=np.uint8)])
    byte_idx = offs >> 3
    np.minimum(byte_idx, packed.size, out=byte_idx)  # clamp past-end reads
    # hpdrlint: disable=HPL001 — widening cast feeding the gather below
    shift = (offs & 7).astype(np.uint32)
    # The widening gathers build the window batch, which is fresh output
    # by contract (callers mask it in place).
    # hpdrlint: disable=HPL001 — uint8→uint32 widening gathers
    w = (
        (padded[byte_idx].astype(np.uint32) << 24)
        | (padded[byte_idx + 1].astype(np.uint32) << 16)
        | (padded[byte_idx + 2].astype(np.uint32) << 8)
        | padded[byte_idx + 3].astype(np.uint32)
    )
    out = (w >> (np.uint32(32 - width) - shift)) & np.uint32((1 << width) - 1)
    return out
