"""Vectorized bit packing and window gathering.

Encoding packs variable-length codes into 64-bit words in one
word-parallel pass: every code is left-aligned into a 64-bit field,
split into its (at most two) destination words with shifts, and
scattered with a segmented bitwise-OR — no per-bit loop, the CPU analog
of the paper's "each key encodes independently" Locality parallelism.
Adjacent codes of a contiguous stream concatenate into one longer code,
so the Huffman coder first merges them pairwise (:func:`merge_codes`)
until a group would no longer fit one field (:func:`codes_per_field`)
and packs a fraction of the items, to the same bytes.

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


@hot_path(reason="inner OR-combine of every pack_bits call")
def _or_scatter(words: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    """``words[idx] |= vals`` with duplicate indices OR-combined.

    ``idx`` must be sorted non-decreasing (guaranteed by monotonic bit
    offsets); duplicates are merged with a segmented reduction instead
    of ``np.bitwise_or.at`` (which is an order of magnitude slower).
    """
    if idx.size == 0:
        return
    starts = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
    merged = np.bitwise_or.reduceat(vals, starts)
    words[idx[starts]] |= merged


def codes_per_field(max_length: int, chunk: int) -> int:
    """How many adjacent codes :func:`merge_codes` may join into one.

    The largest power of two (codes merge pairwise) whose group still
    fits :func:`pack_bits`' 64-bit field when every code has
    ``max_length`` bits, and that divides ``chunk`` — so no group
    straddles a chunk and the chunk bit offsets are group offsets.
    """
    group = 1
    while 2 * group * max_length <= 64 and chunk % (2 * group) == 0:
        group *= 2
    return group


@hot_path(reason="Huffman serialize stage: m keys become m/group pack items")
def merge_codes(enc: np.ndarray, group: int, ctx) -> tuple[np.ndarray, np.ndarray]:
    """Join every ``group`` adjacent codes into one ``(code, length)``.

    ``enc`` holds one ``(code << 8) | length`` per key (``uint32``; its
    size a multiple of ``group``, a power of two).  A pair merges as
    ``(c0 << l1) | c1`` with length ``l0 + l1`` — the bits the two codes
    would occupy back to back — so a zero-length entry must carry a zero
    code.  Returns ``uint64`` codes and ``int64`` lengths, ready for
    :func:`pack_bits`, in context scratch whose dtypes do not depend on
    ``group`` (it varies with the data under one context).
    """
    assert group > 0 and group & (group - 1) == 0 and enc.size % group == 0
    codes = lens = enc
    size, g = enc.size, 1
    while True:
        last = g == group
        # Two 16-bit codes fit 32 bits; from four on the shift needs 64.
        cdt = np.uint64 if last or g > 2 else np.uint32
        suffix = "" if last else str(g)
        into_c = ctx.scratch(f"enc.codes{suffix}", size, cdt)
        into_l = ctx.scratch(
            f"enc.lens{suffix}", size, np.int64 if last else np.uint32
        )
        if g == 1:
            np.right_shift(enc, 8, out=into_c)
            np.bitwise_and(enc, 0xFF, out=into_l)
        else:
            np.left_shift(codes[0::2], lens[1::2], out=into_c, dtype=cdt)
            into_c |= codes[1::2]
            np.add(lens[0::2], lens[1::2], out=into_l)
        if last:
            return into_c, into_l
        codes, lens = into_c, into_l
        size, g = size // 2, g * 2


@hot_path(reason="Huffman serialize stage; zero-alloc when ctx is given")
def pack_bits(
    codes: np.ndarray,
    lengths: np.ndarray,
    total_bits: int | None = None,
    offsets: np.ndarray | None = None,
    ctx=None,
) -> np.ndarray:
    """Pack variable-length MSB-first codes into a byte stream.

    Parameters
    ----------
    codes:
        Right-aligned code values (unsigned), one per symbol occurrence.
    lengths:
        Bit length of each code, 0..64 (0 writes nothing): a code is
        left-aligned in one 64-bit field and the two-word split below
        covers any field at any bit offset.
    offsets:
        Starting bit offset of each code; default = exclusive prefix sum
        of ``lengths`` (contiguous stream).  Non-overlapping codes are
        assumed (prefix-sum offsets guarantee it).
    total_bits:
        Stream length in bits; default = offsets[-1] + lengths[-1].
    ctx:
        Optional :class:`~repro.core.context.ReductionContext`; when
        given, the word buffer comes from persistent scratch so repeated
        same-sized packs perform no allocation.  The returned array then
        aliases context memory and is only valid until the next pack
        through the same context.

    Returns
    -------
    ``uint8`` byte array (big-endian bit order within bytes).
    """
    codes = np.asarray(codes, dtype=np.uint64).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have equal shapes")
    if offsets is None:
        # CMM callers precompute offsets into context scratch instead
        # (the huffman serialize stage) — this is the convenience path.
        # hpdrlint: disable=HPL003 — cold convenience fallback
        offsets = np.cumsum(lengths) - lengths
    else:
        offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)
        if offsets.shape != lengths.shape:
            raise ValueError("offsets shape mismatch")
    if total_bits is None:
        total_bits = int(offsets[-1] + lengths[-1]) if lengths.size else 0
    nbytes = (total_bits + 7) >> 3
    if total_bits == 0:
        # hpdrlint: disable=HPL001 — empty-stream edge, never steady state
        return np.zeros(0, dtype=np.uint8)

    if offsets.size > 1 and np.any(offsets[1:] < offsets[:-1]):
        order = np.argsort(offsets, kind="stable")
        codes, lengths, offsets = codes[order], lengths[order], offsets[order]

    live = lengths > 0
    if not live.all():
        codes, lengths, offsets = codes[live], lengths[live], offsets[live]

    # One sentinel word past the end absorbs the (empty) high spill of a
    # code ending exactly at the stream boundary.
    nwords = ((total_bits + 63) >> 6) + 1
    if ctx is not None:
        words = ctx.scratch("pack_bits.words", nwords, np.uint64)
    else:
        # hpdrlint: disable=HPL001 — documented ctx=None fallback path
        words = np.empty(nwords, dtype=np.uint64)
    words[:] = 0

    # Left-align each code in a 64-bit field: code bit j (MSB first)
    # sits at field bit 63-j, so shifting right by the in-word bit
    # offset lands bit j at stream position offset+j.
    ulen = lengths.view(np.uint64)  # int64 ≥ 0: bit pattern is the value
    field = codes << (np.uint64(64) - ulen)
    word_idx = (offsets >> 6).astype(np.intp, copy=False)
    bit_in_word = (offsets & 63).view(np.uint64)
    low = field >> bit_in_word
    # field << (64 - b) without an undefined 64-bit shift at b == 0
    # (the two-step shift drops every bit, which is the correct spill).
    high = (field << (np.uint64(63) - bit_in_word)) << np.uint64(1)
    _or_scatter(words, word_idx, low)
    _or_scatter(words, word_idx + 1, high)

    # uint64 words → big-endian byte stream (bit 63 of word 0 is stream
    # bit 0, matching np.packbits bit order).
    words.byteswap(inplace=True)
    return words.view(np.uint8)[:nbytes]


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
