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
temporaries are a few hundred KB whatever the stream's length; the
coder's pack (:func:`pack_items`) makes each item's end from its length
in the same slab, so the coder keeps a 1-byte length per item, not an
8-byte end.

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


def item_row(per: int) -> int:
    """uint64 words in a chunk's row of ``per`` coder items: the codes,
    then their lengths one byte each (9 bytes an item)."""
    return per + -(-per // 8)


@hot_path(reason="the pack's per-slab body")
def _or_codes(code, end, words, w, s, p) -> None:
    """OR one slab of codes into ``words``: code *i* ends before stream
    bit ``end[i]`` (uint64, non-decreasing; may be ``s``, which it
    overwrites).  A code is no wider than its length (a zero-length code
    is 0), so codes never overlap.  ``w``/``s``/``p`` are the slab's
    three scratch planes, as long as ``code`` has items."""
    np.right_shift(end, 6, out=w.view(np.uint64))
    # The codes ending in one word are a run (ends are sorted): each run
    # ORs into its word, and into the word before, once.
    change = p.view(np.bool_)[: w.size]
    change[0] = True
    np.not_equal(w[1:], w[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    runs = w[starts]
    np.bitwise_and(end, 63, out=s)
    shift, part = s.reshape(code.shape), p.reshape(code.shape)
    np.right_shift(code, shift, out=part)
    words[runs] |= np.bitwise_or.reduceat(p, starts)
    # code << (64 - e) without an undefined 64-bit shift at e == 0 (the
    # two-step shift drops every bit: the code ended a word).
    np.subtract(63, s, out=s)
    np.left_shift(code, shift, out=part)
    p <<= np.uint64(1)
    runs += 1
    words[runs] |= np.bitwise_or.reduceat(p, starts)


def _stream(words: np.ndarray) -> np.ndarray:
    """uint64 words → big-endian byte stream (bit 63 of the first word is
    stream bit 0, matching np.packbits bit order)."""
    stream = words[1:]
    stream.byteswap(inplace=True)
    return stream.view(np.uint8)


@hot_path(reason="Huffman serialize stage; scratch is the caller's")
def pack_items(
    codes: np.ndarray, lengths: np.ndarray, starts: np.ndarray,
    words: np.ndarray, slab: np.ndarray,
) -> np.ndarray:
    """Pack the coder's ``(rows, chunks, items)`` planes into one
    stream; returns its bytes, a view of ``words``.

    Row *i*'s codes follow one another from stream bit ``starts[i]``
    (uint64; rows must not overlap).  ``codes`` are uint64 and no wider
    than their ``lengths`` (0..64; uint8 in the coder); neither need be
    contiguous across chunks.  ``words`` must hold ``(end >> 6) + 2``
    uint64 for the last row's end: word 0 takes the (empty) spill of
    codes inside the stream's first word, the rest are the stream.  An
    item's end is its row's running sum of lengths, made a slab of
    chunks at a time in ``slab`` (uint64 scratch of three equal planes,
    each holding at least one chunk), so no plane of ends exists.
    """
    per = codes.shape[-1]
    step = slab.size // 3
    w = slab[:step].view(np.intp)
    s, p = slab[step : 2 * step], slab[2 * step : 3 * step]
    rows = max(1, step // per)     # chunks per slab
    words[:] = 0
    for i in range(codes.shape[0]):
        carry = int(starts[i])
        for at in range(0, codes.shape[1], rows):
            code = codes[i, at : at + rows]
            k = code.size
            end = s[:k]
            np.copyto(end.reshape(code.shape), lengths[i, at : at + rows])
            end[0] += carry         # the running sum carries it along
            np.cumsum(end, out=end)
            carry = int(end[-1])
            _or_codes(code, end, words, w[:k], s[:k], p[:k])
    return _stream(words)


def pack_bits(codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Pack variable-length MSB-first codes back to back into a byte
    stream.

    ``codes`` are right-aligned unsigned values (bits above a code's
    length are ignored); ``lengths`` are 0..64 bits (0 writes nothing).
    Returns ``uint8`` bytes, big-endian bit order within each.  The
    convenience form of :func:`pack_items` (one row of one chunk), which
    the Huffman coder drives over its own planes.
    """
    codes = np.asarray(codes, dtype=np.uint64).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have equal shapes")
    total_bits = int(lengths.sum())
    if total_bits == 0:
        return np.zeros(0, dtype=np.uint8)
    ulen = lengths.view(np.uint64)  # int64 ≥ 0: bit pattern is the value
    low = (np.uint64(1) << np.minimum(ulen, np.uint64(63))) - np.uint64(1)
    codes = np.where(ulen < 64, codes & low, codes)
    words = np.empty((total_bits >> 6) + 2, dtype=np.uint64)
    slab = np.empty(3 * codes.size, dtype=np.uint64)
    return pack_items(
        codes[None, None], ulen[None, None], np.zeros(1, dtype=np.uint64),
        words, slab,
    )[: (total_bits + 7) >> 3]


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
