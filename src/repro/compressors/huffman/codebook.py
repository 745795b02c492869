"""Two-phase treeless codebook generation (Algorithm 2, line 5).

Phase 1 computes optimal code *lengths* from the frequency histogram;
phase 2 assigns canonical codes from the lengths alone — no explicit
tree is materialized, matching the parallel two-phase algorithm of
Ostadzadeh et al. [44] that the paper adopts for its high parallelism.

Lengths are limited to :data:`MAX_CODE_LENGTH` bits (16) so decoding can
use a dense lookup table; overlong codes from highly skewed histograms
are repaired with the standard Kraft-sum adjustment (the approach zlib
uses), which preserves prefix-freeness at negligible ratio cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Longest permitted code, in bits.  2^16-entry decode tables stay small
#: (512 KB) while still accommodating 65 536-symbol alphabets.  Kept
#: safely below the decoder's 24-bit window limit, so a valid codebook
#: can always be decoded from one 4-byte load.
MAX_CODE_LENGTH = 16


def huffman_code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Phase 1: optimal code lengths from frequencies.

    Zero-frequency symbols get length 0 (no code).  A single-symbol
    alphabet gets length 1.  Result lengths satisfy the Kraft equality
    ``sum(2^-len) <= 1`` after limiting.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim != 1:
        raise ValueError("freqs must be 1-D")
    if freqs.size and freqs.min() < 0:
        raise ValueError("frequencies must be non-negative")
    nonzero = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if nonzero.size > (1 << MAX_CODE_LENGTH):
        # Kraft: n distinct codes need max length >= ceil(log2 n); past
        # 2^MAX_CODE_LENGTH used symbols no length-limited codebook
        # exists and _limit_lengths could never converge.  Fail here,
        # at build time, instead of deep inside the decoder.
        raise ValueError(
            f"alphabet has {nonzero.size} used symbols; a length-limited "
            f"codebook (max {MAX_CODE_LENGTH} bits) supports at most "
            f"{1 << MAX_CODE_LENGTH}"
        )
    if nonzero.size == 0:
        return lengths
    if nonzero.size == 1:
        lengths[nonzero[0]] = 1
        return lengths

    # Two-queue O(n log n) construction: leaves sorted by frequency feed
    # one queue, merged internal nodes the other; both queues stay
    # sorted, so the two global minima are always at the queue heads.
    # The loop runs over Python ints in flat lists: NumPy scalars here
    # cost more than the arithmetic.
    order = nonzero[np.argsort(freqs[nonzero], kind="stable")]
    n = order.size
    # Node ids: 0..n-1 = leaves (in sorted order), n.. = internal, one
    # per merge, so ``weight[n:next_id]`` is the internal queue.
    weight = freqs[order].tolist()
    parent = [0] * (2 * n - 1)
    li = 0  # next leaf
    ii = n  # next unconsumed internal node
    for next_id in range(n, 2 * n - 1):
        merged = 0
        for _ in range(2):
            # On a tie the leaf goes first.
            if li < n and (ii >= next_id or weight[li] <= weight[ii]):
                node = li
                li += 1
            else:
                node = ii
                ii += 1
            parent[node] = next_id
            merged += weight[node]
        weight.append(merged)

    # Depths: the root is the last internal node; parents always have
    # larger ids, so one reverse pass resolves every depth.
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths[order] = depth[:n]
    return _limit_lengths(lengths, MAX_CODE_LENGTH)


def _limit_lengths(lengths: np.ndarray, max_len: int) -> np.ndarray:
    """Clamp overlong codes and repair the Kraft sum (zlib-style)."""
    lengths = lengths.astype(np.int64)
    over = lengths > max_len
    if not over.any():
        return lengths.astype(np.uint8)
    lengths[over] = max_len
    # Kraft sum in units of 2^-max_len.  Clamping oversubscribed it; to
    # reduce it, codes shorter than max_len must get longer.
    kraft = int(np.sum(2 ** (max_len - lengths[lengths > 0])))
    budget = 1 << max_len
    # Lengthening the currently longest sub-max code frees the most
    # relative budget per ratio point lost; once lengthened it is the
    # longest again, so each symbol (lowest first among equals) is
    # taken as far as needed before the next one is touched.
    shorter = np.flatnonzero((lengths > 0) & (lengths < max_len))
    shorter = shorter[np.argsort(-lengths[shorter], kind="stable")]
    for sym, length in zip(shorter.tolist(), lengths[shorter].tolist()):
        while kraft > budget and length < max_len:
            kraft -= 1 << (max_len - length - 1)
            length += 1
        lengths[sym] = length
        if kraft <= budget:
            break
    else:  # pragma: no cover - cannot happen for n <= 2^max_len
        raise RuntimeError("cannot satisfy Kraft inequality")
    return lengths.astype(np.uint8)


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Phase 2: canonical code assignment from lengths.

    Symbols are ordered by (length, symbol); codes count upward within a
    length and shift left on length increase — the textbook canonical
    construction, so decoders only need the length array.
    """
    lengths = np.asarray(lengths, dtype=np.uint8)
    codes = np.zeros(lengths.size, dtype=np.uint32)
    used = np.flatnonzero(lengths)
    if used.size == 0:
        return codes
    order = used[np.lexsort((used, lengths[used]))]
    lo = lengths[order].astype(np.int64)  # sorted code lengths
    max_len = int(lo[-1])
    # First code of each length (the zlib construction): shift left on
    # every length increase, advancing past the previous length's codes.
    bl_count = np.bincount(lo, minlength=max_len + 1)
    first_code = np.zeros(max_len + 1, dtype=np.uint64)
    code = 0
    for bits in range(1, max_len + 1):
        code = (code + int(bl_count[bits - 1])) << 1
        first_code[bits] = code
    # Rank within each same-length run, fully vectorized.
    starts = np.r_[0, np.flatnonzero(lo[1:] != lo[:-1]) + 1]
    run_lengths = np.diff(np.r_[starts, lo.size])
    group_start = np.repeat(starts, run_lengths)
    rank = np.arange(lo.size) - group_start
    codes[order] = (first_code[lo] + rank.astype(np.uint64)).astype(np.uint32)
    return codes


@dataclass(frozen=True)
class Codebook:
    """Canonical codebook: per-symbol code values and bit lengths."""

    codes: np.ndarray    # uint32, right-aligned code bits
    lengths: np.ndarray  # uint8, 0 = symbol unused

    @property
    def num_symbols(self) -> int:
        return self.codes.size

    @property
    def max_length(self) -> int:
        return int(self.lengths.max()) if self.lengths.size else 0

    def kraft_sum(self) -> float:
        used = self.lengths > 0
        return float(np.sum(2.0 ** (-self.lengths[used].astype(np.float64))))

    def decode_table(self, width: int | None = None) -> tuple[np.ndarray, np.ndarray, int]:
        """Dense LUT: ``width``-bit window → (symbol, code length).

        Every window whose leading bits equal a code maps to that code's
        symbol.  Returns ``(symbols, lengths, width)``.
        """
        if width is None:
            width = max(1, self.max_length)
        if width < self.max_length:
            raise ValueError(
                f"table width {width} < max code length {self.max_length}"
            )
        size = 1 << width
        sym_table = np.zeros(size, dtype=np.int32)
        len_table = np.zeros(size, dtype=np.uint8)
        used = np.flatnonzero(self.lengths)
        if used.size == 0:
            return sym_table, len_table, width
        lens = self.lengths[used].astype(np.int64)
        lo = self.codes[used].astype(np.int64) << (width - lens)
        runs = np.int64(1) << (width - lens)
        order = np.argsort(lo, kind="stable")
        lo, runs, lens, syms = lo[order], runs[order], lens[order], used[order]
        covered = int(runs.sum())
        # Canonical prefix codes tile [0, covered) contiguously, so one
        # np.repeat fills the whole table; anything else (a corrupt
        # length table with an oversubscribed Kraft sum) falls back to
        # the per-symbol loop with the old clipping semantics.
        if covered <= size and np.array_equal(
            lo, np.cumsum(runs) - runs
        ):
            sym_table[:covered] = np.repeat(syms, runs)
            len_table[:covered] = np.repeat(lens, runs)
        else:  # pragma: no cover - corrupt/non-canonical codebooks only
            for sym in used:
                l = int(self.lengths[sym])
                c = int(self.codes[sym])
                a = c << (width - l)
                b = (c + 1) << (width - l)
                sym_table[a:b] = sym
                len_table[a:b] = l
        return sym_table, len_table, width


def build_codebook(freqs: np.ndarray) -> Codebook:
    """Two-phase construction: lengths, then canonical codes."""
    lengths = huffman_code_lengths(freqs)
    codes = canonical_codes(lengths)
    return Codebook(codes=codes, lengths=lengths)
