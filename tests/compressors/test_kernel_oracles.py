"""The fast kernels equal the reference kernels bit for bit.

The key coder packs word-sized groups of codes and builds its code
lengths over Python lists; the multilevel operators index with slices.
``_reference_kernels`` keeps what they replaced: a one-node-at-a-time
tree merge and Kraft repair, a bit-by-bit packer, and operators that
gather and scatter through looked-up index arrays.  Equality is on raw
bytes, so the sign of every zero is part of the contract.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compressors.huffman.bitstream import (
    codes_per_field,
    merge_codes,
    pack_bits,
)
from repro.compressors.huffman.codebook import (
    MAX_CODE_LENGTH,
    huffman_code_lengths,
)
from repro.compressors.mgard.hierarchy import DimHierarchy
from repro.compressors.mgard.ops1d import lerp_fill, mass_apply, prolong, restrict
from repro.core.context import ContextCache

from ._reference_kernels import (
    reference_lerp_fill,
    reference_limit_lengths,
    reference_mass_apply,
    reference_pack_bits,
    reference_prolong,
    reference_restrict,
    reference_tree_depths,
)


# ---------------------------------------------------------------------------
# Code lengths
# ---------------------------------------------------------------------------
def _fibonacci(count: int) -> list[int]:
    fib = [1, 1]
    while len(fib) < count:
        fib.append(fib[-1] + fib[-2])
    return fib[:count]


def _assert_lengths_match(freqs: np.ndarray) -> None:
    want = reference_limit_lengths(reference_tree_depths(freqs), MAX_CODE_LENGTH)
    got = huffman_code_lengths(freqs)
    assert got.dtype == want.dtype and np.array_equal(got, want)


#: Few distinct weights, so both queues tie constantly.
tied_histograms = st.lists(st.sampled_from([0, 1, 1, 2, 3, 5]), min_size=2, max_size=300)
wide_histograms = st.lists(st.integers(0, 10**9), min_size=2, max_size=200)


@settings(max_examples=200, deadline=None)
@given(freqs=st.one_of(tied_histograms, wide_histograms))
@example(freqs=[7, 7])                      # two used symbols
@example(freqs=[1, 1, 2, 2, 4, 4, 8, 8])    # every merge ties a leaf
@example(freqs=_fibonacci(30))              # 29 deep: the limiter runs
@example(freqs=_fibonacci(40)[::-1] + [0, 3, 3])
def test_code_lengths_match_the_one_at_a_time_merge(freqs):
    freqs = np.asarray(freqs, dtype=np.int64)
    if np.count_nonzero(freqs) < 2:
        freqs[:2] = 1
    _assert_lengths_match(freqs)


def test_code_lengths_for_one_symbol_and_a_full_alphabet():
    one = np.zeros(16, dtype=np.int64)
    one[5] = 9
    assert huffman_code_lengths(one).tolist() == [0] * 5 + [1] + [0] * 10
    # 65 536 used symbols: uniform, then a skew the limiter must repair
    # with every code already at the longest permitted length.
    full = np.full(1 << 16, 3, dtype=np.int64)
    _assert_lengths_match(full)
    assert (huffman_code_lengths(full) == 16).all()
    full[:40] = _fibonacci(40)
    _assert_lengths_match(full)


# ---------------------------------------------------------------------------
# Bit packing
# ---------------------------------------------------------------------------
def _context():
    return ContextCache().get(("oracle",))


def _grouped_pack(codes, lengths, group):
    """What the Huffman coder does: merge, prefix-sum, pack."""
    ctx = _context()
    enc = (np.asarray(codes, dtype=np.uint32) << np.uint32(8)) | np.asarray(
        lengths, dtype=np.uint32
    )
    merged, lens = merge_codes(enc, group, ctx)
    assert merged.dtype == np.uint64 and lens.dtype == np.int64
    assert merged.size == lens.size == enc.size // group
    offsets = np.cumsum(lens) - lens
    return pack_bits(merged, lens, offsets=offsets, ctx=ctx).copy(), offsets


@st.composite
def code_streams(draw):
    """Codes of 0..max_length bits, a whole number of chunks of them."""
    max_length = draw(st.integers(1, 16))
    chunk = draw(st.sampled_from([1, 2, 4, 6, 8, 12, 64, 300]))
    count = chunk * draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(0, max_length), min_size=count, max_size=count))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).integers(0, 1 << 16, size=count)
    codes = [int(v) & ((1 << l) - 1) for v, l in zip(values, lengths)]
    return codes, lengths, max_length, chunk


@settings(max_examples=200, deadline=None)
@given(stream=code_streams())
def test_grouped_packing_matches_bit_by_bit(stream):
    codes, lengths, max_length, chunk = stream
    group = codes_per_field(max_length, chunk)
    assert group * max_length <= 64 and chunk % group == 0
    assert group & (group - 1) == 0
    want = reference_pack_bits(codes, lengths)
    got, offsets = _grouped_pack(codes, lengths, group)
    assert got.tobytes() == want.tobytes()
    # Chunk starts are group starts: the stored offsets do not move.
    ungrouped = np.cumsum(lengths) - np.asarray(lengths)
    assert np.array_equal(offsets[:: chunk // group], ungrouped[::chunk])


@pytest.mark.parametrize("max_length, chunk, group", [
    (16, 1024, 4), (8, 1024, 8), (9, 1024, 4), (1, 256, 64), (2, 1024, 32),
    (8, 300, 4), (16, 6, 2), (16, 7, 1), (3, 12, 4),
])
def test_group_is_the_largest_power_of_two_that_fits_and_divides(
    max_length, chunk, group
):
    assert codes_per_field(max_length, chunk) == group


def test_groups_ending_on_word_boundaries():
    """Four 16-bit codes fill a 64-bit field exactly: the merged code
    shifts by zero into its field, lands on a word boundary, and its
    high spill is empty — as is the spill of the stream's last code."""
    rng = np.random.default_rng(64)
    codes = rng.integers(0, 1 << 16, size=4 * 40).tolist()
    lengths = [16] * len(codes)
    got, offsets = _grouped_pack(codes, lengths, 4)
    assert (offsets % 64 == 0).all()
    assert got.tobytes() == reference_pack_bits(codes, lengths).tobytes()


def test_all_padding_groups_write_nothing():
    """A chunk's edge padding has length 0 and code 0; a group made only
    of padding merges to length 0 and must not shift by 64."""
    codes = [5, 1, 2, 3] + [0] * 12
    lengths = [3, 1, 2, 2] + [0] * 12
    got, _ = _grouped_pack(codes, lengths, 4)
    assert got.tobytes() == reference_pack_bits(codes, lengths).tobytes()


def test_pack_bits_takes_codes_up_to_64_bits():
    """The documented limit: a code is any 0..64-bit field, at any bit
    offset (the two-word split covers all 64 bits)."""
    rng = np.random.default_rng(6)
    lengths = [64, 0, 1, 63, 64, 0, 7, 64, 57, 0]
    codes = [int(rng.integers(0, 1 << 62)) * 4 + 3 for _ in lengths]
    codes = [c & ((1 << l) - 1) for c, l in zip(codes, lengths)]
    want = reference_pack_bits(codes, lengths)
    got = pack_bits(np.array(codes, dtype=np.uint64), np.array(lengths))
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Multilevel operators
# ---------------------------------------------------------------------------
@st.composite
def operator_cases(draw):
    """A level (even or odd ``n``, down to 3 nodes, maybe non-uniform),
    an array with the level's axis anywhere and maybe a leading batch
    axis, and signed zeros planted in it."""
    n = draw(st.integers(3, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    coords = None
    if draw(st.booleans()):
        coords = np.cumsum(rng.uniform(0.05, 3.0, size=n))
    level = DimHierarchy(n, coords).level(0)
    other = draw(st.lists(st.integers(1, 4), min_size=0, max_size=3))
    axis = draw(st.integers(0, len(other)))
    shape = tuple(other[:axis]) + (n,) + tuple(other[axis:])
    u = rng.normal(size=shape)
    zeros = draw(st.sampled_from(["none", "some", "all-", "all+-"]))
    if zeros == "some":
        u[rng.random(shape) < 0.3] = -0.0
    elif zeros == "all-":
        u[...] = -0.0
    elif zeros == "all+-":
        u[...] = np.array([0.0, -0.0])[rng.integers(0, 2, size=shape)]
    return level, u, axis


def _coarse(level, u, axis):
    """``u`` cut down to the level's coarse nodes along ``axis``."""
    return np.take(u, level.coarse_idx, axis=axis)


@settings(max_examples=300, deadline=None)
@given(case=operator_cases())
def test_slice_operators_match_the_index_array_operators(case):
    level, u, axis = case

    got, want = u.copy(), u.copy()
    lerp_fill(got, level, axis)
    reference_lerp_fill(want, level, axis)
    assert got.tobytes() == want.tobytes()

    y = mass_apply(u, level, axis)
    want_y = reference_mass_apply(u, level, axis)
    assert y.shape == u.shape
    assert np.ascontiguousarray(y).tobytes() == np.ascontiguousarray(want_y).tobytes()

    for grid in (u, y):
        b = restrict(grid, level, axis)
        want_b = reference_restrict(grid, level, axis)
        assert b.shape == want_b.shape
        assert np.ascontiguousarray(b).tobytes() == np.ascontiguousarray(want_b).tobytes()

    fine = prolong(_coarse(level, u, axis), level, axis)
    want_fine = reference_prolong(_coarse(level, u, axis), level, axis)
    assert np.ascontiguousarray(fine).tobytes() == np.ascontiguousarray(want_fine).tobytes()


def test_operators_leave_their_input_alone():
    rng = np.random.default_rng(3)
    level = DimHierarchy(10).level(0)
    u = rng.normal(size=(2, 10, 3))
    before = u.tobytes()
    restrict(mass_apply(u, level, 1), level, 1)
    prolong(_coarse(level, u, 1), level, 1)
    assert u.tobytes() == before
