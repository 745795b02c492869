"""The fast kernels equal the reference kernels bit for bit.

The key coder folds word-sized groups of codes as it gathers them, packs
them by where they end, and builds its code lengths over Python lists; the multilevel operators index with slices;
the ZFP kernels lift coefficient-major batches in place and transpose
bits inside 64-bit words.  ``_reference_kernels`` keeps what they
replaced: a one-node-at-a-time tree merge and Kraft repair, a
bit-by-bit packer, operators that gather and scatter through looked-up
index arrays, and block-major lifting with a plane coder that holds one
bit per byte.  Equality is on raw bytes, so the sign of every zero is
part of the contract.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compressors.huffman import HuffmanX
from repro.compressors.huffman import compressor as huffman_codec
from repro.compressors.huffman.bitstream import codes_per_field, pack_bits
from repro.compressors.huffman.codebook import (
    MAX_CODE_LENGTH,
    huffman_code_lengths,
)
from repro.compressors.mgard.hierarchy import DimHierarchy
from repro.compressors.mgard.ops1d import lerp_fill, mass_apply, prolong, restrict
from repro.compressors.mgard.quantize import from_symbols, to_symbols
from repro.compressors.zfp.bitplane import INTPREC, decode_blocks, encode_blocks
from repro.compressors.zfp.fixedpoint import (
    E_BITS,
    block_exponents,
    from_fixed_point,
    to_fixed_point,
)
from repro.compressors.zfp.transform import fwd_transform, inv_transform
from repro.core.context import ContextCache
from repro.util import CorruptStreamError

from ._reference_kernels import (
    reference_block_exponents,
    reference_decode_blocks,
    reference_encode_blocks,
    reference_from_fixed_point,
    reference_from_symbols,
    reference_fwd_transform,
    reference_inv_transform,
    reference_lerp_fill,
    reference_limit_lengths,
    reference_mass_apply,
    reference_pack_bits,
    reference_prolong,
    reference_restrict,
    reference_to_fixed_point,
    reference_to_symbols,
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
def _fused_pack(streams, chunk, n=None):
    """What the key coder does with ``len(streams)`` rows: one Locality
    launch gathers and folds each group of codes, then the prefix sum
    and the pack.  Each stream is ``(codes, lengths)``, one symbol per
    key; its first ``n`` keys (default all) are edge-padded to whole
    chunks.  Returns each row's payload and chunk bit offsets."""
    n = len(streams[0][0]) if n is None else n
    m = -(-n // chunk) * chunk
    lut_codes = np.concatenate([np.asarray(c, dtype=np.uint16) for c, _ in streams])
    lut_lens = np.concatenate([np.asarray(l, dtype=np.uint8) for _, l in streams])
    staged = np.empty((len(streams), m), dtype=np.int64)
    for i, (codes, _) in enumerate(streams):
        staged[i, :n] = np.arange(n) + sum(len(c) for c, _ in streams[:i])
    staged[:, n:] = staged[:, n - 1 : n]
    codec = HuffmanX()
    ctx = codec.cache.get(("oracle",), pin=True)
    try:
        rows = codec._encode(staged, n, chunk, lut_codes, lut_lens, ctx)
        return [(payload.copy(), offsets.copy()) for payload, offsets in rows]
    finally:
        codec.cache.release(ctx)


def _assert_packs_like_the_reference(streams, chunk, n=None):
    n = len(streams[0][0]) if n is None else n
    for (codes, lengths), (got, offsets) in zip(
        streams, _fused_pack(streams, chunk, n)
    ):
        assert got.tobytes() == reference_pack_bits(codes[:n], lengths[:n]).tobytes()
        # Chunk starts are group starts: the stored offsets do not move.
        ungrouped = np.cumsum(lengths[:n]) - np.asarray(lengths[:n])
        assert np.array_equal(offsets, ungrouped[::chunk])


@st.composite
def code_streams(draw):
    """One or three streams of codes of 0..max_length bits over a whole
    number of chunks, or over an edge-padded tail of one."""
    max_length = draw(st.integers(1, 16))
    chunk = draw(st.sampled_from([1, 2, 4, 6, 8, 12, 64, 300]))
    count = chunk * draw(st.integers(1, 5))
    n = count if draw(st.booleans()) else draw(st.integers(1, count))
    streams = []
    for _ in range(draw(st.sampled_from([1, 3]))):
        lengths = draw(st.lists(st.integers(0, max_length), min_size=count,
                                max_size=count))
        seed = draw(st.integers(0, 2**32 - 1))
        values = np.random.default_rng(seed).integers(0, 1 << 16, size=count)
        codes = [int(v) & ((1 << l) - 1) for v, l in zip(values, lengths)]
        streams.append((codes, lengths))
    return streams, max_length, chunk, n


@settings(max_examples=200, deadline=None)
@given(case=code_streams())
@example(case=([([5, 3, 1] * 4, [16, 2, 16] * 4)], 16, 4, 9))   # cut mid-group
@example(case=([([1] * 12, [1] * 12)] * 3, 1, 12, 7))           # group of 4
def test_grouped_packing_matches_bit_by_bit(case):
    streams, max_length, chunk, n = case
    group = codes_per_field(max_length, chunk)
    assert group * max_length <= 64 and chunk % group == 0
    assert group & (group - 1) == 0
    _assert_packs_like_the_reference(streams, chunk, n)


@pytest.mark.parametrize("max_length, chunk, group", [
    (16, 1024, 4), (8, 1024, 8), (9, 1024, 4), (1, 256, 64), (2, 1024, 32),
    (8, 300, 4), (16, 6, 2), (16, 7, 1), (3, 12, 4),
])
def test_group_is_the_largest_power_of_two_that_fits_and_divides(
    max_length, chunk, group
):
    assert codes_per_field(max_length, chunk) == group


def test_groups_ending_on_word_boundaries():
    """Four 16-bit codes fill a 64-bit field exactly: every item ends on
    a word boundary, so its own word takes nothing and the word before
    takes all of it — as does the stream's last item."""
    rng = np.random.default_rng(64)
    codes = rng.integers(0, 1 << 16, size=4 * 40).tolist()
    _assert_packs_like_the_reference([(codes, [16] * len(codes))], 8)


def test_all_padding_groups_write_nothing():
    """Zero-length codes carry code 0, and an item made only of them
    ends where the one before it did.  Past the true end the edge
    padding repeats the last key: those items are emptied, and the item
    the end cuts keeps only its real codes."""
    codes = [5, 1, 2, 3] + [0] * 12
    lengths = [3, 1, 2, 2] + [0] * 12
    _assert_packs_like_the_reference([(codes, lengths)], 16)
    for chunk in (4, 8):
        for n in (3, 4, 5, 6):
            _assert_packs_like_the_reference([(codes[:8], lengths[:8])] * 3,
                                             chunk, n)


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
# Decoder window sources
# ---------------------------------------------------------------------------
def _through_both_sources(decode):
    """``decode(codec)`` with every payload on the per-byte windows,
    then with every payload on the per-bit table."""
    outcomes = []
    for limit in (0, 1 << 40):
        with mock.patch.object(huffman_codec, "_PER_BIT_BYTES_PER_STEP", limit):
            codec = HuffmanX()
            try:
                outcomes.append(decode(codec))
            except CorruptStreamError as exc:
                outcomes.append(str(exc))
            taken = {name for ctx in codec.cache.contexts()
                     for name in ("dec.win", "dec.bits") if name in ctx}
            assert taken <= {"dec.bits" if limit else "dec.win"}
    return outcomes


def _same_outcome(byte_windows, bit_table) -> bool:
    if isinstance(byte_windows, str) or isinstance(bit_table, str):
        return byte_windows == bit_table
    return len(byte_windows) == len(bit_table) and all(
        a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        for a, b in zip(byte_windows, bit_table)
    )


@st.composite
def key_streams(draw):
    """Key arrays whose longest code is ``depth`` bits (Fibonacci counts
    give a ``depth``-deep tree from under 4,200 keys), one to three of
    them, in chunks of 16..1024 with a short or a full last chunk."""
    depth = draw(st.integers(1, 16))
    chunk_size = draw(st.sampled_from([16, 64, 300, 1024]))
    keys = np.repeat(np.arange(depth + 1), _fibonacci(depth + 1))
    extra = draw(st.integers(0, 2 * chunk_size))
    if draw(st.booleans()):     # a full last chunk
        extra += -(keys.size + extra) % min(chunk_size, 256)
    keys = np.concatenate([keys, np.full(extra, depth)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = [rng.permutation(keys)]
    if draw(st.booleans()):
        # Other codebooks, one of them shallower: the shared table
        # width is the batch's longest code.
        batch += [depth - batch[0], rng.integers(0, 2, size=keys.size)]
    return depth, chunk_size, batch


@settings(max_examples=150, deadline=None)
@given(stream=key_streams(), byte_api=st.booleans(), payload=st.sampled_from(
    ["as written", "random", "ones"]))
def test_both_window_sources_decode_the_same_symbols(stream, byte_api, payload):
    depth, chunk_size, batch = stream
    writer = HuffmanX(chunk_size=chunk_size)
    if byte_api:
        batch = [k.astype(np.uint8) for k in batch]
        blobs = [writer.compress(batch[0])] if len(batch) == 1 else \
            writer.compress_batch(batch)
    else:
        blobs = [writer.compress_keys(batch[0], depth + 1)] if len(batch) == 1 \
            else writer.compress_keys_batch(batch, depth + 1)
    if payload != "as written":
        # The payload is the tail of a HUFX stream: any bytes there must
        # decode to the same symbols (or the same typed error) through
        # either source, running off the end included.
        rng = np.random.default_rng(depth * 1000 + chunk_size)
        for i, blob in enumerate(blobs):
            size = writer._deserialize(blob[blob.index(b"HUFX"):])[6].size
            tail = (rng.integers(0, 256, size=size) if payload == "random"
                    else np.full(size, 255)).astype(np.uint8).tobytes()
            blobs[i] = blob[: len(blob) - size] + tail

    def decode(codec):
        if byte_api:
            return [codec.decompress(blobs[0])] if len(blobs) == 1 else \
                codec.decompress_batch(blobs)
        return [codec.decompress_keys(blobs[0])] if len(blobs) == 1 else \
            codec.decompress_keys_batch(blobs)

    byte_windows, bit_table = _through_both_sources(decode)
    assert _same_outcome(byte_windows, bit_table)
    if payload == "as written":
        assert _same_outcome(bit_table, batch)


@pytest.mark.parametrize("slack", [-1, 0, 1])
def test_window_source_switches_on_payload_bytes_per_step(slack):
    """Four equally frequent symbols cost two bits each: ``n`` keys are
    ``n / 4`` payload bytes (+ 4 of slack), so at 16 steps the shipped
    constant puts the switch at a payload of 50 * 16 - 4 bytes."""
    limit = huffman_codec._PER_BIT_BYTES_PER_STEP * 16
    n = 4 * (limit - 4 + slack)
    keys = np.random.default_rng(slack + 1).permutation(np.arange(n) % 4)
    codec = HuffmanX(chunk_size=16)
    blob = codec.compress_keys(keys, 4)
    assert codec._deserialize(blob)[6].size + 4 == limit + slack
    assert np.array_equal(codec.decompress_keys(blob), keys)
    (ctx,) = codec.cache.contexts()
    assert ("dec.bits" in ctx) == (slack <= 0) == ("dec.win" not in ctx)
    byte_windows, bit_table = _through_both_sources(
        lambda c: [c.decompress_keys(blob)])
    assert _same_outcome(byte_windows, bit_table)
    assert np.array_equal(bit_table[0], keys)


def test_decoder_refuses_a_chunk_offset_past_the_payload():
    """Positions never start negative or past the end, so what either
    window source reads there cannot differ."""
    codec = HuffmanX()
    keys = np.arange(3000) % 7
    blob = bytearray(codec.compress_keys(keys, 7))
    parsed = codec._deserialize(bytes(blob))
    at = len(blob) - parsed[6].size - 8      # the last chunk's offset
    for bad in (8 * parsed[6].size + 1, 1 << 63):
        blob[at : at + 8] = int(bad).to_bytes(8, "little")
        with pytest.raises(CorruptStreamError, match="past the payload"):
            codec.decompress_keys(bytes(blob))


def test_tile_decodes_stop_allocating_whatever_the_payload_length():
    """16 KB of bytes at five entropies: one context, five payload
    lengths.  After one pass every scratch name knows its high-water
    mark and the pool holds a block for it — the per-bit table
    included (16 bytes per payload byte: leased per call once the
    payload passes 4 KB)."""
    rng = np.random.default_rng(16)
    codec = HuffmanX()
    tiles = [rng.integers(0, k, size=(64, 64, 4)).astype(np.uint8)
             for k in (2, 7, 40, 130, 256)]
    blobs = [codec.compress(t) for t in tiles]
    assert len({len(b) for b in blobs}) == len(blobs)
    for blob in blobs:
        codec.decompress(blob)
    assert any("dec.bits" in ctx for ctx in codec.cache.contexts())
    before = codec.cache.alloc_events
    for _ in range(3):
        for tile, blob in zip(tiles, blobs):
            assert np.array_equal(codec.decompress(blob), tile)
    assert codec.cache.alloc_events == before


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


# ---------------------------------------------------------------------------
# Quantization codes to Huffman symbols
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("spread, dtype", [
    (3, np.int64),          # nothing escapes: the gather is skipped
    (400, np.int64),        # a few per cent escape
    (400, np.int32),        # narrower codes widen to int64 symbols
    (1 << 40, np.int64),    # everything but the zeros escapes
])
def test_symbol_mapping_matches_the_where_and_gather_form(spread, dtype):
    rng = np.random.default_rng(spread % 1000)
    q = np.round(rng.normal(size=5000) * spread).astype(dtype)
    q[::7] = 0
    before = q.copy()
    want_s, want_o = reference_to_symbols(q, 256)
    got_s, got_o = to_symbols(q, 256)
    assert np.array_equal(q, before)
    for got, want in ((got_s, want_s), (got_o, want_o)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert (want_o.size == 0) == (spread == 3)
    back = from_symbols(got_s, got_o)
    assert back.dtype == np.int64
    assert back.tobytes() == reference_from_symbols(want_s, want_o).tobytes()
    assert np.array_equal(back, q) and np.array_equal(got_s, want_s)
    with pytest.raises(ValueError, match="escape markers"):
        from_symbols(got_s, np.zeros(got_o.size + 1, dtype=np.int64))


# ---------------------------------------------------------------------------
# ZFP block kernels
# ---------------------------------------------------------------------------
def _just_under_two(dtype):
    return np.nextafter(np.array(2.0, dtype), np.array(0.0, dtype))


def _zfp_blocks(family: str, dtype, n: int, bs: int, rng) -> np.ndarray:
    """``(n, bs)`` block-major floats of one family."""
    info = np.finfo(dtype)
    sign = np.where(np.arange(n * bs).reshape(n, bs) % 2, -1.0, 1.0)
    if family == "smooth":
        out = np.cumsum(rng.normal(size=(n, bs)), axis=1)
    elif family == "magnitudes":     # every block its own exponent
        out = rng.normal(size=(n, bs)) * np.ldexp(
            1.0, rng.integers(info.minexp + 40, info.maxexp - 40, size=(n, 1))
        )
    elif family == "alternating":    # +-1.9999999: worst case for lifting
        out = sign * float(_just_under_two(dtype))
    elif family == "huge":           # |x| >= 2^maxexp-1: emax is clipped
        out = sign * float(info.max) * rng.uniform(0.5, 1.0, size=(n, bs))
    elif family == "denormal":
        out = sign * float(info.smallest_subnormal) * rng.integers(
            0, 1 << 20, size=(n, bs)
        )
    elif family == "zero":
        out = np.zeros((n, bs))
    else:                            # zero blocks, and zeros inside blocks
        out = rng.normal(size=(n, bs))
        out[rng.random((n, bs)) < 0.6] = 0.0
        out[::2] = 0.0
    return out.astype(dtype)


ZFP_FAMILIES = ("smooth", "magnitudes", "alternating", "huge", "denormal",
                "zero", "mixed-zero")


@st.composite
def zfp_cases(draw):
    dtype = np.dtype(draw(st.sampled_from(["f4", "f8"])))
    ndim = draw(st.integers(1, 4))
    bs = 4**ndim
    head = 1 + E_BITS[dtype]
    full = head + INTPREC[dtype] * bs
    maxbits = draw(st.one_of(
        st.integers(head, full + 80),                 # any cut, past full too
        st.integers(head, head + 2 * bs),             # the first two planes
        st.sampled_from([32, 64, 73, 128, 640, full - 1, full, full + 1]),
    ))
    family = draw(st.sampled_from(ZFP_FAMILIES))
    n = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    blocks = _zfp_blocks(family, dtype, n, bs, np.random.default_rng(seed))
    return dtype, ndim, max(maxbits, head), blocks, seed


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def _assert_zfp_matches(dtype, ndim, maxbits, blocks, seed):
    """Every stage of encode and decode, new layout against old."""
    bs = 4**ndim
    emax = reference_block_exponents(blocks)
    assert np.array_equal(block_exponents(blocks.T), emax)

    want_fixed = reference_to_fixed_point(blocks, emax)
    fixed = to_fixed_point(blocks.T, emax)
    assert fixed.dtype == np.int64 and _same(fixed.T, want_fixed)

    want_coeffs = reference_fwd_transform(want_fixed, ndim)
    coeffs = fwd_transform(fixed, ndim)
    assert coeffs.dtype == np.int64 and _same(coeffs.T, want_coeffs)

    want_records = reference_encode_blocks(want_coeffs, emax, maxbits, dtype)
    records = encode_blocks(coeffs, emax, maxbits, dtype)
    assert records.dtype == np.uint8 and _same(records, want_records)

    # Decode what was written, and bytes no encoder wrote (set flags on
    # zero payloads, payloads behind a clear flag, padding bits set).
    noise = np.random.default_rng(seed).integers(
        0, 256, size=records.shape, dtype=np.uint8
    )
    for recs in (records, noise):
        want_c, want_e = reference_decode_blocks(recs, maxbits, bs, dtype)
        got_c, got_e = decode_blocks(recs, maxbits, bs, dtype)
        assert got_e.dtype == want_e.dtype and np.array_equal(got_e, want_e)
        assert np.array_equal(got_c.T, want_c)
        want_back = reference_inv_transform(want_c, ndim)
        back = inv_transform(got_c, ndim)
        assert back.dtype == np.int64 and _same(back.T, want_back)
        with np.errstate(over="ignore"):
            want_out = reference_from_fixed_point(want_back, want_e, dtype)
            out = from_fixed_point(back, got_e, dtype)
        assert out.dtype == dtype and _same(out.T, want_out)


@settings(max_examples=300, deadline=None)
@given(case=zfp_cases())
def test_zfp_kernels_match_the_block_major_byte_per_bit_kernels(case):
    _assert_zfp_matches(*case)


@pytest.mark.parametrize("maxbits", [9, 32, 73, 137, 521, 640, 2057])
@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
@pytest.mark.parametrize("family", ZFP_FAMILIES)
def test_zfp_float32_families_at_fixed_budgets(family, ndim, maxbits):
    rng = np.random.default_rng(maxbits + ndim)
    blocks = _zfp_blocks(family, np.dtype("f4"), 5, 4**ndim, rng)
    _assert_zfp_matches(np.dtype("f4"), ndim, maxbits, blocks, maxbits)


def test_zfp_working_integers_need_more_than_32_bits():
    """Why the float32 path keeps int64: at the top of the exponent
    range the clipped ``emax`` puts fixed-point values next to 2^31, so
    the first lifting sum wraps in int32; and inverse lifting of
    truncated coefficients leaves the forward transform's range."""
    f4 = np.dtype("f4")
    rng = np.random.default_rng(0)
    huge = _zfp_blocks("huge", f4, 4, 64, rng)
    fixed = to_fixed_point(huge.T, block_exponents(huge.T))
    assert np.abs(fixed).max() >= 2**30      # past the q = 30 headroom
    narrow = fwd_transform(fixed.astype(np.int32), 3)   # lifts as int32
    assert not np.array_equal(narrow, fwd_transform(fixed, 3))

    alternating = _zfp_blocks("alternating", f4, 4, 64, rng)
    emax = block_exponents(alternating.T)
    coeffs = fwd_transform(to_fixed_point(alternating.T, emax), 3)
    for maxbits in (32, 73):
        cut, _ = decode_blocks(encode_blocks(coeffs, emax, maxbits, f4), maxbits, 64, f4)
        as64 = inv_transform(cut, 3)
        wrapped = inv_transform(cut, 3).astype(np.int32).astype(np.int64)
        assert np.abs(as64).max() >= 2**31 and not np.array_equal(as64, wrapped)
