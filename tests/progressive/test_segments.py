"""Segment model: exact plane arithmetic + self-describing payloads."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HuffmanX
from repro.adapters import get_adapter
from repro.progressive import merge_planes, split_planes
from repro.progressive.errors import MalformedIndexError, TruncatedSegmentError
from repro.progressive.segments import (
    decode_segment,
    decode_segments,
    encode_segment,
    encode_segments,
    plane_shifts,
    SegmentRecord,
)
from tests.conftest import fanning_openmp


# ----------------------------------------------------------------------
# plane_shifts
# ----------------------------------------------------------------------
def test_shifts_descend_to_zero():
    for max_abs in (0, 1, 7, 255, 1 << 20, (1 << 62) - 1):
        for bits, planes in ((4, 3), (8, 3), (1, 8), (16, 2)):
            shifts = plane_shifts(max_abs, bits, planes)
            assert shifts[-1] == 0
            assert shifts == sorted(shifts, reverse=True)
            assert len(shifts) <= planes


def test_shifts_cover_all_bits():
    shifts = plane_shifts((1 << 24) - 1, 8, 8)
    assert shifts == [16, 8, 0]


# ----------------------------------------------------------------------
# split/merge round-trip
# ----------------------------------------------------------------------
def test_split_merge_exact_roundtrip():
    rng = np.random.default_rng(0)
    q = rng.integers(-(1 << 40), 1 << 40, size=500, dtype=np.int64)
    planes = split_planes(q, 8, 3)
    assert np.array_equal(merge_planes(planes), q)


def test_prefix_sums_refine():
    """Every plane prefix is a coarser rounding of the exact codes."""
    rng = np.random.default_rng(1)
    q = rng.integers(-100000, 100000, size=300, dtype=np.int64)
    planes = split_planes(q, 4, 4)
    prev = np.abs(q).astype(np.float64).max() + 1
    for k in range(1, len(planes) + 1):
        err = int(np.abs(merge_planes(planes[:k]) - q).max())
        assert err <= prev
        prev = err
    assert err == 0


def test_zero_codes_single_plane():
    planes = split_planes(np.zeros(10, dtype=np.int64), 8, 3)
    assert len(planes) == 1 and planes[0][0] == 0
    assert np.array_equal(merge_planes(planes), np.zeros(10, dtype=np.int64))


def test_merge_requires_planes():
    with pytest.raises(ValueError):
        merge_planes([])


@given(
    codes=st.lists(st.integers(-(1 << 55), 1 << 55), min_size=1, max_size=64),
    bits=st.integers(1, 16),
    nplanes=st.integers(1, 6),
)
@settings(max_examples=120, deadline=None)
def test_split_merge_roundtrip_property(codes, bits, nplanes):
    q = np.array(codes, dtype=np.int64)
    planes = split_planes(q, bits, nplanes)
    assert len(planes) <= nplanes
    assert planes[-1][0] == 0
    assert np.array_equal(merge_planes(planes), q)


# ----------------------------------------------------------------------
# segment encode/decode
# ----------------------------------------------------------------------
def test_segment_roundtrip():
    rng = np.random.default_rng(2)
    huffman = HuffmanX()
    plane = rng.integers(-5000, 5000, size=400, dtype=np.int64)
    blob = encode_segment(3, 8, plane, huffman, 4096)
    group, shift, back = decode_segment(blob, huffman)
    assert (group, shift) == (3, 8)
    assert np.array_equal(back, plane)


def test_segment_bad_magic_raises():
    huffman = HuffmanX()
    blob = encode_segment(0, 0, np.arange(8, dtype=np.int64), huffman, 4096)
    with pytest.raises(MalformedIndexError):
        decode_segment(b"XXXX" + blob[4:], huffman)


@given(
    groups=st.lists(
        st.tuples(st.integers(1, 5000), st.integers(1, 3)),
        min_size=1, max_size=2,
    ),
    outliers=st.booleans(),
    family=st.sampled_from(["serial", "openmp"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_group_launch_is_its_segments_one_by_one(groups, outliers, family, seed):
    """A group coded in one key-coder launch is byte for byte the
    segments coded alone, and a fused decode is the per-segment decode."""
    rng = np.random.default_rng(seed)
    # Floor at 0: the group's one encode launch is really split in two.
    adapter = fanning_openmp(2) if family == "openmp" else get_adapter("serial")
    huffman = HuffmanX(adapter=adapter)
    try:
        dict_size, span = (64, 5000) if outliers else (4096, 1000)
        blobs, want = [], []
        for g, (size, nplanes) in enumerate(groups):
            planes = [
                (8 * (nplanes - 1 - p),
                 rng.integers(-span, span, size=size, dtype=np.int64))
                for p in range(nplanes)
            ]
            coded = encode_segments(g, planes, huffman, dict_size)
            assert coded == [
                encode_segment(g, shift, plane, huffman, dict_size)
                for shift, plane in planes
            ]
            blobs += coded
            want += [(g, shift, plane) for shift, plane in planes]
        fused = decode_segments(blobs, huffman)
        alone = [decode_segment(blob, huffman) for blob in blobs]
        for got in (fused, alone):
            assert [t[:2] for t in got] == [t[:2] for t in want]
            assert all(np.array_equal(a[2], b[2]) for a, b in zip(got, want))
    finally:
        adapter.close()


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
def test_record_json_roundtrip():
    rec = SegmentRecord(seq=2, group=1, shift=8, offset=100, nbytes=40,
                        crc=123456, error_bound=0.25)
    assert SegmentRecord.from_json(rec.to_json()) == rec


def test_record_json_missing_field():
    with pytest.raises(MalformedIndexError):
        SegmentRecord.from_json({"seq": 0})


def test_record_crc_check():
    import zlib

    blob = b"payload-bytes"
    rec = SegmentRecord(seq=0, group=0, shift=0, offset=0, nbytes=len(blob),
                        crc=zlib.crc32(blob), error_bound=0.0)
    rec.check_crc(blob)  # exact bytes pass
    from repro.progressive.errors import SegmentCRCError

    with pytest.raises(TruncatedSegmentError):
        rec.check_crc(blob[:-1])
    with pytest.raises(SegmentCRCError):
        rec.check_crc(b"payload-bytez")
