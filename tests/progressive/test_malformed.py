"""Malformed inputs: typed rejection, no partial outputs."""

from __future__ import annotations

import json
import struct
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro import Config, HuffmanX, ProgressiveMGARD, ProgressiveRetriever
from repro.progressive import (
    ARCHIVE_MAGIC,
    archive_bytes,
    make_retrieve_request,
    parse_archive_index,
    parse_retrieve_request,
    MalformedIndexError,
    SegmentCRCError,
    SegmentIndex,
    TruncatedSegmentError,
)
from repro.progressive.segments import decode_segment, encode_segment


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(14, 18)).astype(np.float32)
    index, segments = ProgressiveMGARD(Config(error_bound=1e-3)).refactor(data)
    return data, index, segments


def test_truncated_archive_header(stream):
    _data, index, segments = stream
    blob = archive_bytes(index, segments)
    for cut in (0, 3, 8):
        with pytest.raises(TruncatedSegmentError):
            parse_archive_index(blob[:cut])


def test_bad_archive_magic(stream):
    _data, index, segments = stream
    blob = archive_bytes(index, segments)
    with pytest.raises(MalformedIndexError):
        parse_archive_index(b"NOPE" + blob[4:])


def test_truncated_index_json(stream):
    _data, index, segments = stream
    blob = archive_bytes(index, segments)
    header_len = blob.index(b"{")
    with pytest.raises(TruncatedSegmentError):
        parse_archive_index(blob[: header_len + 10])


def test_truncated_segment_region(stream):
    """An index that promises more bytes than the blob holds."""
    _data, index, segments = stream
    blob = archive_bytes(index, segments)
    with pytest.raises(TruncatedSegmentError):
        ProgressiveRetriever().retrieve(blob[:-5])


def test_crc_flip_detected(stream):
    _data, index, segments = stream
    blob = bytearray(archive_bytes(index, segments))
    blob[-3] ^= 0xFF  # flip a bit inside the last segment's bytes
    with pytest.raises(SegmentCRCError):
        ProgressiveRetriever().retrieve(bytes(blob))


def test_index_wrong_format_or_version(stream):
    _data, index, _segments = stream
    obj = index.to_json()
    bad = dict(obj, format="something-else")
    with pytest.raises(MalformedIndexError):
        SegmentIndex.from_json(bad)
    bad = dict(obj, version=99)
    with pytest.raises(MalformedIndexError):
        SegmentIndex.from_json(bad)
    with pytest.raises(MalformedIndexError):
        SegmentIndex.from_json([1, 2, 3])


def test_index_structural_violations(stream):
    _data, index, _segments = stream
    obj = index.to_json()

    gap = json.loads(json.dumps(obj))
    gap["segments"][1]["offset"] += 4  # non-contiguous byte ranges
    with pytest.raises(MalformedIndexError):
        SegmentIndex.from_json(gap)

    regress = json.loads(json.dumps(obj))
    regress["segments"][-1]["group"] = 0  # breaks group-major order
    with pytest.raises(MalformedIndexError):
        SegmentIndex.from_json(regress)

    bins = json.loads(json.dumps(obj))
    bins["bins"] = bins["bins"][:-1]  # bins/groups mismatch
    with pytest.raises(MalformedIndexError):
        SegmentIndex.from_json(bins)


def test_retrieve_request_roundtrip_and_rejection(stream):
    _data, index, segments = stream
    blob = archive_bytes(index, segments)
    eps, resolution, back = parse_retrieve_request(
        make_retrieve_request(blob, eps=0.5)
    )
    assert (eps, resolution) == (0.5, None)
    assert back == blob
    eps, resolution, back = parse_retrieve_request(
        make_retrieve_request(blob, resolution=2)
    )
    assert (eps, resolution) == (None, 2)
    with pytest.raises(ValueError):
        make_retrieve_request(blob, eps=0.5, resolution=2)
    with pytest.raises(MalformedIndexError):
        parse_retrieve_request(b"JUNK" + blob)
    with pytest.raises(MalformedIndexError):
        parse_retrieve_request(b"HP")


def test_failed_retrieve_writes_nothing(tmp_path, stream):
    """The CLI must not leave a partial .npy behind a failed retrieval."""
    from repro.cli import main

    _data, index, segments = stream
    blob = archive_bytes(index, segments)
    src = tmp_path / "field.hpgx"
    src.write_bytes(blob[:-5])  # truncated mid-segment
    out = tmp_path / "out.npy"
    with pytest.raises(SystemExit, match="archive data truncated"):
        main(["retrieve", str(src), str(out)])
    assert not out.exists()

    # An unreachable bound exits with a message, also without output.
    src.write_bytes(blob)
    floor = index.floor
    with pytest.raises(SystemExit):
        main(["retrieve", str(src), str(out),
              "--error-bound", str(floor / 10 if floor else 1e-300)])
    assert not out.exists()


def test_store_missing_segment_rejected(tmp_path, stream):
    from repro.io.engine import BPReader
    from repro.progressive import write_store
    from repro.progressive.store import read_store_index, read_store_segments

    _data, index, segments = stream
    write_store(tmp_path / "s.bp", index, segments)
    reader = BPReader(tmp_path / "s.bp")
    got = read_store_index(reader)
    # Drop one planned segment from the store's index.json view.
    victim = got.records[1]
    idx_path = tmp_path / "s.bp" / "index.json"
    meta = json.loads(idx_path.read_text())
    del meta["variables"][f"seg.{victim.seq:05d}@{victim.seq}"]
    idx_path.write_text(json.dumps(meta))
    reader = BPReader(tmp_path / "s.bp")
    with pytest.raises(MalformedIndexError):
        read_store_segments(reader, got.records[:3])


# ----------------------------------------------------------------------
# Fused decode: a group's planes share one key-coder launch, so one
# hostile segment sits in a launch with honest neighbours.  Every case
# below is CRC-valid (the index is re-pinned to the forged bytes).
# ----------------------------------------------------------------------
_HSEG = struct.Struct("<4sBBHIIQ")     # magic ver group shift count nout plen
_VICTIM = 10                           # second plane of the finest group


def _forge(index, segments, seq, blob):
    """The stream with segment ``seq`` replaced and its record, and the
    offsets behind it, re-pinned so the CRC and length checks pass."""
    records, offset = [], 0
    for rec in index.records:
        nbytes = len(blob) if rec.seq == seq else rec.nbytes
        crc = zlib.crc32(blob) if rec.seq == seq else rec.crc
        records.append(replace(rec, offset=offset, nbytes=nbytes, crc=crc))
        offset += nbytes
    forged = replace(index, records=records)
    forged.validate()
    return forged, segments[:seq] + [blob] + segments[seq + 1:]


def _recode(segment, huffman=None, dict_size=4096, keep=None, **header):
    """Re-encode ``segment``'s own plane (its first ``keep`` codes) with
    another coder or alphabet, then overwrite HSEG header fields."""
    group, shift, plane = decode_segment(segment, HuffmanX())
    blob = bytearray(encode_segment(
        group, shift, plane[:keep], huffman or HuffmanX(), dict_size
    ))
    fields = dict(zip(
        ("magic", "version", "group", "shift", "count", "nout", "plen"),
        _HSEG.unpack_from(blob, 0),
    ))
    fields.update(header)
    _HSEG.pack_into(blob, 0, *fields.values())
    return bytes(blob)


def _corrupt_code_lengths(segment):
    """A well-framed payload whose code-length table names no codebook."""
    blob = bytearray(segment)
    blob[_HSEG.size + 48] ^= 0xFF      # inside the RLE length table
    return bytes(blob)


@pytest.mark.parametrize("forge, error", [
    # HUFX stream and HSEG count agree on a size the group does not have.
    (lambda seg: _recode(seg, keep=100), MalformedIndexError),
    # HSEG count alone lies: the key stream decodes to another size.
    (lambda seg: _recode(seg, count=17), TruncatedSegmentError),
    # Group or shift contradicts the index record.
    (lambda seg: _recode(seg, group=4), MalformedIndexError),
    (lambda seg: _recode(seg, shift=3), MalformedIndexError),
    # A payload no decoder accepts, between two honest segments.
    (_corrupt_code_lengths, TruncatedSegmentError),
], ids=["plane-size", "count", "group", "shift", "payload"])
def test_hostile_segment_in_a_fused_run_is_named(stream, forge, error):
    _data, index, segments = stream
    forged, blobs = _forge(index, segments, _VICTIM, forge(segments[_VICTIM]))
    codec = ProgressiveMGARD()
    tracemalloc.start()
    try:
        with pytest.raises(error, match=f"segment {_VICTIM}\\b"):
            codec.reconstruct(forged, blobs)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("recode", [
    lambda seg: _recode(seg, huffman=HuffmanX(chunk_size=128)),
    lambda seg: _recode(seg, dict_size=512),
], ids=["chunking", "alphabet"])
def test_run_the_key_coder_will_not_fuse_decodes_segment_by_segment(stream, recode):
    """A neighbour coded with other chunking or another alphabet cannot
    share a launch; alone it is a valid segment of the same plane, so
    the stream reconstructs to the same array — never to a wrong one."""
    _data, index, segments = stream
    forged, blobs = _forge(index, segments, _VICTIM, recode(segments[_VICTIM]))
    assert blobs[_VICTIM] != segments[_VICTIM]
    codec = ProgressiveMGARD()
    assert (
        codec.reconstruct(forged, blobs).tobytes()
        == codec.reconstruct(index, segments).tobytes()
    )
