"""Stream robustness: hostile bytes fail one way, in bounded memory.

A data-reduction library sits in I/O paths, so every stream parser
refuses damaged bytes with :class:`~repro.util.CorruptStreamError` —
never another exception type, never a ``MemoryError`` from a size the
stream declared, never silently wrong data.  :func:`repro.testing.
check_format` holds every format to that at every offset; the named
cases below pin the holes it found and each codec's truncation and
bad-magic cases one by one.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from repro import LZ4, MGARDX, SZ, ZFPX, Config, ErrorMode, HuffmanX
from repro.cli import _envelope, _open_envelope
from repro.compressors import build_codec
from repro.compressors.zfp.embedded import ZFPEmbedded
from repro.compressors.zfp.modes import ZFPAccuracy
from repro.core.streaming import StreamingCompressor, StreamingDecompressor
from repro.io.bp import BPFile
from repro.progressive import (
    ProgressiveMGARD,
    ProgressiveRetriever,
    archive_bytes,
    make_retrieve_request,
    parse_archive_index,
    parse_retrieve_request,
    read_archive_prefix,
)
from repro.progressive.archive import slice_segments
from repro.progressive.errors import TruncatedSegmentError
from repro.progressive.segments import decode_segment, encode_segment
from repro.testing import check_format
from repro.util import CorruptStreamError

#: the stream the findings below were read on
DATA = np.random.default_rng(0).normal(size=(12, 12)).astype(np.float32)
#: what the harness fuzzes: a decode under tracemalloc costs ~10x one
#: without, so every stream is kept to a few hundred bytes
TILE = DATA[:6, :6].copy()
CFG = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
KEYS = np.random.default_rng(1).integers(0, 9, size=64)


def _flip(blob: bytes, byte: int, bit: int = 7) -> bytes:
    out = bytearray(blob)
    out[byte] ^= 1 << bit
    return bytes(out)


def _chunk_list(magic_and_version: bytes, bodies: list[bytes]) -> bytes:
    """A chunk list: tag, u32 count, u64 lengths, the bodies."""
    return (magic_and_version + struct.pack("<I", len(bodies))
            + struct.pack(f"<{len(bodies)}Q", *map(len, bodies))
            + b"".join(bodies))


def _hufp() -> bytes:
    """A legacy ``HUFP`` byte-API blob: the byte API's prefix for 64
    uint8 values, then two ``HUFX`` segments."""
    halves = [KEYS[:32].astype(np.uint8), KEYS[32:].astype(np.uint8)]
    parts = [HuffmanX().compress_keys(h, 256) for h in halves]
    meta = struct.pack("<BH", 3, 1) + b"|u1" + struct.pack("<q", KEYS.size)
    return meta + _chunk_list(b"HUFP\x01", parts)


def _streaming(blob):
    return list(StreamingDecompressor(ZFPX(rate=4), blob))


def _bp(blob):
    bp = BPFile.frombytes(blob)
    return [bp.get(name) for name, var in bp.variables.items()
            if var.operator == "none"]


def _bp_blob(data) -> bytes:
    bp = BPFile()
    bp.put("x", data[:2], operator="none")
    bp.put("y", data[2:], operator="zfp-x", compressor=ZFPX(rate=4))
    return bp.tobytes()


def _archive(data) -> bytes:
    index, segments = ProgressiveMGARD(
        Config(error_bound=1e-2), max_planes=1
    ).refactor(data[:3].copy())
    return archive_bytes(index, segments)


def _hpst(data) -> bytes:
    compressor = StreamingCompressor(ZFPX(rate=4))
    compressor.extend(np.split(data, 2))
    return compressor.finalize()


def _hpdc(data) -> bytes:
    """The legacy chunk list: ``HPST``'s layout without a version byte."""
    return _chunk_list(b"HPDC", [ZFPX(rate=4).compress(part)
                                 for part in np.split(data, 2)])


def _request(blob):
    """An ``HPRQ`` parsed whole: its parameters, then every segment of
    the archive it carries."""
    _eps, _resolution, archive = parse_retrieve_request(blob)
    index, base = parse_archive_index(archive)
    return slice_segments(archive, base, index.records)


def _envelope_decode(blob):
    method, payload = _open_envelope(blob)
    return build_codec(method).decompress(payload)


#: format -> (data) -> (one valid stream, a decoder on a fresh codec)
FORMATS = {
    "MGRX": lambda d: (MGARDX(CFG).compress(d), MGARDX(CFG).decompress),
    "ZFPX": lambda d: (ZFPX(rate=12).compress(d), ZFPX(rate=12).decompress),
    "ZFPE": lambda d: (ZFPEmbedded(rate=12).compress(d),
                       ZFPEmbedded(rate=12).decompress),
    "ZFPA": lambda d: (ZFPAccuracy(1e-3).compress(d),
                       ZFPAccuracy(1e-3).decompress),
    "HUFX-keys": lambda d: (HuffmanX().compress_keys(KEYS, 16),
                            HuffmanX().decompress_keys),
    "HUFX-bytes": lambda d: (HuffmanX().compress(d), HuffmanX().decompress),
    "CUSZ": lambda d: (SZ(CFG).compress(d), SZ(CFG).decompress),
    "LZ4X": lambda d: (LZ4().compress(d), LZ4().decompress),
    "HPST": lambda d: (_hpst(d), _streaming),
    "BP5X": lambda d: (_bp_blob(d), _bp),
    "HSEG": lambda d: (encode_segment(1, 2, KEYS - 4, HuffmanX(), 64),
                       lambda b, h=HuffmanX(): decode_segment(b, h)),
    "HPGX": lambda d: (_archive(d), ProgressiveRetriever().retrieve),
    "HPRQ": lambda d: (make_retrieve_request(_archive(d)), _request),
    "HPDR": lambda d: (_envelope("lz4", LZ4().compress(d[:2])),
                       _envelope_decode),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_check_format(name):
    blob, decode = FORMATS[name](TILE)
    report = check_format(decode, blob)
    assert report.mutations > len(blob)


#: retired format -> (one stream of it, the reader that used to take it)
RETIRED = {
    "HUFP": lambda d: (_hufp(), HuffmanX().decompress),
    "HPDC": lambda d: (_hpdc(d), _streaming),
}


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_format_is_refused_by_name(name):
    """``HUFP`` and ``HPDC`` were read but never written; a stored one is
    a corrupt stream whose error names the format."""
    blob, decode = RETIRED[name](TILE)
    with pytest.raises(CorruptStreamError, match=f"{name} .*retired format"):
        decode(blob)


# ----------------------------------------------------------------------
# Declared sizes the parent allocated from (bit 7 of the byte named)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name, byte", [
    ("MGRX", 14),        # the first dimension
    ("ZFPX", 22),        # the first dimension
    ("ZFPE", 22),        # the first dimension
])
def test_oversize_shape_is_refused(name, byte):
    blob, decode = FORMATS[name](DATA)
    with pytest.raises(CorruptStreamError):
        decode(_flip(blob, byte))


@pytest.mark.parametrize("name, byte", [
    ("HUFX-bytes", 33),  # the alphabet size of the HUFX body
    ("CUSZ", 65),        # the alphabet size of the HUFX payload
])
def test_oversize_alphabet_sizes_nothing(name, byte):
    """The code-length table holds the lengths the stream stores, so an
    alphabet of 2**31 more symbols decodes what it always did."""
    blob, decode = FORMATS[name](DATA)
    assert np.array_equal(decode(_flip(blob, byte)), decode(blob))


def test_truncated_embedded_stream_is_refused():
    """The embedded reader used to decode missing records as zeros."""
    blob, decode = FORMATS["ZFPE"](DATA)
    with pytest.raises(CorruptStreamError):
        decode(blob[:-1])


def test_bp_bad_magic_is_a_corrupt_stream():
    with pytest.raises(CorruptStreamError, match="bad magic"):
        BPFile.frombytes(b"ZZZZ" + _bp_blob(TILE)[4:])


@pytest.mark.parametrize("data", [
    np.array(["ab", "c"]),
    np.arange(3).astype("M8[ns]"),
    np.zeros(2, dtype="|V8"),
], ids=["str", "datetime", "void"])
def test_bp_raw_variable_of_any_dtype_round_trips(data):
    """A raw variable stores any dtype; only a codec's stream must be numeric."""
    bp = BPFile()
    bp.put("x", data)
    back = BPFile.frombytes(bp.tobytes()).get("x")
    assert back.dtype == data.dtype and back.tobytes() == data.tobytes()


def test_progressive_truncation_keeps_its_error_type():
    """The progressive error names cross the TCP hop, so a cut segment
    or archive header is a ``TruncatedSegmentError`` in particular."""
    huffman = HuffmanX()
    segment = encode_segment(0, 0, np.arange(64, dtype=np.int64), huffman, 4096)
    for cut in (0, 5, len(segment) // 2, len(segment) - 1):
        with pytest.raises(TruncatedSegmentError):
            decode_segment(segment[:cut], huffman)
    archive = _archive(TILE)
    for cut in (0, 3, 8):
        with pytest.raises(TruncatedSegmentError):
            parse_archive_index(archive[:cut])


@pytest.mark.parametrize("keep", [12, -1], ids=["index", "segments"])
def test_truncated_archive_file_is_refused_before_reading(tmp_path, keep):
    """A file read checks each declared span against the file's length."""
    path = tmp_path / "cut.hpgx"
    path.write_bytes(_archive(TILE)[:keep])
    with pytest.raises(TruncatedSegmentError, match="truncated"):
        read_archive_prefix(path)


# ----------------------------------------------------------------------
# HUFX version 2: a table of per-chunk bit counts
# ----------------------------------------------------------------------
def _count_table(blob: bytes) -> tuple[int, int]:
    """A 3,000-key stream's table: where its u32 length field is, and
    how many uint16 counts follow it (then the payload)."""
    parsed = HuffmanX()._deserialize(blob)
    nchunks = parsed[5].size
    return len(blob) - parsed[6].size - 2 * nchunks - 4, nchunks


def _with_counts(blob: bytes, change) -> bytes:
    at, nchunks = _count_table(blob)
    counts = np.frombuffer(blob, "<u2", nchunks, at + 4).astype(np.int64)
    change(counts)
    return blob[: at + 4] + counts.astype("<u2").tobytes() + blob[
        at + 4 + 2 * nchunks :]


def _with_length_field(blob: bytes, delta: int) -> bytes:
    at, nchunks = _count_table(blob)
    return blob[:at] + struct.pack("<I", nchunks + delta) + blob[at + 4 :]


def _overrun(counts):
    counts[0] = 0xFFFF          # the sum runs past 8 * payload_len


def _short(counts):
    counts[0] -= 8              # the sum stops a byte before the end


@pytest.mark.parametrize("forge", [
    lambda b: _with_counts(b, _overrun),
    lambda b: _with_counts(b, _short),
    lambda b: b[: _count_table(b)[0] + 4 + _count_table(b)[1]],
    lambda b: _with_length_field(b, 1),
    lambda b: _with_length_field(b, -1),
    lambda b: _with_length_field(b, 0xFFFFFFFF - _count_table(b)[1]),
], ids=["over", "short", "truncated", "longer", "shorter", "huge"])
def test_hostile_chunk_table_is_refused(forge):
    """Counts that do not end in the payload's last byte, a table cut
    short, and a table length other than the chunks the key count and
    chunk field make: each is a corrupt stream, in bounded memory."""
    codec = HuffmanX()
    blob = codec.compress_keys(np.arange(3000) % 7, 7)
    assert blob[4] == 2 and _count_table(blob)[1] > 1
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            codec.decompress_keys(forge(blob))
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ----------------------------------------------------------------------
# Named cases
# ----------------------------------------------------------------------
#: codec -> its format above
CODECS = {"mgard": "MGRX", "zfp": "ZFPX", "sz": "CUSZ",
          "huffman": "HUFX-bytes", "lz4": "LZ4X"}


@pytest.mark.parametrize("name", list(CODECS))
def test_truncated_stream_raises(name):
    blob, decode = FORMATS[CODECS[name]](DATA)
    for cut in (8, len(blob) // 3, len(blob) - 3):
        with pytest.raises(CorruptStreamError):
            decode(blob[:cut])


@pytest.mark.parametrize("name", list(CODECS))
def test_wrong_magic_raises(name):
    blob, decode = FORMATS[CODECS[name]](DATA)
    with pytest.raises(CorruptStreamError):
        decode(b"ZZZZ" + blob[4:])


def test_cross_codec_streams_rejected():
    """Feeding one codec's stream to another must fail, not misdecode."""
    mgard_blob, mgard = FORMATS["MGRX"](DATA)
    zfp_blob, zfp = FORMATS["ZFPX"](DATA)
    with pytest.raises(CorruptStreamError):
        mgard(zfp_blob)
    with pytest.raises(CorruptStreamError):
        zfp(mgard_blob)


def test_bp_truncation(rng=np.random.default_rng(1)):
    bp = BPFile()
    bp.put("x", rng.normal(size=(16,)))
    blob = bp.tobytes()
    with pytest.raises(CorruptStreamError):
        BPFile.frombytes(blob[: len(blob) // 2])


def test_bitflip_in_payload_detected_by_bp_crc(rng=np.random.default_rng(2)):
    bp = BPFile()
    bp.put("x", rng.normal(size=(64,)))
    blob = bytearray(bp.tobytes())
    blob[-10] ^= 0x40
    with pytest.raises(CorruptStreamError, match="CRC"):
        BPFile.frombytes(bytes(blob))


def test_mgard_stream_length_mismatch_detected():
    """Tampering with the MGARD header's shape must be caught by the
    coefficient-count consistency check."""
    blob, decode = FORMATS["MGRX"](DATA)
    mutated = bytearray(blob)
    # shape starts after magic(4)+BBBB(4)+dtype string('<f4' = 3 bytes)
    mutated[11] = 99  # change first dim 12 -> 99
    with pytest.raises(CorruptStreamError, match="coded coefficients"):
        decode(bytes(mutated))
