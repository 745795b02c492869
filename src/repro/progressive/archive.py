"""Single-file progressive archive (``HPGX``) + serve request envelope.

Archive layout (little-endian)::

    b"HPGX" | version:u8 | index_len:u32
    index   : UTF-8 JSON (the SegmentIndex, byte ranges relative to the
              segment region)
    region  : the segments, concatenated in emission order

The header + index are tiny and read first; a bounded request then
touches only the byte range ``[0, prefix_bytes)`` of the segment
region — which is how file retrieval fetches strictly fewer bytes than
the full stream.

The serve layer's ``retrieve`` op carries one opaque blob; the
``HPRQ`` envelope frames the request parameters in front of the
archive::

    b"HPRQ" | version:u8 | eps:f64 (NaN = none) | resolution:i32 (-1 = none)
    archive : one HPGX blob
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any

from repro.progressive.errors import MalformedIndexError, TruncatedSegmentError
from repro.progressive.segments import SegmentIndex, SegmentRecord

ARCHIVE_MAGIC = b"HPGX"
_ARCHIVE_VERSION = 1
_ARCHIVE_HEADER = struct.Struct("<4sBI")

REQUEST_MAGIC = b"HPRQ"
_REQUEST_VERSION = 1
_REQUEST_HEADER = struct.Struct("<4sBdi")


# ----------------------------------------------------------------------
# HPGX archive
# ----------------------------------------------------------------------
def archive_bytes(index: SegmentIndex, segments: list[bytes]) -> bytes:
    """Serialize ``(index, segments)`` into one HPGX blob."""
    if len(segments) != len(index.records):
        raise ValueError(
            f"{len(segments)} segments but {len(index.records)} records"
        )
    raw_index = json.dumps(index.to_json(), separators=(",", ":")).encode("utf-8")
    header = _ARCHIVE_HEADER.pack(ARCHIVE_MAGIC, _ARCHIVE_VERSION, len(raw_index))
    return header + raw_index + b"".join(segments)


def is_archive(blob: bytes) -> bool:
    """True when ``blob`` starts with the HPGX magic."""
    return bytes(blob[:4]) == ARCHIVE_MAGIC


def _index_len(blob: Any) -> int:
    """Check an HPGX header (the first 9 bytes) -> its index length."""
    if len(blob) < _ARCHIVE_HEADER.size:
        raise TruncatedSegmentError(
            f"archive header truncated: {len(blob)} bytes"
        )
    magic, version, index_len = _ARCHIVE_HEADER.unpack_from(blob, 0)
    if magic != ARCHIVE_MAGIC:
        raise MalformedIndexError(f"not an HPGX archive (magic {bytes(magic)!r})")
    if version != _ARCHIVE_VERSION:
        raise MalformedIndexError(f"unsupported HPGX version {version}")
    return index_len


def parse_archive_index(blob: Any) -> tuple[SegmentIndex, int]:
    """Parse an HPGX header -> ``(index, segment_region_offset)``.

    Only the header + index bytes are touched, so callers can hand in
    a prefix of the file (at least ``header + index`` long).
    """
    base = _ARCHIVE_HEADER.size + _index_len(blob)
    if len(blob) < base:
        raise TruncatedSegmentError(
            f"archive index truncated: {len(blob)} < {base} bytes"
        )
    try:
        obj = json.loads(bytes(blob[_ARCHIVE_HEADER.size : base]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedIndexError(f"unparseable archive index: {exc}") from exc
    return SegmentIndex.from_json(obj), base


def slice_segments(
    blob: Any, base: int, records: list[SegmentRecord]
) -> list[bytes]:
    """Cut the records' byte ranges out of an in-memory archive."""
    out = []
    for rec in records:
        start = base + rec.offset
        end = start + rec.nbytes
        if len(blob) < end:
            raise TruncatedSegmentError(
                f"segment {rec.seq} needs bytes [{start}, {end}), "
                f"archive has {len(blob)}"
            )
        out.append(bytes(blob[start:end]))
    return out


def read_archive_prefix(
    path: Any, eps: float | None = None, resolution: int | None = None,
    strict: bool = True,
) -> tuple[SegmentIndex, list[SegmentRecord], list[bytes]]:
    """Open an HPGX file and read **only** the planned byte ranges.

    Returns ``(index, plan, segments)``; the file reads are the header,
    the index, and one contiguous range covering the prefix — never the
    tail segments a bounded request does not need.
    """
    with open(path, "rb") as f:
        head = f.read(_ARCHIVE_HEADER.size)
        index, base = parse_archive_index(head + f.read(_index_len(head)))
        plan = index.plan(eps=eps, resolution=resolution, strict=strict)
        if not plan:
            return index, plan, []
        span = plan[-1].offset + plan[-1].nbytes - plan[0].offset
        f.seek(base + plan[0].offset)
        region = f.read(span)
    if len(region) < span:
        raise TruncatedSegmentError(
            f"archive data truncated: wanted {span} bytes, got {len(region)}"
        )
    base = plan[0].offset
    segments = [
        region[rec.offset - base : rec.offset - base + rec.nbytes]
        for rec in plan
    ]
    return index, plan, segments


# ----------------------------------------------------------------------
# HPRQ serve request envelope
# ----------------------------------------------------------------------
def make_retrieve_request(
    archive: bytes, eps: float | None = None, resolution: int | None = None
) -> bytes:
    """Frame a ``retrieve`` request for the serve layer."""
    if eps is not None and resolution is not None:
        raise ValueError("pass either eps or resolution, not both")
    header = _REQUEST_HEADER.pack(
        REQUEST_MAGIC, _REQUEST_VERSION,
        float("nan") if eps is None else float(eps),
        -1 if resolution is None else int(resolution),
    )
    return header + bytes(archive)


def parse_retrieve_request(blob: Any) -> tuple[float | None, int | None, bytes]:
    """Invert :func:`make_retrieve_request` -> ``(eps, resolution, archive)``."""
    if len(blob) < _REQUEST_HEADER.size:
        raise MalformedIndexError(
            f"retrieve request truncated: {len(blob)} bytes"
        )
    magic, version, eps, resolution = _REQUEST_HEADER.unpack_from(blob, 0)
    if magic != REQUEST_MAGIC:
        raise MalformedIndexError(
            f"not a retrieve request (magic {bytes(magic)!r})"
        )
    if version != _REQUEST_VERSION:
        raise MalformedIndexError(f"unsupported request version {version}")
    return (
        None if math.isnan(eps) else float(eps),
        None if resolution < 0 else int(resolution),
        bytes(blob[_REQUEST_HEADER.size :]),
    )
