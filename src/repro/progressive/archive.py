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
import os
from typing import Any

from repro.container import Header
from repro.progressive.errors import MalformedIndexError, TruncatedSegmentError
from repro.progressive.segments import SegmentIndex, SegmentRecord

ARCHIVE_MAGIC = b"HPGX"
_ARCHIVE = Header(ARCHIVE_MAGIC, 1, "I", "HPGX archive",
                  short=TruncatedSegmentError, bad=MalformedIndexError)

REQUEST_MAGIC = b"HPRQ"
_REQUEST = Header(REQUEST_MAGIC, 1, "di", "retrieve request",
                  short=MalformedIndexError, bad=MalformedIndexError)


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
    return _ARCHIVE.pack(len(raw_index)) + raw_index + b"".join(segments)


def is_archive(blob: bytes) -> bool:
    """True when ``blob`` starts with the HPGX magic."""
    return _ARCHIVE.matches(blob)


def parse_archive_index(blob: Any) -> tuple[SegmentIndex, int]:
    """Parse an HPGX header -> ``(index, segment_region_offset)``.

    Only the header + index bytes are touched, so callers can hand in
    a prefix of the file (at least ``header + index`` long).
    """
    (index_len,), r = _ARCHIVE.open(blob)
    raw = r.take(index_len, "archive index")
    try:
        obj = json.loads(bytes(raw).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedIndexError(f"unparseable archive index: {exc}") from exc
    return SegmentIndex.from_json(obj), r.off


def slice_segments(
    blob: Any, base: int, records: list[SegmentRecord]
) -> list[bytes]:
    """Cut the records' byte ranges out of an archive."""
    out = []
    for rec in records:
        end = base + rec.offset + rec.nbytes
        if len(blob) < end:
            raise TruncatedSegmentError(
                f"archive data truncated: segment {rec.seq} ends at byte "
                f"{end}, the archive at {len(blob)}"
            )
        out.append(bytes(blob[end - rec.nbytes : end]))
    return out


def read_archive_prefix(
    path: Any, eps: float | None = None, resolution: int | None = None,
    strict: bool = True,
) -> tuple[SegmentIndex, list[SegmentRecord], list[bytes]]:
    """Open an HPGX file and read **only** the planned byte ranges.

    Returns ``(index, plan, segments)``; the file reads are the header,
    the index, and one contiguous range covering the prefix — never the
    tail segments a bounded request does not need.  No read asks for
    more than the file holds; a short one is a ``TruncatedSegmentError``.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(_ARCHIVE.size)
        (index_len,), _ = _ARCHIVE.open(head)
        index, base = parse_archive_index(head + f.read(min(index_len, size)))
        plan = index.plan(eps=eps, resolution=resolution, strict=strict)
        start = plan[0].offset if plan else 0   # ``region``'s segment offset
        f.seek(base + start)
        region = f.read(min(sum(rec.nbytes for rec in plan), size))
    return index, plan, slice_segments(region, -start, plan)


# ----------------------------------------------------------------------
# HPRQ serve request envelope
# ----------------------------------------------------------------------
def make_retrieve_request(
    archive: bytes, eps: float | None = None, resolution: int | None = None
) -> bytes:
    """Frame a ``retrieve`` request for the serve layer."""
    if eps is not None and resolution is not None:
        raise ValueError("pass either eps or resolution, not both")
    header = _REQUEST.pack(
        float("nan") if eps is None else float(eps),
        -1 if resolution is None else int(resolution),
    )
    return header + bytes(archive)


def parse_retrieve_request(blob: Any) -> tuple[float | None, int | None, bytes]:
    """Invert :func:`make_retrieve_request` -> ``(eps, resolution, archive)``."""
    (eps, resolution), r = _REQUEST.open(blob)
    return (
        None if math.isnan(eps) else float(eps),
        None if resolution < 0 else int(resolution),
        bytes(r.take(r.remaining)),
    )
