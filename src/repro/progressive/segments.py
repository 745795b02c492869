"""Segment model for progressive MGARD retrieval.

The progressive encoder splits each resolution level's quantized
coefficients into **bitplane segments**: integer residual planes,
coarsest first, whose shifted sum reconstructs the exact quantization
codes.  Each segment is independently decodable (its own Huffman
payload + outlier side channel behind a self-describing header) and is
pinned by a :class:`SegmentRecord` — byte range, resolution group,
cumulative error bound, CRC32 — inside a :class:`SegmentIndex`.
Independent on disk, not in flight: the planes of one group share size,
alphabet and chunking, so :func:`encode_segments` codes them, and
:func:`decode_segments` decodes them, with one key-coder launch per
stage; each segment's bytes are what they are when it is coded alone.

Plane arithmetic
----------------
For a plane shift ``s`` the residual ``r`` splits as

    t = (r + 2**(s-1)) >> s        # round-half-up division by 2**s
    r' = r - (t << s)              # residual in [-2**(s-1), 2**(s-1))

and the final plane uses ``s = 0`` (``t = r``), so

    q == sum(t_p << s_p)           # exact, for every int64 input

which is what makes full-prefix retrieval byte-identical to one-shot
decompression: the merged planes are *the same integers* the one-shot
path quantized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Any

import numpy as np

from repro.container import Header, check_crc
from repro.progressive.errors import (
    BoundUnreachableError,
    MalformedIndexError,
    ProgressiveError,
    SegmentCRCError,
    TruncatedSegmentError,
)

#: group, shift, code count, outlier count, payload length; then the
#: payload and the outliers.
_HEADER = Header(b"HSEG", 1, "BHIIQ", "segment",
                 short=TruncatedSegmentError, bad=MalformedIndexError)

INDEX_FORMAT = "hpdr-progressive"
INDEX_VERSION = 1


# ----------------------------------------------------------------------
# Bitplane split/merge (exact integer decomposition)
# ----------------------------------------------------------------------
def plane_shifts(max_abs: int, bits_per_plane: int, max_planes: int) -> list[int]:
    """Shift schedule for one group, coarsest plane first, ending at 0."""
    if bits_per_plane < 1:
        raise ValueError(f"bits_per_plane must be >= 1, got {bits_per_plane}")
    if max_planes < 1:
        raise ValueError(f"max_planes must be >= 1, got {max_planes}")
    nbits = int(max_abs).bit_length()
    nplanes = min(max_planes, max(1, -(-nbits // bits_per_plane)))
    step = -(-nbits // nplanes) if nbits else 0
    return [step * (nplanes - 1 - p) for p in range(nplanes)]


def split_planes(
    q: np.ndarray, bits_per_plane: int, max_planes: int
) -> list[tuple[int, np.ndarray]]:
    """Split int64 codes into ``(shift, plane)`` residual planes.

    The planes are coarsest-first and their shifted sum reconstructs
    ``q`` exactly (see module docstring).  At least one plane (shift 0)
    is always produced so every group is represented in the stream.
    """
    q = np.ascontiguousarray(q, dtype=np.int64)
    max_abs = int(np.abs(q).max()) if q.size else 0
    shifts = plane_shifts(max_abs, bits_per_plane, max_planes)
    planes: list[tuple[int, np.ndarray]] = []
    r = q.copy()
    for shift in shifts:
        if shift:
            half = np.int64(1) << np.int64(shift - 1)
            t = (r + half) >> np.int64(shift)
            r = r - (t << np.int64(shift))
        else:
            t = r
            r = np.zeros_like(r)
        planes.append((shift, t))
    return planes


def merge_planes(planes: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Invert :func:`split_planes` (exact for any plane prefix sum)."""
    if not planes:
        raise ValueError("need at least one plane")
    out = np.zeros_like(planes[0][1], dtype=np.int64)
    for shift, t in planes:
        out += t.astype(np.int64) << np.int64(shift)
    return out


# ----------------------------------------------------------------------
# Segment payload (independently decodable)
# ----------------------------------------------------------------------
def encode_segments(
    group: int,
    planes: list[tuple[int, np.ndarray]],
    huffman: Any,
    dict_size: int,
) -> list[bytes]:
    """Serialize one group's ``(shift, plane)`` residual planes.

    The planes of a resolution group share size, dtype, alphabet and
    chunking, so their symbols go through the key coder as **one**
    launch per stage (``compress_keys_batch``): a group costs what its
    largest plane costs to launch, not one hand-off per plane.  A batch
    of N is byte-identical to N batches of one, so each returned
    segment is the self-describing blob it would be if coded alone.
    """
    from repro.compressors.mgard.quantize import to_symbols

    coded = [
        to_symbols(np.ascontiguousarray(plane, dtype=np.int64), dict_size)
        for _shift, plane in planes
    ]
    payloads = huffman.compress_keys_batch(
        [symbols for symbols, _outliers in coded], dict_size
    )
    segments = []
    for (shift, plane), (_symbols, outliers), payload in zip(
        planes, coded, payloads
    ):
        header = _HEADER.pack(
            group, shift, plane.size, outliers.size, len(payload)
        )
        segments.append(header + payload + outliers.tobytes())
    return segments


def encode_segment(
    group: int, shift: int, plane: np.ndarray, huffman: Any, dict_size: int
) -> bytes:
    """Serialize one residual plane: :func:`encode_segments` of one."""
    return encode_segments(group, [(shift, plane)], huffman, dict_size)[0]


def _parse_segment(seq: int, blob: bytes | memoryview) -> tuple[Any, ...]:
    """Header and length checks -> (group, shift, count, payload, outliers)."""
    try:
        (group, shift, count, nout, plen), r = _HEADER.open(memoryview(blob))
        payload = r.take(plen)
        outliers = r.array("<i8", nout)
    except ProgressiveError as exc:
        raise type(exc)(f"segment {seq}: {exc}") from exc
    return group, shift, count, payload, outliers


def decode_segments(
    blobs: list[bytes | memoryview], huffman: Any
) -> list[tuple[int, int, np.ndarray]]:
    """Invert :func:`encode_segments` -> ``[(group, shift, plane), ...]``.

    Each run of consecutive same-group segments decodes with one
    ``decompress_keys_batch`` call — one fused step loop whose lanes are
    every plane's chunks.  A run the key coder will not fuse (a corrupt
    member, or members that disagree on size, alphabet or chunking) is
    decoded one segment at a time instead, so the error names the
    segment at fault and segments that are valid alone decode as they
    would alone.

    Errors name the segment by its position in ``blobs`` (its ``seq``
    when ``blobs`` is a stream prefix): :class:`TruncatedSegmentError`
    when the bytes end before the lengths the header announces or the
    payload does not decode, :class:`MalformedIndexError` on a bad
    magic/version.
    """
    from repro.compressors.mgard.quantize import from_symbols

    parsed = [_parse_segment(seq, blob) for seq, blob in enumerate(blobs)]
    out: list[tuple[int, int, np.ndarray]] = []
    for _group, members in groupby(parsed, key=lambda header: header[0]):
        run = list(members)
        try:
            decoded = huffman.decompress_keys_batch(
                [payload for *_, payload, _outliers in run]
            )
        except ValueError:
            decoded = [None] * len(run)     # one at a time, below
        for (group, shift, count, payload, outliers), symbols in zip(
            run, decoded
        ):
            seq = len(out)
            try:
                if symbols is None:
                    symbols = huffman.decompress_keys(payload)
                plane = from_symbols(symbols, outliers)
            except ValueError as exc:
                raise TruncatedSegmentError(
                    f"segment {seq} payload corrupt: {exc}"
                ) from exc
            if plane.size != count:
                raise TruncatedSegmentError(
                    f"segment {seq} decoded {plane.size} codes, header "
                    f"says {count}"
                )
            out.append((group, shift, plane))
    return out


def decode_segment(
    blob: bytes | memoryview, huffman: Any
) -> tuple[int, int, np.ndarray]:
    """Decode one segment: :func:`decode_segments` of one."""
    return decode_segments([blob], huffman)[0]


# ----------------------------------------------------------------------
# Index records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentRecord:
    """Byte-range metadata for one segment in emission order."""

    seq: int          #: position in the segment stream (0-based)
    group: int        #: resolution group, 0 = coarsest approximation
    shift: int        #: bitplane shift inside the group (0 = exact)
    offset: int       #: byte offset inside the segment region
    nbytes: int       #: segment length in bytes
    crc: int          #: CRC32 of the segment bytes
    error_bound: float  #: measured max error of the prefix ending here

    def to_json(self) -> dict[str, Any]:
        return {
            "seq": self.seq, "group": self.group, "shift": self.shift,
            "offset": self.offset, "nbytes": self.nbytes, "crc": self.crc,
            "error_bound": self.error_bound,
        }

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "SegmentRecord":
        try:
            return cls(
                seq=int(obj["seq"]), group=int(obj["group"]),
                shift=int(obj["shift"]), offset=int(obj["offset"]),
                nbytes=int(obj["nbytes"]), crc=int(obj["crc"]),
                error_bound=float(obj["error_bound"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedIndexError(f"bad segment record: {exc}") from exc

    def check_crc(self, blob: bytes | memoryview) -> None:
        """Verify segment bytes against this record (typed errors)."""
        if len(blob) != self.nbytes:
            raise TruncatedSegmentError(
                f"segment {self.seq}: got {len(blob)} bytes, "
                f"record says {self.nbytes}"
            )
        check_crc(blob, self.crc, f"segment {self.seq} (bytes corrupted "
                  "in storage or transit)", SegmentCRCError)


@dataclass
class SegmentIndex:
    """Self-describing metadata for one progressive stream.

    ``bins`` are in MGARD group order (group 0 = finest coefficients,
    last = coarsest approximation) — exactly what
    :func:`repro.compressors.mgard.quantize.level_bins` produced at
    write time, so reconstruction dequantizes identically to the
    one-shot path.  ``records`` are in emission order: group-major,
    coarsest group first, planes coarsest-first within a group — which
    makes both ``--resolution`` and ``--error-bound`` requests *prefix*
    requests.
    """

    dtype: str
    shape: tuple[int, ...]
    ngroups: int
    abs_eb: float
    kappa: float
    s: float
    dict_size: int
    bins: list[float]
    records: list[SegmentRecord]

    # -- derived -----------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(r.nbytes for r in self.records)

    @property
    def floor(self) -> float:
        """Error the full stream achieves (= the one-shot codec error)."""
        return self.records[-1].error_bound if self.records else 0.0

    def frontier(self) -> list[SegmentRecord]:
        """Records on the bytes-vs-error Pareto frontier.

        Recorded bounds are *measured* prefix errors and may blip
        upward by a percent or two mid-stream (recomposition is linear,
        so sharpened codes can shift cancellation patterns).  The
        frontier keeps each record that strictly improves on every
        earlier one — exactly the prefixes :meth:`plan` can select as
        endpoints, with strictly decreasing bounds by construction.
        """
        out: list[SegmentRecord] = []
        best = float("inf")
        for rec in self.records:
            if rec.error_bound < best:
                best = rec.error_bound
                out.append(rec)
        return out

    # -- planning ----------------------------------------------------------
    def plan(
        self,
        eps: float | None = None,
        resolution: int | None = None,
        strict: bool = True,
    ) -> list[SegmentRecord]:
        """Minimal segment prefix satisfying the request.

        ``eps`` selects the shortest prefix whose measured error bound
        is ``<= eps`` (:class:`BoundUnreachableError` if even the full
        stream falls short, unless ``strict=False`` which degrades to
        the full stream).  Minimality means the selected endpoint is
        always on the :meth:`frontier`, so tightening ``eps`` never
        shrinks the prefix and never worsens the achieved error.
        ``resolution`` selects every plane of the first ``resolution``
        groups.  With neither, the full stream.
        """
        if eps is not None and resolution is not None:
            raise ValueError("pass either eps or resolution, not both")
        if resolution is not None:
            if not 1 <= resolution <= self.ngroups:
                raise ValueError(
                    f"resolution must be in [1, {self.ngroups}], "
                    f"got {resolution}"
                )
            return [r for r in self.records if r.group < resolution]
        if eps is None:
            return list(self.records)
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        for k, rec in enumerate(self.records):
            if rec.error_bound <= eps:
                return self.records[: k + 1]
        if strict:
            raise BoundUnreachableError(eps, self.floor)
        return list(self.records)

    # -- (de)serialization -------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "ngroups": self.ngroups,
            "abs_eb": self.abs_eb,
            "kappa": self.kappa,
            "s": self.s,
            "dict_size": self.dict_size,
            "bins": list(self.bins),
            "total_bytes": self.total_bytes,
            "segments": [r.to_json() for r in self.records],
        }

    @classmethod
    def from_json(cls, obj: Any) -> "SegmentIndex":
        if not isinstance(obj, dict):
            raise MalformedIndexError("segment index must be a JSON object")
        if obj.get("format") != INDEX_FORMAT:
            raise MalformedIndexError(
                f"not a progressive index (format={obj.get('format')!r})"
            )
        if obj.get("version") != INDEX_VERSION:
            raise MalformedIndexError(
                f"unsupported index version {obj.get('version')!r}"
            )
        try:
            index = cls(
                dtype=str(obj["dtype"]),
                shape=tuple(int(n) for n in obj["shape"]),
                ngroups=int(obj["ngroups"]),
                abs_eb=float(obj["abs_eb"]),
                kappa=float(obj["kappa"]),
                s=float(obj["s"]),
                dict_size=int(obj["dict_size"]),
                bins=[float(b) for b in obj["bins"]],
                records=[SegmentRecord.from_json(r) for r in obj["segments"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, MalformedIndexError):
                raise
            raise MalformedIndexError(f"bad segment index: {exc}") from exc
        index.validate()
        return index

    def validate(self) -> None:
        """Structural invariants (raise :class:`MalformedIndexError`)."""
        if self.ngroups < 1:
            raise MalformedIndexError(f"ngroups must be >= 1, got {self.ngroups}")
        if len(self.bins) != self.ngroups:
            raise MalformedIndexError(
                f"{self.ngroups} groups but {len(self.bins)} bins"
            )
        try:
            np.dtype(self.dtype)
        except TypeError as exc:
            raise MalformedIndexError(f"bad dtype {self.dtype!r}") from exc
        # A reader sizes its grid from the shape: every code costs at
        # least one bit of its group's first segment.
        if (min(self.shape, default=0) < 1
                or math.prod(self.shape) > 8 * self.total_bytes):
            raise MalformedIndexError(f"shape {self.shape} does not fit "
                                      f"{self.total_bytes} segment bytes")
        offset = 0
        last_group = -1
        for k, rec in enumerate(self.records):
            if rec.seq != k:
                raise MalformedIndexError(
                    f"record {k} has seq {rec.seq} (must be emission order)"
                )
            if rec.offset != offset:
                raise MalformedIndexError(
                    f"segment {k} offset {rec.offset} != expected {offset} "
                    "(byte ranges must be contiguous)"
                )
            if rec.nbytes <= 0:
                raise MalformedIndexError(f"segment {k} has {rec.nbytes} bytes")
            if not 0 <= rec.group < self.ngroups:
                raise MalformedIndexError(
                    f"segment {k} names group {rec.group} of {self.ngroups}"
                )
            if rec.group < last_group:
                raise MalformedIndexError(
                    f"segment {k} regresses to group {rec.group}: records "
                    "must be group-major (prefix property)"
                )
            last_group = rec.group
            offset += rec.nbytes
