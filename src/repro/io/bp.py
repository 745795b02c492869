"""BP5-flavoured self-describing container format.

A BP file holds named variables; each variable records shape, dtype, the
reduction operator that produced its payload (``none`` for raw data),
and a CRC32 over the payload.  Reading a variable transparently inverts
the operator — the integration point the paper uses: HPDR compressors
plug into the ADIOS2 write/read path as operators.

Operator tags are codec-table names (:mod:`repro.compressors`); any
object with ``compress(ndarray) -> bytes`` / ``decompress(bytes) ->
ndarray`` takes part when passed as ``compressor``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from repro.compressors import build_codec
from repro.container import Header, Reader, check_crc, crc32, pack_shape
from repro.util import CorruptStreamError, atomic_write_bytes, stream_errors

_HEADER = Header(b"BP5X", 1, "I", "BP5X")   # variable count
_LENS = struct.Struct("<HBBB")      # name/dtype/operator lengths, ndim
_TAIL = struct.Struct("<QI")        # payload length, payload CRC32

#: Bytes ahead of the first record: magic, version, variable count.
HEADER_SIZE = _HEADER.size

@dataclass
class BPVariable:
    """One variable entry: metadata + (possibly reduced) payload."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    operator: str
    payload: bytes

    @property
    def crc(self) -> int:
        return crc32(self.payload)

    @property
    def nbytes_original(self) -> int:
        return math.prod(self.shape) * np.dtype(self.dtype).itemsize

    @property
    def nbytes_stored(self) -> int:
        return len(self.payload)


class BPFile:
    """In-memory BP container, serializable to bytes or a file."""

    def __init__(self) -> None:
        self.variables: dict[str, BPVariable] = {}

    # -- writing -----------------------------------------------------------
    def put(
        self,
        name: str,
        data: np.ndarray,
        operator: str = "none",
        compressor=None,
    ) -> BPVariable:
        """Store a variable, reducing it with ``operator`` if not 'none'.

        ``compressor`` overrides the tag's codec at its table defaults
        (to carry a configured error bound); it must write the tag's
        streams.
        """
        data = np.ascontiguousarray(data)
        if operator == "none":
            payload = data.tobytes()
        else:
            comp = compressor if compressor is not None else build_codec(operator)
            payload = comp.compress(data)
        var = BPVariable(name, data.shape, data.dtype.str, operator, payload)
        self.variables[name] = var
        return var

    def put_reduced(
        self,
        name: str,
        payload: bytes,
        shape: tuple[int, ...],
        dtype,
        operator: str,
    ) -> BPVariable:
        """Store an already-reduced payload (pipeline output)."""
        var = BPVariable(name, tuple(shape), np.dtype(dtype).str, operator, payload)
        self.variables[name] = var
        return var

    # -- reading -----------------------------------------------------------
    def get(self, name: str, compressor=None) -> np.ndarray:
        """Read a variable, inverting its reduction operator."""
        if name not in self.variables:
            raise KeyError(f"no variable {name!r}; have {sorted(self.variables)}")
        var = self.variables[name]
        if var.operator == "none":
            if len(var.payload) != var.nbytes_original:
                raise CorruptStreamError(f"corrupt stream: {len(var.payload)} "
                                         f"raw bytes for {name!r} of {var.shape}")
            return np.frombuffer(var.payload, dtype=np.dtype(var.dtype)).reshape(
                var.shape
            ).copy()
        comp = compressor if compressor is not None else build_codec(var.operator)
        out = comp.decompress(var.payload)
        return np.asarray(out).reshape(var.shape)

    def payload_spans(self) -> dict[str, tuple[int, int]]:
        """Byte span ``(offset, nbytes)`` of each payload in :meth:`tobytes`.

        Computed from the serialization layout without materializing the
        stream — the writer records these in its index so readers can
        fetch a single variable's payload with one ranged read instead
        of loading the whole subfile (the progressive-retrieval path).
        """
        spans: dict[str, tuple[int, int]] = {}
        off = HEADER_SIZE
        for var in self.variables.values():
            off += _meta_size(var)
            spans[var.name] = (off, len(var.payload))
            off += len(var.payload)
        return spans

    # -- (de)serialization ---------------------------------------------------
    def tobytes(self) -> bytes:
        parts = [header(len(self.variables))]
        for var in self.variables.values():
            parts.extend(record_parts(var))
        return b"".join(parts)

    @classmethod
    def frombytes(cls, blob: bytes) -> "BPFile":
        nvars = parse_header(blob)
        off = HEADER_SIZE
        bp = cls()
        for _ in range(nvars):
            var, off = parse_record(blob, off)
            bp.variables[var.name] = var
        return bp

    def save(self, path) -> int:
        # fsync-and-rename: an interrupted flush (crash, injected kill)
        # must never leave a torn subfile next to a valid index.
        return atomic_write_bytes(path, self.tobytes())

    @classmethod
    def load(cls, path) -> "BPFile":
        with open(path, "rb") as f:
            return cls.frombytes(f.read())

    # -- reporting -----------------------------------------------------------
    @property
    def stored_bytes(self) -> int:
        return sum(v.nbytes_stored for v in self.variables.values())

    @property
    def original_bytes(self) -> int:
        return sum(v.nbytes_original for v in self.variables.values())

    @property
    def compression_ratio(self) -> float:
        stored = self.stored_bytes
        return self.original_bytes / stored if stored else float("inf")


def header(nvars: int) -> bytes:
    """The container header announcing ``nvars`` records."""
    return _HEADER.pack(nvars)


def parse_header(blob) -> int:
    """Variable count of a container (CorruptStreamError if not BP5X)."""
    return _HEADER.open(blob)[0][0]


def _meta_size(var: BPVariable) -> int:
    return (_LENS.size + len(var.name.encode("utf-8")) + len(var.dtype)
            + len(var.operator) + 8 * len(var.shape) + _TAIL.size)


def record_parts(var: BPVariable) -> list[bytes]:
    """One variable's record, as the pieces :meth:`BPFile.tobytes` joins."""
    name_b = var.name.encode("utf-8")
    dts = var.dtype.encode("ascii")
    op = var.operator.encode("ascii")
    return [
        _LENS.pack(len(name_b), len(dts), len(op), len(var.shape)),
        name_b + dts + op,
        pack_shape(var.shape),
        _TAIL.pack(len(var.payload), var.crc),
        var.payload,
    ]


@stream_errors
def parse_record(blob, off: int) -> tuple[BPVariable, int]:
    """The record at ``blob[off]`` and the offset just past it.

    The one record parser: :meth:`BPFile.frombytes` loops over it, and a
    resumed campaign walks its output with it.  A record cut short or
    failing its payload CRC raises :class:`CorruptStreamError`.
    """
    r = Reader(blob, off)
    nlen, dlen, olen, ndim = r.unpack(_LENS)
    name = bytes(r.take(nlen)).decode("utf-8")
    dtype = r.dtype(dlen).str
    operator = bytes(r.take(olen)).decode("ascii")
    shape = r.shape(ndim)
    plen, crc = r.unpack(_TAIL)
    payload = bytes(r.take(plen))
    check_crc(payload, crc, f"variable {name!r}")
    return BPVariable(name, shape, dtype, operator, payload), r.off
