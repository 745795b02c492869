"""How a stream is framed: the one reader every binary format parses with.

A stream starts with a magic tag, a version byte (the CLI envelope has
none) and fixed little-endian fields; :class:`Header` packs them and,
on the way back, checks length, magic and version, in that order.  The sections after it are read with
a :class:`Reader`, a cursor that refuses to run past its buffer.

**The size rule.** No parser allocates or leases from a declared size
until that size has been checked against the bytes present.  The
:class:`Reader` checks every length and count before it slices; a count
that sizes *decoded* memory (a shape, a key count, a block count) is
bounded by the bytes that code it, where the codec parses it.  A lying
length is a :class:`~repro.util.CorruptStreamError` in bounded memory.

CRC32 lives here too.  ``HPDS`` wire frames (``serve/net.py``) are the
one format framed elsewhere.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

import numpy as np

from repro.util import CorruptStreamError

#: Dtype kinds a stream may declare: bool, signed, unsigned, float, complex.
_NUMERIC_KINDS = "biufc"


class Reader:
    """A cursor over ``buf``; a short read raises ``short``."""

    __slots__ = ("buf", "off", "short")

    def __init__(self, buf: Any, off: int = 0,
                 short: type[CorruptStreamError] = CorruptStreamError) -> None:
        self.buf, self.off, self.short = buf, off, short

    @property
    def remaining(self) -> int:
        return len(self.buf) - self.off

    def _need(self, n: int, what: str = "section") -> None:
        if not 0 <= n <= self.remaining:
            raise self.short(f"corrupt stream: {what} truncated ({n} bytes "
                             f"at offset {self.off}, "
                             f"{max(self.remaining, 0)} left)")

    def unpack(self, st: struct.Struct) -> tuple[Any, ...]:
        self._need(st.size)
        fields = st.unpack_from(self.buf, self.off)
        self.off += st.size
        return fields

    def take(self, n: int, what: str = "section") -> Any:
        """The next ``n`` bytes (``what``, in errors), as a slice."""
        self._need(n, what)
        self.off += n
        return self.buf[self.off - n : self.off]

    def array(self, dtype: Any, count: int) -> np.ndarray:
        """A read-only view of the next ``count`` items."""
        dtype = np.dtype(dtype)
        self._need(count * dtype.itemsize)
        out = np.frombuffer(self.buf, dtype=dtype, count=count, offset=self.off)
        self.off += count * dtype.itemsize
        return out

    def shape(self, ndim: int) -> tuple[int, ...]:
        """``ndim`` little-endian int64 dimensions, each ``>= 0``."""
        self._need(8 * ndim)
        shape: tuple[int, ...] = struct.unpack_from(f"<{ndim}q", self.buf, self.off)
        self.off += 8 * ndim
        if any(n < 0 for n in shape):
            raise self.short(f"corrupt stream: negative dimension in {shape}")
        return shape

    def dtype(self, dts_len: int) -> np.dtype:
        """A dtype string; any string ``np.dtype`` parses."""
        raw = bytes(self.take(dts_len))
        try:
            return np.dtype(raw.decode("ascii"))
        except (TypeError, ValueError, SyntaxError) as exc:
            raise self.short(f"corrupt stream: bad dtype {raw!r}") from exc

    def meta(self, dts_len: int, ndim: int) -> tuple[np.dtype, tuple[int, ...]]:
        """A codec's dtype, which must be numeric, and shape."""
        dtype = self.dtype(dts_len)
        if dtype.kind not in _NUMERIC_KINDS:
            raise self.short(f"corrupt stream: dtype {dtype.str!r} is not numeric")
        return dtype, self.shape(ndim)


def pack_shape(shape: tuple[int, ...]) -> bytes:
    return struct.pack(f"<{len(shape)}q", *shape)


def pack_meta(dtype: Any, shape: tuple[int, ...]) -> bytes:
    """What :meth:`Reader.meta` reads (the header holds the lengths)."""
    return np.dtype(dtype).str.encode("ascii") + pack_shape(shape)


class Header:
    """Magic, version byte (``None``: none) and the ``struct`` fields
    ``fmt`` of one format, named ``who`` in errors.  A format with
    errors of its own passes ``short`` (too few bytes) and ``bad``
    (wrong magic or version)."""

    __slots__ = ("magic", "version", "who", "fields", "size", "short", "bad",
                 "_prefix", "_article")

    def __init__(
        self, magic: bytes, version: int | None, fmt: str, who: str, *,
        short: type[CorruptStreamError] = CorruptStreamError,
        bad: type[CorruptStreamError] = CorruptStreamError,
    ) -> None:
        self.magic, self.version, self.who = magic, version, who
        self.fields = struct.Struct("<" + fmt)
        self._prefix = magic if version is None else magic + bytes([version])
        self.size = len(self._prefix) + self.fields.size
        self.short, self.bad = short, bad
        # A tag is read letter by letter ("an MGARD-X"), a word is not
        # ("a Huffman-X", "a segment").
        spelled = who[:1] in "AEFHILMNORSX" and not who[1:2].islower()
        self._article = "an" if spelled else "a"

    def pack(self, *fields: Any) -> bytes:
        return self._prefix + self.fields.pack(*fields)

    def matches(self, blob: Any) -> bool:
        return bytes(blob[: len(self.magic)]) == self.magic

    def open(self, blob: Any) -> tuple[tuple[Any, ...], Reader]:
        """``(fields, reader)``, the reader just past the header."""
        if len(blob) < self.size:
            raise self.short(f"corrupt stream: truncated {self.who} header "
                             f"({len(blob)} < {self.size} bytes)")
        if not self.matches(blob):
            raise self.bad(f"not {self._article} {self.who} stream (bad magic)")
        if self.version is not None and blob[len(self.magic)] != self.version:
            raise self.bad(
                f"unsupported {self.who} version {blob[len(self.magic)]}")
        fields = self.fields.unpack_from(blob, len(self._prefix))
        return fields, Reader(blob, self.size, self.short)


def crc32(data: Any) -> int:
    return zlib.crc32(data)


def check_crc(data: Any, want: Any, what: str,
              error: type[Exception] = CorruptStreamError) -> None:
    """Raise ``error`` unless ``data``'s CRC32 is ``want``."""
    if crc32(data) != want:
        raise error(f"CRC mismatch for {what}")
