"""Typed failure modes of the progressive-retrieval surface.

Every error subclasses :class:`ProgressiveError` (itself a
``ValueError``) so callers can catch the whole family, while tests and
the serve transport distinguish the concrete kinds by name (the first
three are also each a :class:`~repro.util.CorruptStreamError`):

* :class:`MalformedIndexError` — the segment index is structurally
  invalid (bad magic/version, missing fields, non-contiguous byte
  ranges);
* :class:`TruncatedSegmentError` — a segment's bytes end before the
  length its record or header announces;
* :class:`SegmentCRCError` — a segment's bytes do not match the CRC32
  its index record pinned at write time;
* :class:`BoundUnreachableError` — the requested error bound is below
  what even the full segment stream achieves (carries the achievable
  floor so callers can retry with a feasible bound).
"""

from __future__ import annotations

from repro.util import CorruptStreamError


class ProgressiveError(ValueError):
    """Base class for progressive-retrieval failures."""


class MalformedIndexError(ProgressiveError, CorruptStreamError):
    """The segment index is structurally invalid."""


class TruncatedSegmentError(ProgressiveError, CorruptStreamError):
    """A segment's bytes end before its recorded length."""


class SegmentCRCError(ProgressiveError, CorruptStreamError):
    """A segment's bytes fail its index record's CRC32."""


class BoundUnreachableError(ProgressiveError):
    """The requested bound is below the full stream's achieved error."""

    def __init__(self, requested: float, floor: float) -> None:
        self.requested = float(requested)
        self.floor = float(floor)
        super().__init__(
            f"error bound {requested:g} is unreachable: the full segment "
            f"stream achieves {floor:g}; retry with eps >= {floor:g} or "
            f"retrieve without a bound for the exact reconstruction"
        )
