"""Framework configuration: error-bound modes and compression settings.

A :class:`Config` says what a lossy codec must guarantee (bound, mode)
and whether it codes losslessly afterwards.  It does not key the
Context Memory Model: a context depends on the grid alone (shape, dtype,
coords), so every bound shares it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ErrorMode(enum.Enum):
    """Error-bound interpretation for lossy pipelines.

    ``ABS``: ``max|x - x'| <= eb``.
    ``REL``: ``max|x - x'| <= eb * (max(x) - min(x))`` — the "relative
    error bound" convention the paper uses in its evaluation.
    """

    ABS = "abs"
    REL = "rel"


@dataclass(frozen=True)
class Config:
    """Immutable reduction configuration."""

    error_bound: float = 1e-4
    error_mode: ErrorMode = ErrorMode.REL
    #: Lossless stage toggle for lossy pipelines.
    lossless: str = "huffman"

    def __post_init__(self) -> None:
        if self.error_bound <= 0:
            raise ValueError(f"error_bound must be positive, got {self.error_bound}")
        if self.lossless not in ("huffman", "none"):
            raise ValueError(f"lossless must be huffman|none, got {self.lossless!r}")

    def absolute_bound(self, data: np.ndarray) -> float:
        """Resolve the configured bound to an absolute tolerance for ``data``."""
        if self.error_mode is ErrorMode.ABS:
            return self.error_bound
        lo = float(np.min(data))
        hi = float(np.max(data))
        value_range = hi - lo
        if value_range == 0.0:
            return self.error_bound  # constant field: any bound is satisfiable
        return self.error_bound * value_range
