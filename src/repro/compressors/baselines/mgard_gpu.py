"""MGARD-GPU baseline: release-version runtime behaviour.

The paper implements MGARD-X "based on the published algorithm designs"
of MGARD-GPU — the maths is shared; the difference is runtime behaviour.
This wrapper therefore reuses the MGARD-X transform but disables context
caching (fresh :class:`ContextCache` with capacity 1 that is cleared
after every call → every invocation reallocates).  The
simulator takes its ``mgard-gpu`` behaviour (no overlapped pipeline,
per-call allocations) from :data:`repro.bench.methods.EVAL_METHODS`.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import Config
from repro.core.context import ContextCache
from repro.compressors.mgard.compressor import MGARDX


class MGARDGPU(MGARDX):
    """Release-version MGARD (functional twin of MGARD-X)."""

    def __init__(self, config: Config | None = None, adapter=None, **kwargs) -> None:
        super().__init__(config=config, adapter=adapter,
                         context_cache=ContextCache(capacity=1), **kwargs)

    def compress(self, data: np.ndarray, coords=None) -> bytes:
        try:
            return super().compress(data, coords=coords)
        finally:
            # Release-version behaviour: nothing persists across calls.
            self.cache.clear()

    def decompress(self, blob: bytes, coords=None) -> np.ndarray:
        try:
            return super().decompress(blob, coords=coords)
        finally:
            self.cache.clear()
