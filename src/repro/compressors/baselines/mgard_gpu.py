"""MGARD-GPU baseline: release-version execution profile.

The paper implements MGARD-X "based on the published algorithm designs"
of MGARD-GPU — the maths is shared; the difference is runtime behaviour.
This wrapper therefore reuses the MGARD-X transform but:

* disables context caching (fresh :class:`ContextCache` with capacity 1
  that is cleared after every call → every invocation reallocates), and
* carries the legacy execution profile used by the simulator benches
  (no overlapped pipeline, per-call allocations, ``mgard-gpu`` kernel
  throughputs).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import Config
from repro.core.context import ContextCache
from repro.compressors.baselines.profile import ExecutionProfile
from repro.compressors.mgard.compressor import MGARDX


class MGARDGPU(MGARDX):
    """Legacy-profile MGARD (functional twin of MGARD-X)."""

    profile = ExecutionProfile(
        name="mgard-gpu",
        kernel="mgard-gpu",
        context_caching=False,
        overlapped_pipeline=False,
    )

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
