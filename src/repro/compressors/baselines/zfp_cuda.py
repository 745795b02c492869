"""ZFP-CUDA baseline: release-version fixed-rate ZFP over ZFP maths.

Same fixed-rate codec as ZFP-X (the transform is defined by the zfp
specification, so the bitstreams agree).  The simulator takes its
``zfp-cuda`` behaviour (per-call allocations, no overlapped pipeline)
from :data:`repro.bench.methods.EVAL_METHODS`; as in the paper's
evaluation, there is no HIP build (the perf model raises for MI250X).
"""

from __future__ import annotations

from repro.compressors.zfp.compressor import ZFPX


class ZFPCUDA(ZFPX):
    """Release-version fixed-rate ZFP (functional twin of ZFP-X)."""
