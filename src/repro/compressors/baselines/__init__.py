"""Baseline reduction routines the paper compares against.

These are *functional* reimplementations of the released GPU tools:

* :class:`~repro.compressors.baselines.sz.SZ` — cuSZ's dual-quantized
  Lorenzo predictor + Huffman (error-bounded lossy).
* :class:`~repro.compressors.baselines.lz4.LZ4` — byte-level LZ77 with
  an LZ4-flavoured block format (NVCOMP-LZ4 stand-in, lossless).
* :class:`~repro.compressors.baselines.mgard_gpu.MGARDGPU` and
  :class:`~repro.compressors.baselines.zfp_cuda.ZFPCUDA` — the same
  maths as MGARD-X / ZFP-X (the paper implements all pipelines "based
  on their published algorithm designs"); MGARD-GPU also keeps no CMM
  context across calls.
"""

from repro.compressors.baselines.sz import SZ
from repro.compressors.baselines.lz4 import LZ4
from repro.compressors.baselines.mgard_gpu import MGARDGPU
from repro.compressors.baselines.zfp_cuda import ZFPCUDA

__all__ = [
    "SZ",
    "LZ4",
    "MGARDGPU",
    "ZFPCUDA",
]
