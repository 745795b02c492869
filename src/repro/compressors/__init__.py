"""Reduction pipelines implemented on HPDR, plus evaluation baselines.

HPDR pipelines (Section IV case studies):

* :mod:`repro.compressors.mgard` — MGARD-X error-bounded lossy
  compression (multilevel decomposition + quantization + Huffman).
* :mod:`repro.compressors.zfp` — ZFP-X fixed-rate compression
  (4^d blocks, block-floating-point, near-orthogonal transform,
  bitplane truncation).
* :mod:`repro.compressors.huffman` — Huffman-X lossless compression
  (histogram, two-phase codebook, chunk-parallel encode/serialize).

Baselines (Section VI comparators):

* :mod:`repro.compressors.baselines.sz` — cuSZ-style dual-quantized
  Lorenzo predictor + Huffman.
* :mod:`repro.compressors.baselines.lz4` — NVCOMP-LZ4 stand-in
  (LZ77 byte compressor).
* :mod:`repro.compressors.baselines.mgard_gpu` /
  :mod:`repro.compressors.baselines.zfp_cuda` — "release version"
  wrappers: same maths, legacy execution profile (no CMM, no
  overlapped pipeline) for the performance studies.
"""

from repro.compressors.huffman import HuffmanX
from repro.compressors.zfp import ZFPX
from repro.compressors.mgard import MGARDX

__all__ = ["HuffmanX", "ZFPX", "MGARDX"]
