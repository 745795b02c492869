"""Baseline reduction routines the paper compares against.

These are *functional* reimplementations of the released GPU tools:

* :class:`~repro.compressors.baselines.sz.SZ` — cuSZ's dual-quantized
  Lorenzo predictor + Huffman (error-bounded lossy).
* :class:`~repro.compressors.baselines.lz4.LZ4` — byte-level LZ77 with
  an LZ4-flavoured block format (NVCOMP-LZ4 stand-in, lossless).

MGARD-GPU and ZFP-CUDA write MGARD-X's and ZFP-X's streams byte for
byte (the paper implements all pipelines "based on their published
algorithm designs"), so their BP tags are aliases in the codec table;
their runtime profiles live in :data:`repro.bench.methods.EVAL_METHODS`.
"""

from repro.compressors.baselines.sz import SZ
from repro.compressors.baselines.lz4 import LZ4

__all__ = ["SZ", "LZ4"]
