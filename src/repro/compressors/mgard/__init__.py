"""MGARD-X: multilevel error-bounded lossy compression on HPDR.

Pipeline (paper Algorithm 1 / Fig. 5):

1. Multilevel decomposition — per level:
   a. multilevel coefficients via multilinear interpolation (``lerp``,
      Locality abstraction);
   b. global correction = L2 projection of the coefficients:
      transfer-mass-matrix multiplication (Locality) followed by
      tridiagonal solves (Iterative — computations along each vector are
      sequential);
   c. apply correction to the coarse approximation.
2. Per-level linear quantization — Map&Process abstraction (each level
   gets its own bin size).
3. Huffman encoding of the quantized stream (Algorithm 2).

The decomposition is coordinate-aware (non-uniform spacing at non-dyadic
boundaries is handled exactly), supports 1-4 dimensions and FP32/FP64,
and is exactly invertible up to floating-point roundoff when
quantization is disabled.
"""

from repro.compressors.mgard.hierarchy import DimHierarchy, Hierarchy
from repro.compressors.mgard.ops1d import (
    lerp_fill,
    mass_trans,
    TridiagFactors,
)
from repro.compressors.mgard.decompose import decompose, recompose
from repro.compressors.mgard.quantize import quantize_levels, dequantize_levels
from repro.compressors.mgard.compressor import MGARDX

__all__ = [
    "DimHierarchy",
    "Hierarchy",
    "lerp_fill",
    "mass_trans",
    "TridiagFactors",
    "decompose",
    "recompose",
    "quantize_levels",
    "dequantize_levels",
    "MGARDX",
]
