"""HPDR: High-Performance Portable Scientific Data Reduction Framework.

Python reproduction of Chen et al., IPDPS 2025.  The package provides:

* the HPDR framework core — parallelization abstractions, execution
  models, context memory management, and the optimized host-device
  pipeline (:mod:`repro.core`);
* device adapters for serial/multicore CPUs and simulated CUDA/HIP GPUs
  (:mod:`repro.adapters`);
* three reduction pipelines built on the framework — MGARD-X, ZFP-X and
  Huffman-X — plus the evaluation baselines
  (:mod:`repro.compressors`);
* a discrete-event hardware substrate standing in for the paper's
  GPUs/supercomputers (:mod:`repro.machine`, :mod:`repro.perf`);
* an ADIOS2-like I/O layer with at-scale simulations
  (:mod:`repro.io`);
* synthetic stand-ins for the NYX/XGC/E3SM datasets
  (:mod:`repro.data`).

Quickstart::

    import numpy as np
    from repro import MGARDX, Config, ErrorMode
    from repro.data import nyx_like

    data = nyx_like((64, 64, 64))
    compressor = MGARDX(Config(error_bound=1e-3, error_mode=ErrorMode.REL))
    blob = compressor.compress(data)
    restored = compressor.decompress(blob)
    assert compressor.max_error(data, blob) <= 1e-3 * np.ptp(data)
"""

from repro.core.config import Config, ErrorMode
from repro.core.context import ContextCache
from repro.adapters import get_adapter, list_adapters
from repro.compressors.mgard.compressor import MGARDX
from repro.compressors.zfp.compressor import ZFPX, rate_for_error_bound
from repro.compressors.zfp.modes import ZFPAccuracy
from repro.core.streaming import StreamingCompressor, StreamingDecompressor
from repro.compressors.huffman.compressor import HuffmanX
from repro.compressors.baselines.sz import SZ
from repro.compressors.baselines.lz4 import LZ4
from repro.progressive import ProgressiveMGARD, ProgressiveRetriever

__version__ = "1.0.0"

__all__ = [
    "Config",
    "ErrorMode",
    "ContextCache",
    "get_adapter",
    "list_adapters",
    "MGARDX",
    "ZFPX",
    "rate_for_error_bound",
    "ZFPAccuracy",
    "StreamingCompressor",
    "StreamingDecompressor",
    "HuffmanX",
    "SZ",
    "LZ4",
    "ProgressiveMGARD",
    "ProgressiveRetriever",
    "__version__",
]
