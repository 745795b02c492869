"""SZ baseline (cuSZ-style): dual-quantized Lorenzo prediction + Huffman.

cuSZ's key insight (Tian et al., PACT'20) is *dual quantization*:
pre-quantize the data onto the error-bound grid first, then run the
first-order Lorenzo predictor on integers.  Prediction errors cannot
propagate (everything is exact integer arithmetic), so both directions
vectorize completely — the property that made cuSZ GPU-friendly, and
what makes this NumPy implementation fast.

The n-D first-order Lorenzo residual is the mixed first difference,
whose inverse is an iterated prefix sum along each axis.

Error bound: the float64 reconstruction ``2eb·round(x/2eb)`` satisfies
``|x - x̂| ≤ eb`` by construction, for any input.  The output is then
cast to the input dtype, so what a float32 caller gets back is within
``eb + ½ ulp(x̂)`` in float32 — a value that lands on the bound can be
rounded across it (``tests/compressors/test_sz.py`` pins both sides).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.container import Header, pack_meta
from repro.core.config import Config, ErrorMode
from repro.compressors.huffman import HuffmanX
from repro.compressors.huffman.compressor import key_count
from repro.compressors.mgard.quantize import from_symbols, to_symbols
from repro.util import CorruptStreamError, stream_errors

#: dtype-string length, ndim; then dtype and shape.
_HEADER = Header(b"CUSZ", 1, "BB", "SZ")
#: abs bound, dict size, outlier count, payload length.
_BODY = struct.Struct("<dIQQ")


def lorenzo_forward(xq: np.ndarray) -> np.ndarray:
    """Mixed first difference (first-order Lorenzo residual), exact."""
    delta = xq.astype(np.int64)
    for axis in range(delta.ndim):
        delta = np.diff(delta, axis=axis, prepend=0)
    return delta


def lorenzo_inverse(delta: np.ndarray) -> np.ndarray:
    """Iterated prefix sum — exact inverse of :func:`lorenzo_forward`."""
    xq = delta.astype(np.int64)
    for axis in range(xq.ndim):
        xq = np.cumsum(xq, axis=axis)
    return xq


class SZ:
    """cuSZ-style error-bounded lossy compressor.

    Parameters
    ----------
    config:
        Error bound and mode (same conventions as MGARD-X).
    dict_size:
        Huffman dictionary size for quantization codes.
    """

    def __init__(
        self,
        config: Config | None = None,
        adapter=None,
        dict_size: int = 4096,
    ) -> None:
        self.config = config if config is not None else Config()
        self.adapter = adapter
        self.dict_size = dict_size

    def compress(self, data: np.ndarray) -> bytes:
        data = np.ascontiguousarray(data)
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"SZ supports float32/float64, got {data.dtype}")
        if data.size == 0:
            raise ValueError(f"SZ needs a non-empty array, got shape {data.shape}")
        abs_eb = self.config.absolute_bound(data)
        twice = 2.0 * abs_eb

        xq = np.round(data.astype(np.float64) / twice).astype(np.int64)
        delta = lorenzo_forward(xq)
        symbols, outliers = to_symbols(delta.reshape(-1), self.dict_size)
        huff = HuffmanX(adapter=self.adapter)
        payload = huff.compress_keys(symbols, self.dict_size)

        return b"".join([
            _HEADER.pack(len(data.dtype.str), data.ndim),
            pack_meta(data.dtype, data.shape),
            _BODY.pack(abs_eb, self.dict_size, outliers.size, len(payload)),
            outliers.astype(np.int64).tobytes(),
            payload,
        ])

    @stream_errors
    def decompress(self, blob: bytes) -> np.ndarray:
        (dts_len, ndim), r = _HEADER.open(blob)
        dtype, shape = r.meta(dts_len, ndim)
        abs_eb, _dict_size, noutliers, payload_len = r.unpack(_BODY)
        outliers = r.array("<i8", noutliers)
        payload = r.take(payload_len)
        # The Lorenzo inverse runs over the shape: it must be what the
        # payload codes.
        if key_count(payload) != math.prod(shape):
            raise CorruptStreamError(f"corrupt stream: shape {shape} does not "
                                     "match the coded residuals")

        huff = HuffmanX(adapter=self.adapter)
        symbols = huff.decompress_keys(payload)
        delta = from_symbols(symbols, outliers).reshape(shape)
        xq = lorenzo_inverse(delta)
        return (xq.astype(np.float64) * (2.0 * abs_eb)).astype(dtype)

    def compression_ratio(self, data: np.ndarray, blob: bytes) -> float:
        return data.nbytes / len(blob)

    def max_error(self, data: np.ndarray, blob: bytes) -> float:
        back = self.decompress(blob)
        return float(np.max(np.abs(back.astype(np.float64) - data.astype(np.float64))))
