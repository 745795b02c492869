"""MGARD-X compressor: ties decomposition, quantization and Huffman
together behind the HPDR public API (Algorithm 1 end-to-end).

Hierarchies and tridiagonal factorizations are cached through the
Context Memory Model so repeated compressions of the same shape/dtype
perform no reconstruction work — the optimization behind the paper's
multi-GPU scalability results.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.container import Header, pack_meta
from repro.core.config import Config
from repro.core.context import ContextCache, ReductionContext
from repro.compressors.huffman import HuffmanX
from repro.compressors.huffman.compressor import key_count
from repro.compressors.mgard.decompose import (
    decompose,
    level_factors,
    recompose,
)
from repro.compressors.mgard.hierarchy import Hierarchy
from repro.compressors.mgard.quantize import (
    DEFAULT_KAPPA,
    dequantize_levels,
    from_symbols,
    level_bins,
    quantize_levels,
    to_symbols,
)
from repro.trace.tracer import count_bytes, span
from repro.util import CorruptStreamError, stream_errors

#: lossless flag, dtype-string length, ndim; then dtype and shape.
_HEADER = Header(b"MGRX", 1, "BBB", "MGARD-X")
#: abs bound, kappa, dict size, bin count, outlier count, payload length.
_BODY = struct.Struct("<ddIIQQ")

#: Largest ``|value| / bin`` a stream is written for.  Past float64's
#: mantissa the coefficients cannot resolve a bin, and a little further
#: the quantized code overflows int64 — refused, not written as garbage.
_MAX_CODE = 2.0**52


class Grid(NamedTuple):
    """One grid's pinned CMM context and the metadata exact to it."""

    ctx: ReductionContext
    hierarchy: Hierarchy
    factors: list

    def split(self, plane: np.ndarray) -> list[np.ndarray]:
        """An ``(N, size)`` plane of all groups as per-group ``(N,
        group size)`` views, finest group first."""
        bounds = np.cumsum([0] + self.hierarchy.group_sizes())
        return [plane[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class MGARDX:
    """HPDR multilevel error-bounded lossy compressor.

    Parameters
    ----------
    config:
        Error bound / mode / lossless settings.  ``config.error_bound``
        with ``ErrorMode.REL`` matches the paper's "relative error
        bound" convention (relative to the data's value range).
    adapter:
        Device adapter shared by all stages.
    dict_size:
        Huffman dictionary size for quantized coefficients.
    kappa:
        Multilevel error-amplification allowance (see quantize.py).
    verify:
        When True, compression round-trip-checks the bound and tightens
        bins (up to 3 halvings) if the conservative estimate ever falls
        short — turning the statistical guarantee into a hard one.
    """

    def __init__(
        self,
        config: Config | None = None,
        adapter=None,
        context_cache: ContextCache | None = None,
        dict_size: int = 4096,
        kappa: float = DEFAULT_KAPPA,
        verify: bool = False,
        s: float = 0.0,
    ) -> None:
        self.config = config if config is not None else Config()
        self.adapter = adapter
        self.cache = context_cache if context_cache is not None else ContextCache()
        if dict_size < 2 or dict_size > 1 << 16:
            raise ValueError(f"dict_size must be in [2, 65536], got {dict_size}")
        self.dict_size = dict_size
        self.kappa = float(kappa)
        self.verify = verify
        # MGARD smoothness parameter: redistributes the error budget
        # across levels (see quantize.level_bins).  The total budget is
        # invariant, so the error bound holds for every s.
        self.s = float(s)
        # One lossless coder for the instance's lifetime, sharing the
        # CMM cache: its working buffers persist across calls too.
        self._huffman = HuffmanX(adapter=adapter, context_cache=self.cache)

    # ------------------------------------------------------------------
    @contextmanager
    def grid(self, shape: tuple[int, ...], dtype, coords=None) -> Iterator[Grid]:
        """The pinned context of one grid, released on exit.

        Keyed by shape, dtype and coords alone: hierarchy, factors and
        geometry depend on nothing else (bins travel in the stream), so
        every bound, batch width and the progressive writer and reader
        share one context per grid.  Working memory grows to the widest
        launch the context has run.
        """
        coords = self._check_coords(coords, shape)
        coords_key = (
            None
            if coords is None
            else tuple(hash(c.tobytes()) for c in coords)
        )
        key = ("mgard", tuple(shape), np.dtype(dtype).str, coords_key)
        # The pin protects the context while the nested Huffman coder
        # opens its own contexts in the shared cache (a tight-capacity
        # cache would otherwise evict — and poison — ours mid-call).
        ctx = self.cache.get(key, pin=True)
        try:
            hierarchy = ctx.object("hierarchy", lambda: Hierarchy(shape, coords))
            factors = ctx.object(
                "factors",
                lambda: [
                    level_factors(hierarchy, l)
                    for l in range(hierarchy.total_levels)
                ],
            )
            yield Grid(ctx, hierarchy, factors)
        finally:
            self.cache.release(ctx)

    @staticmethod
    def _check_coords(
        coords, shape: tuple[int, ...]
    ) -> tuple[np.ndarray, ...] | None:
        """Validate per-dimension node coordinates (non-uniform grids).

        MGARD compresses non-uniform tensor grids; the same coordinates
        must be supplied on decompression (grids are application
        metadata, not embedded in the stream — matching MGARD's API).
        """
        if coords is None:
            return None
        if len(coords) != len(shape):
            raise ValueError(
                f"need {len(shape)} coordinate arrays, got {len(coords)}"
            )
        out = []
        for d, (c, n) in enumerate(zip(coords, shape)):
            c = np.asarray(c, dtype=np.float64)
            if c.shape != (n,):
                raise ValueError(
                    f"coords[{d}] has length {c.size}, expected {n}"
                )
            out.append(c)
        return tuple(out)

    def _absolute_bound(self, data: np.ndarray) -> tuple[float, float]:
        """``(absolute bound, largest magnitude)`` of ``data``, or the
        reason it cannot be compressed, before any byte is written:
        quantizing NaN or inf yields escape markers without outliers, a
        stream :meth:`decompress` refuses."""
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"MGARD-X supports float32/float64, got {data.dtype}")
        if data.ndim < 1 or data.ndim > 4:
            raise ValueError(f"MGARD-X supports 1-4 dims, got {data.ndim}")
        if data.size == 0:
            raise ValueError(
                f"MGARD-X needs a non-empty array, got shape {data.shape}"
            )
        # NaN and inf both survive min/max, and a relative bound takes
        # the range: two finite numbers vouch for the whole array.
        peak = max(abs(float(data.min())), abs(float(data.max())))
        abs_eb = self.config.absolute_bound(data)
        if not (math.isfinite(peak) and math.isfinite(abs_eb)):
            raise ValueError("MGARD-X needs finite data, got NaN or inf")
        return abs_eb, peak

    # ------------------------------------------------------------------
    # Single-shot is a batch of one: one compress body, one decompress
    # body, each one launch per pipeline stage over a leading batch axis
    # ------------------------------------------------------------------
    def compress(self, data: np.ndarray, coords=None) -> bytes:
        return self.compress_batch([data], coords=coords)[0]

    def compress_batch(self, arrays: Sequence[np.ndarray], coords=None) -> list[bytes]:
        """Compress N uniform-(shape, dtype) arrays, one launch per stage.

        A batch of N is byte-identical to N batches of one: the error
        bounds, quantization bins and codebooks stay per-item (they are
        data-dependent), while decomposition, quantization and the
        nested Huffman stages run once over a leading batch axis (see
        :func:`~repro.compressors.mgard.decompose.decompose` for
        the lane-identity argument).  Raises ``ValueError`` for
        non-uniform batches so callers can fall back per item.
        """
        # ``asarray``, not ``ascontiguousarray``: a 0-d input stays 0-d and
        # is refused, not promoted to one value of shape (1,).
        datas = [np.asarray(a, order="C") for a in arrays]
        for d in datas[1:]:
            if d.shape != datas[0].shape or d.dtype != datas[0].dtype:
                raise ValueError(
                    "compress_batch requires uniform shape/dtype, got "
                    f"{d.shape}/{d.dtype} vs {datas[0].shape}/{datas[0].dtype}"
                )
        if self.verify:
            # The verify loop re-derives κ per item from round-trip
            # error measurements — inherently per-item control flow.
            blobs = [self._compress_verified(d, coords) for d in datas]
        else:
            blobs = self._compress(datas, coords, self.kappa) if datas else []
        for d, blob in zip(datas, blobs):
            count_bytes("mgard", d.nbytes, len(blob))
        return blobs

    def _compress_verified(self, data: np.ndarray, coords) -> bytes:
        """Compress one array, tightening κ until the round trip meets
        the bound."""
        abs_eb = self.config.absolute_bound(data)
        kappa = self.kappa
        for attempt in range(6):
            (blob,) = self._compress([data], coords, kappa)
            err = self.max_error(data, blob, coords=coords)
            if err <= abs_eb:
                return blob
            # Scale κ by the measured overshoot (with margin): the error
            # is linear in the bin sizes, so this converges in one or
            # two rounds even from a wildly loose starting κ.
            kappa *= 2.0 * err / abs_eb
        raise RuntimeError(
            f"could not satisfy error bound {abs_eb} after tightening"
        )

    @contextmanager
    def quantized(
        self, datas: Sequence[np.ndarray], coords=None, kappa: float | None = None
    ) -> Iterator[tuple[Grid, tuple[float, ...], np.ndarray, np.ndarray]]:
        """Front half of compression over a batch of uniform arrays.

        Validates, resolves each lane's absolute bound, refuses a bound
        finer than float64 resolves at the data's magnitude, decomposes
        and quantizes.  Yields ``(grid, abs_ebs, bins, qflat, groups)`` —
        ``bins`` is ``(N, groups)``, ``qflat`` the ``(N, coefficients)``
        int64 codes of every group, finest first (``grid.split`` cuts it
        into groups), and ``groups`` the float64 ``(N, group size)``
        coefficients they quantize, whose life ends here: the caller may
        reuse their memory — while the grid's context is still pinned.
        """
        kappa = self.kappa if kappa is None else kappa
        first, nbatch = datas[0], len(datas)
        ebs, peaks = zip(*(self._absolute_bound(d) for d in datas))
        with self.grid(first.shape, first.dtype, coords) as grid:
            with span("mgard.decompose", cat="mgard",
                      nbytes=int(first.nbytes) * nbatch,
                      levels=grid.hierarchy.total_levels, batch=nbatch):
                coeffs, coarsest = decompose(
                    datas, grid.hierarchy, adapter=self.adapter,
                    factors_per_level=grid.factors, ctx=grid.ctx,
                )
            groups = coeffs + [coarsest.reshape(nbatch, -1)]

            with span("mgard.quantize", cat="mgard", levels=len(groups),
                      batch=nbatch):
                bins = np.stack([
                    level_bins(eb, len(groups), kappa, s=self.s) for eb in ebs
                ])
                for peak, lane_bins in zip(peaks, bins):
                    if peak >= lane_bins.min() * _MAX_CODE:
                        raise ValueError(
                            f"error bound too tight for data of magnitude "
                            f"{peak:g}: a bin of {lane_bins.min():g} asks "
                            f"for more than float64's 52-bit mantissa holds"
                        )
                # The codes land in one plane: the symbol mapping reads
                # it whole, without a concatenated copy.
                qflat = np.empty(
                    (nbatch, sum(g.shape[-1] for g in groups)), np.int64
                )
                quantize_levels(groups, bins, adapter=self.adapter,
                                out=grid.split(qflat))
            yield grid, ebs, bins, qflat, groups

    def recomposed(
        self, grid: Grid, qflat: np.ndarray, bins: np.ndarray, dtype
    ) -> list[np.ndarray]:
        """Back half of decompression: the ``(N, coefficients)`` int64
        codes of every group (finest first) and ``(N, groups)`` bins to
        ``N`` independent arrays.

        The codes are consumed: their plane carries the dequantized
        coefficients into the recomposition, and then the finest grid.
        """
        nbatch = len(bins)
        hierarchy = grid.hierarchy
        with span("mgard.dequantize", cat="mgard", batch=nbatch):
            groups = dequantize_levels(grid.split(qflat), bins,
                                       adapter=self.adapter, in_place=True)
        with span("mgard.recompose", cat="mgard",
                  levels=hierarchy.total_levels, batch=nbatch):
            coarsest = groups[-1].reshape(
                (nbatch,) + hierarchy.shape_at(hierarchy.total_levels)
            )
            # The groups partition the grid's nodes, so the plane is
            # exactly one float64 grid per lane.
            out = recompose(
                groups[:-1], coarsest, hierarchy, adapter=self.adapter,
                factors_per_level=grid.factors, ctx=grid.ctx,
                out=qflat.view(np.float64).reshape((nbatch,) + hierarchy.shape),
            )
            # recompose's result aliases the plane or context memory;
            # astype(copy=True) hands the caller independent arrays.
            return [lane.astype(dtype, copy=True) for lane in out]

    def _compress(self, datas: list[np.ndarray], coords, kappa: float) -> list[bytes]:
        first = datas[0]
        with self.quantized(datas, coords, kappa) as (_, ebs, bins, qflat, _):
            with span("mgard.encode", cat="mgard"):
                symbols, outliers = to_symbols(qflat, self.dict_size)
                if self.config.lossless == "huffman":
                    payloads = self._huffman.compress_keys_batch(
                        list(symbols), self.dict_size
                    )
                else:
                    payloads = [
                        row.astype(np.int32).tobytes() for row in symbols
                    ]

            with span("mgard.serialize", cat="mgard", batch=len(datas)):
                return [
                    self._serialize_stream(
                        first.dtype, first.shape, eb, kappa, lane_bins,
                        lane_outliers, payload,
                    )
                    for eb, lane_bins, lane_outliers, payload in zip(
                        ebs, bins, outliers, payloads
                    )
                ]

    def _serialize_stream(
        self, dtype, shape, abs_eb, kappa, bins, outliers, payload: bytes
    ) -> bytes:
        """Assemble one ``MGRX`` stream."""
        lossless = 1 if self.config.lossless == "huffman" else 0
        return b"".join([
            _HEADER.pack(lossless, len(np.dtype(dtype).str), len(shape)),
            pack_meta(dtype, shape),
            _BODY.pack(abs_eb, kappa, self.dict_size, bins.size,
                       outliers.size, len(payload)),
            bins.astype(np.float64).tobytes(),
            outliers.astype(np.int64).tobytes(),
            payload,
        ])

    # ------------------------------------------------------------------
    @staticmethod
    def _parse_stream(blob: bytes):
        """Parse one ``MGRX`` stream into
        ``(lossless, dtype, shape, bins, outliers, payload)``; the shape
        sizes the hierarchy, so it must be what the payload codes."""
        (lossless, dts_len, ndim), r = _HEADER.open(blob)
        dtype, shape = r.meta(dts_len, ndim)
        *_, nbins, noutliers, payload_len = r.unpack(_BODY)
        bins = r.array("<f8", nbins)
        outliers = r.array("<i8", noutliers)
        payload = r.take(payload_len)
        if (key_count(payload) if lossless else len(payload) // 4) != math.prod(shape):
            raise CorruptStreamError(f"corrupt stream: shape {shape} does not "
                                     "match the coded coefficients")
        return lossless, dtype, shape, bins, outliers, payload

    def decompress(self, blob: bytes, coords=None) -> np.ndarray:
        return self.decompress_batch([blob], coords=coords)[0]

    @stream_errors
    def decompress_batch(self, blobs: Sequence[bytes], coords=None) -> list[np.ndarray]:
        """Invert :meth:`compress_batch` with one launch per stage.

        Requires uniform stream headers (lossless mode, dtype, shape) —
        what a uniform :meth:`compress_batch` produces; ``ValueError``
        otherwise and callers fall back per stream.
        """
        parsed = [self._parse_stream(b) for b in blobs]
        if not parsed:
            return []
        lossless, dtype, shape = parsed[0][:3]
        for p in parsed[1:]:
            if p[:3] != (lossless, dtype, shape):
                raise ValueError(
                    "decompress_batch requires uniform stream headers"
                )
        with self.grid(shape, dtype, coords) as grid:
            with span("mgard.decode", cat="mgard", batch=len(parsed)):
                # One planned plane carries the chain: keys are decoded
                # into it, turned into codes in place, and dequantized
                # in place by ``recomposed``.
                qflat = grid.ctx.scratch(
                    "decode.codes", len(parsed) * math.prod(shape), np.int64
                ).reshape(len(parsed), -1)
                if lossless:
                    self._huffman.decompress_keys_batch(
                        [p[5] for p in parsed], out=list(qflat)
                    )
                else:
                    for row, p in zip(qflat, parsed):
                        row[:] = np.frombuffer(p[5], dtype=np.int32)
                from_symbols(qflat, [p[4] for p in parsed], in_place=True)
            return self.recomposed(
                grid, qflat, np.stack([p[3] for p in parsed]), dtype
            )

    # ------------------------------------------------------------------
    def compression_ratio(self, data: np.ndarray, blob: bytes) -> float:
        return data.nbytes / len(blob)

    def max_error(self, data: np.ndarray, blob: bytes, coords=None) -> float:
        back = self.decompress(blob, coords=coords)
        return float(np.max(np.abs(back.astype(np.float64) - data.astype(np.float64))))
