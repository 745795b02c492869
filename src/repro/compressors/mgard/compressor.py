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
from typing import Sequence

import numpy as np

from repro.core.config import Config, ErrorMode
from repro.core.context import ContextCache
from repro.compressors.huffman import HuffmanX
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
from repro.util import stream_errors

_MAGIC = b"MGRX"
_VERSION = 1


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

    @classmethod
    def tunable_knobs(cls) -> tuple:
        """Tunable-knob declarations (see ``codec_knob_declarations``).

        ``dict_size`` shapes the embedded Huffman dictionary and is
        serialized into the stream — ``stream_affecting``, so the
        byte-identity guard pins it to the default.
        """
        return (
            {"name": "dict_size", "values": (1024, 4096, 16384),
             "default": 4096, "stream_affecting": True},
        )

    # ------------------------------------------------------------------
    def _context(
        self,
        shape: tuple[int, ...],
        dtype: np.dtype,
        coords: tuple[np.ndarray, ...] | None = None,
        pin: bool = False,
        tag: str = "mgard",
    ):
        coords_key = (
            None
            if coords is None
            else tuple(hash(c.tobytes()) for c in coords)
        )
        key = (tag, coords_key) + self.config.cache_key(shape, dtype)
        # ``pin`` protects the context while the nested Huffman coder
        # opens its own contexts in the shared cache (a tight-capacity
        # cache would otherwise evict — and poison — ours mid-call).
        ctx = self.cache.get(key, pin=pin)
        hierarchy = ctx.object("hierarchy", lambda: Hierarchy(shape, coords))
        factors = ctx.object(
            "factors",
            lambda: [
                level_factors(hierarchy, l) for l in range(hierarchy.total_levels)
            ],
        )
        return ctx, hierarchy, factors

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

    def _absolute_bound(self, data: np.ndarray) -> float:
        """The absolute bound for ``data``, or the reason it cannot be
        compressed, before any byte is written: quantizing NaN or inf
        yields escape markers without outliers, a stream
        :meth:`decompress` refuses."""
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(f"MGARD-X supports float32/float64, got {data.dtype}")
        if data.ndim < 1 or data.ndim > 4:
            raise ValueError(f"MGARD-X supports 1-4 dims, got {data.ndim}")
        if data.size == 0:
            raise ValueError(
                f"MGARD-X needs a non-empty array, got shape {data.shape}"
            )
        abs_eb = self.config.absolute_bound(data)
        if self.config.error_mode is ErrorMode.REL:
            # The range is already taken: NaN or inf in, NaN or inf out.
            finite = math.isfinite(abs_eb)
        else:
            finite = bool(np.isfinite(data).all())
        if not finite:
            raise ValueError("MGARD-X needs finite data, got NaN or inf")
        return abs_eb

    # ------------------------------------------------------------------
    def compress(self, data: np.ndarray, coords=None) -> bytes:
        data = np.ascontiguousarray(data)
        abs_eb = self._absolute_bound(data)
        coords = self._check_coords(coords, data.shape)

        ctx, hierarchy, factors = self._context(
            data.shape, data.dtype, coords, pin=True
        )
        try:
            with span("mgard.decompose", cat="mgard",
                      nbytes=int(data.nbytes), levels=hierarchy.total_levels):
                coeffs, coarsest = decompose(
                    data, hierarchy, adapter=self.adapter,
                    factors_per_level=factors, ctx=ctx,
                )
            groups = coeffs + [coarsest.reshape(-1)]

            kappa = self.kappa
            for attempt in range(6):
                bins = level_bins(abs_eb, len(groups), kappa, s=self.s)
                blob = self._encode(data, abs_eb, kappa, hierarchy, groups, bins)
                if not self.verify:
                    count_bytes("mgard", data.nbytes, len(blob))
                    return blob
                back = self.decompress(blob)
                err = float(np.max(np.abs(back.astype(np.float64) - data.astype(np.float64)))) if data.size else 0.0
                if err <= abs_eb:
                    count_bytes("mgard", data.nbytes, len(blob))
                    return blob
                # Scale κ by the measured overshoot (with margin): the error
                # is linear in the bin sizes, so this converges in one or
                # two rounds even from a wildly loose starting κ.
                kappa *= 2.0 * err / abs_eb
            raise RuntimeError(
                f"could not satisfy error bound {abs_eb} after tightening"
            )
        finally:
            self.cache.release(ctx)

    def _encode(self, data, abs_eb, kappa, hierarchy, groups, bins) -> bytes:
        with span("mgard.quantize", cat="mgard", levels=len(groups)):
            qgroups = quantize_levels(groups, bins, adapter=self.adapter)
            qflat = (
                np.concatenate([q.reshape(-1) for q in qgroups])
                if qgroups
                else np.zeros(0, dtype=np.int64)
            )
            symbols, outliers = to_symbols(qflat, self.dict_size)

        with span("mgard.encode", cat="mgard", symbols=int(symbols.size)):
            if self.config.lossless == "huffman":
                payload = self._huffman.compress_keys(
                    symbols.astype(np.int64), self.dict_size
                )
            else:
                payload = symbols.astype(np.int32).tobytes()

        with span("mgard.serialize", cat="mgard", payload=len(payload)):
            return self._serialize_stream(
                data.dtype, data.shape, abs_eb, kappa, bins, outliers, payload
            )

    def _serialize_stream(
        self, dtype, shape, abs_eb, kappa, bins, outliers, payload: bytes
    ) -> bytes:
        """Assemble one ``MGRX`` stream (shared by both encode paths)."""
        dts = np.dtype(dtype).str.encode("ascii")
        header = (
            _MAGIC
            + struct.pack(
                "<BBBB",
                _VERSION,
                1 if self.config.lossless == "huffman" else 0,
                len(dts),
                len(shape),
            )
            + dts
            + struct.pack(f"<{len(shape)}q", *shape)
            + struct.pack("<ddIIQQ", abs_eb, kappa, self.dict_size,
                          bins.size, outliers.size, len(payload))
            + bins.astype(np.float64).tobytes()
            + outliers.astype(np.int64).tobytes()
        )
        return header + payload

    # ------------------------------------------------------------------
    @staticmethod
    def _parse_stream(blob: bytes):
        """Parse one ``MGRX`` stream into
        ``(lossless, dtype, shape, bins, outliers, payload)``."""
        if blob[:4] != _MAGIC:
            raise ValueError("not an MGARD-X stream (bad magic)")
        off = 4
        version, lossless, dts_len, ndim = struct.unpack_from("<BBBB", blob, off)
        if version != _VERSION:
            raise ValueError(f"unsupported MGARD-X version {version}")
        off += 4
        dtype = np.dtype(bytes(blob[off : off + dts_len]).decode("ascii"))
        off += dts_len
        shape = struct.unpack_from(f"<{ndim}q", blob, off)
        off += 8 * ndim
        abs_eb, kappa, dict_size, nbins, noutliers, payload_len = struct.unpack_from(
            "<ddIIQQ", blob, off
        )
        off += struct.calcsize("<ddIIQQ")
        bins = np.frombuffer(blob, dtype=np.float64, count=nbins, offset=off).copy()
        off += 8 * nbins
        outliers = np.frombuffer(blob, dtype=np.int64, count=noutliers, offset=off).copy()
        off += 8 * noutliers
        payload = blob[off : off + payload_len]
        return lossless, dtype, tuple(shape), bins, outliers, payload

    @stream_errors
    def decompress(self, blob: bytes, coords=None) -> np.ndarray:
        lossless, dtype, shape, bins, outliers, payload = self._parse_stream(blob)

        coords = self._check_coords(coords, tuple(shape))
        ctx, hierarchy, factors = self._context(
            tuple(shape), dtype, coords, pin=True
        )
        try:
            with span("mgard.decode", cat="mgard", payload=len(payload)):
                if lossless:
                    symbols = self._huffman.decompress_keys(payload)
                else:
                    symbols = np.frombuffer(payload, dtype=np.int32).astype(np.int64)
                qflat = from_symbols(symbols, outliers)

            with span("mgard.dequantize", cat="mgard",
                      symbols=int(qflat.size)):
                # Split the flat stream back into per-level groups.
                sizes = [hierarchy.num_coefficients(l) for l in range(hierarchy.total_levels)]
                sizes.append(int(np.prod(hierarchy.shape_at(hierarchy.total_levels))))
                bounds = np.cumsum([0] + sizes)
                if bounds[-1] != qflat.size:
                    raise ValueError(
                        f"stream length {qflat.size} != expected {bounds[-1]}"
                    )
                qgroups = [qflat[bounds[i] : bounds[i + 1]] for i in range(len(sizes))]
                groups = dequantize_levels(qgroups, bins, adapter=self.adapter)

            with span("mgard.recompose", cat="mgard",
                      levels=hierarchy.total_levels):
                coeffs = groups[:-1]
                coarsest = groups[-1].reshape(hierarchy.shape_at(hierarchy.total_levels))
                out = recompose(
                    coeffs, coarsest, hierarchy, adapter=self.adapter,
                    factors_per_level=factors, ctx=ctx,
                )
                # recompose's result aliases context memory;
                # astype(copy=True) hands the caller an independent array.
                return out.astype(dtype, copy=True)
        finally:
            self.cache.release(ctx)

    # ------------------------------------------------------------------
    # Batched API (serve fast path): one launch per pipeline stage
    # ------------------------------------------------------------------
    def compress_batch(self, arrays: Sequence[np.ndarray], coords=None) -> list[bytes]:
        """Compress N uniform-(shape, dtype) arrays, one launch per stage.

        Byte-identical to per-item :meth:`compress`: the error bounds,
        quantization bins and codebooks stay per-item (they are
        data-dependent), while decomposition, quantization and the
        nested Huffman stages run once over a leading batch axis (see
        :func:`~repro.compressors.mgard.decompose.decompose` for
        the lane-identity argument).  Raises ``ValueError`` for
        non-uniform batches so callers can fall back per item.
        """
        datas = [np.ascontiguousarray(a) for a in arrays]
        if not datas:
            return []
        if len(datas) == 1:
            return [self.compress(datas[0], coords=coords)]
        first = datas[0]
        for d in datas[1:]:
            if d.shape != first.shape or d.dtype != first.dtype:
                raise ValueError(
                    "compress_batch requires uniform shape/dtype, got "
                    f"{d.shape}/{d.dtype} vs {first.shape}/{first.dtype}"
                )
        if self.verify:
            # The verify loop re-derives κ per item from round-trip
            # error measurements — inherently per-item control flow.
            return [self.compress(d, coords=coords) for d in datas]
        nbatch = len(datas)
        ebs = [self._absolute_bound(d) for d in datas]
        coords = self._check_coords(coords, first.shape)
        ctx, hierarchy, factors = self._context(
            first.shape, first.dtype, coords, pin=True, tag="mgard.batch"
        )
        try:
            stack = np.empty((nbatch,) + first.shape, dtype=np.float64)
            for i, d in enumerate(datas):
                stack[i] = d
            with span("mgard.decompose", cat="mgard",
                      nbytes=int(first.nbytes) * nbatch,
                      levels=hierarchy.total_levels, batch=nbatch):
                coeffs, coarsest = decompose(
                    stack, hierarchy, adapter=self.adapter,
                    factors_per_level=factors, ctx=ctx,
                )
            groups = coeffs + [coarsest.reshape(nbatch, -1)]

            with span("mgard.quantize", cat="mgard", levels=len(groups),
                      batch=nbatch):
                bins2d = np.stack([
                    level_bins(eb, len(groups), self.kappa, s=self.s)
                    for eb in ebs
                ])
                qflat = (
                    np.concatenate(
                        [
                            np.round(g / bins2d[:, l][:, None]).astype(np.int64)
                            for l, g in enumerate(groups)
                        ],
                        axis=1,
                    )
                    if groups
                    else np.zeros((nbatch, 0), dtype=np.int64)
                )
                z = (qflat << 1) ^ (qflat >> 63)  # zigzag, per lane
                fits = z < self.dict_size - 1
                symbols = np.where(fits, z + 1, 0)
                outliers = [qflat[i][~fits[i]] for i in range(nbatch)]

            with span("mgard.encode", cat="mgard", symbols=int(symbols.size)):
                if self.config.lossless == "huffman":
                    payloads = self._huffman.compress_keys_batch(
                        [symbols[i] for i in range(nbatch)], self.dict_size
                    )
                else:
                    payloads = [
                        symbols[i].astype(np.int32).tobytes()
                        for i in range(nbatch)
                    ]

            blobs = []
            for i in range(nbatch):
                blob = self._serialize_stream(
                    first.dtype, first.shape, ebs[i], self.kappa,
                    bins2d[i], outliers[i], payloads[i],
                )
                count_bytes("mgard", first.nbytes, len(blob))
                blobs.append(blob)
            return blobs
        finally:
            self.cache.release(ctx)

    @stream_errors
    def decompress_batch(self, blobs: Sequence[bytes], coords=None) -> list[np.ndarray]:
        """Invert :meth:`compress_batch` with one launch per stage.

        Requires uniform stream headers (lossless mode, dtype, shape) —
        what a uniform :meth:`compress_batch` produces; ``ValueError``
        otherwise and callers fall back per stream.
        """
        blobs = list(blobs)
        if not blobs:
            return []
        if len(blobs) == 1:
            return [self.decompress(blobs[0], coords=coords)]
        parsed = [self._parse_stream(b) for b in blobs]
        lossless, dtype, shape = parsed[0][:3]
        for p in parsed[1:]:
            if p[:3] != (lossless, dtype, shape):
                raise ValueError(
                    "decompress_batch requires uniform stream headers"
                )
        nbatch = len(parsed)
        coords = self._check_coords(coords, shape)
        ctx, hierarchy, factors = self._context(
            shape, dtype, coords, pin=True, tag="mgard.batch"
        )
        try:
            with span("mgard.decode", cat="mgard", batch=nbatch):
                if lossless:
                    rows = self._huffman.decompress_keys_batch(
                        [p[5] for p in parsed]
                    )
                else:
                    rows = [
                        np.frombuffer(p[5], dtype=np.int32).astype(np.int64)
                        for p in parsed
                    ]
                qrows = [
                    from_symbols(row, p[4]) for row, p in zip(rows, parsed)
                ]

            with span("mgard.dequantize", cat="mgard", batch=nbatch):
                sizes = [
                    hierarchy.num_coefficients(l)
                    for l in range(hierarchy.total_levels)
                ]
                sizes.append(
                    int(np.prod(hierarchy.shape_at(hierarchy.total_levels)))
                )
                bounds = np.cumsum([0] + sizes)
                for q in qrows:
                    if bounds[-1] != q.size:
                        raise ValueError(
                            f"stream length {q.size} != expected {bounds[-1]}"
                        )
                for p in parsed:
                    if p[3].size != len(sizes):
                        raise ValueError(
                            f"{len(sizes)} groups but {p[3].size} bins"
                        )
                qflat = np.stack(qrows)
                bins2d = np.stack([p[3] for p in parsed])
                groups = [
                    qflat[:, bounds[i] : bounds[i + 1]].astype(np.float64)
                    * bins2d[:, i][:, None]
                    for i in range(len(sizes))
                ]

            with span("mgard.recompose", cat="mgard",
                      levels=hierarchy.total_levels, batch=nbatch):
                coeffs = groups[:-1]
                coarsest = groups[-1].reshape(
                    (nbatch,) + hierarchy.shape_at(hierarchy.total_levels)
                )
                out = recompose(
                    coeffs, coarsest, hierarchy, adapter=self.adapter,
                    factors_per_level=factors, ctx=ctx,
                )
                return [out[i].astype(dtype, copy=True) for i in range(nbatch)]
        finally:
            self.cache.release(ctx)

    # ------------------------------------------------------------------
    def compression_ratio(self, data: np.ndarray, blob: bytes) -> float:
        return data.nbytes / len(blob)

    def max_error(self, data: np.ndarray, blob: bytes) -> float:
        back = self.decompress(blob)
        return float(np.max(np.abs(back.astype(np.float64) - data.astype(np.float64))))
