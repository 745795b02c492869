"""Progressive MGARD refactoring: multilevel coefficients to segments.

:class:`ProgressiveMGARD` runs the *same* pipeline as
:class:`repro.MGARDX` up to and including quantization — identical
decomposition, identical per-level bins from
:func:`~repro.compressors.mgard.quantize.level_bins` — then, instead of
one Huffman stream, emits the quantized codes as an ordered list of
(resolution group x bitplane) segments:

* groups run coarsest-first (the coarsest approximation, then each
  coefficient level fine-ward), so a ``--resolution L`` request is a
  stream prefix;
* within a group, residual bitplanes run coarsest-first (see
  :mod:`repro.progressive.segments`), so adding segments only sharpens
  the codes;
* after appending each segment the writer **reconstructs the prefix and
  measures** its max error against the original data — the recorded
  per-segment ``error_bound`` is therefore the error a reader will
  *achieve*, by determinism, not an estimate.

Because the merged planes reproduce the quantized codes exactly and
reconstruction replays the one-shot decompressor's dequantize +
recompose + ``astype`` arithmetic, retrieving the full prefix is
byte-identical to ``MGARDX(config).decompress(compress(data))``.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.container import crc32
from repro.core.config import Config
from repro.core.context import ContextCache
from repro.progressive.errors import MalformedIndexError
from repro.progressive.segments import (
    SegmentIndex,
    SegmentRecord,
    decode_segments,
    encode_segments,
    split_planes,
)
from repro.trace.metrics import REGISTRY as _METRICS
from repro.trace.tracer import TRACER as _TRACER, span


class ProgressiveMGARD:
    """Refactor arrays into error-bounded progressive segments.

    Parameters
    ----------
    config:
        Error bound / mode, exactly as for :class:`repro.MGARDX`; the
        full-prefix reconstruction satisfies this bound and the
        per-segment recorded bounds refine toward it.
    bits_per_plane / max_planes:
        Bitplane granularity: each group's quantized codes split into
        at most ``max_planes`` residual planes of roughly
        ``bits_per_plane`` bits each.  More planes mean finer
        bytes-for-accuracy steps at a small per-segment header cost.
    """

    def __init__(
        self,
        config: Config | None = None,
        adapter: Any = None,
        context_cache: ContextCache | None = None,
        dict_size: int = 4096,
        kappa: float | None = None,
        s: float = 0.0,
        bits_per_plane: int = 8,
        max_planes: int = 3,
    ) -> None:
        from repro.compressors.huffman import HuffmanX
        from repro.compressors.mgard.quantize import DEFAULT_KAPPA

        self.config = config if config is not None else Config()
        self.adapter = adapter
        self.cache = context_cache if context_cache is not None else ContextCache()
        if dict_size < 2 or dict_size > 1 << 16:
            raise ValueError(f"dict_size must be in [2, 65536], got {dict_size}")
        self.dict_size = dict_size
        self.kappa = float(DEFAULT_KAPPA if kappa is None else kappa)
        self.s = float(s)
        if bits_per_plane < 1:
            raise ValueError(f"bits_per_plane must be >= 1, got {bits_per_plane}")
        if max_planes < 1:
            raise ValueError(f"max_planes must be >= 1, got {max_planes}")
        self.bits_per_plane = bits_per_plane
        self.max_planes = max_planes
        self._huffman = HuffmanX(adapter=adapter, context_cache=self.cache)

    # ------------------------------------------------------------------
    def _context(self, shape: tuple[int, ...], dtype: Any) -> Any:
        from repro.compressors.mgard.decompose import level_factors
        from repro.compressors.mgard.hierarchy import Hierarchy

        # Hierarchy, factors and geometry depend on the grid alone (bins
        # travel in the index), so writer and reader share one context
        # whatever their configs.
        key = ("progressive", tuple(shape), np.dtype(dtype).str)
        ctx = self.cache.get(key, pin=True)
        hierarchy = ctx.object("hierarchy", lambda: Hierarchy(shape, None))
        factors = ctx.object(
            "factors",
            lambda: [
                level_factors(hierarchy, l) for l in range(hierarchy.total_levels)
            ],
        )
        return ctx, hierarchy, factors

    def _reconstruct(
        self, qhat: list, bins: np.ndarray, hierarchy: Any, factors: Any,
        ctx: Any, dtype: Any,
    ) -> np.ndarray:
        """One-shot decompressor arithmetic from (partial) codes."""
        from repro.compressors.mgard.decompose import recompose
        from repro.compressors.mgard.quantize import dequantize_levels

        groups = dequantize_levels(qhat, bins, adapter=self.adapter)
        coeffs = groups[:-1]
        coarsest = groups[-1].reshape(hierarchy.shape_at(hierarchy.total_levels))
        out = recompose(
            coeffs, coarsest, hierarchy, adapter=self.adapter,
            factors_per_level=factors, ctx=ctx,
        )
        return out.astype(dtype, copy=True)

    # ------------------------------------------------------------------
    def refactor(self, data: np.ndarray) -> tuple[SegmentIndex, list[bytes]]:
        """Refactor ``data`` into ``(index, segments)``.

        The returned segments are in emission order and align 1:1 with
        ``index.records``; the index carries everything needed to
        reconstruct any prefix (dtype, shape, bins, byte ranges, CRCs,
        measured error bounds).
        """
        from repro.compressors.mgard.decompose import decompose
        from repro.compressors.mgard.quantize import level_bins, quantize_levels

        data = np.asarray(data, order="C")  # ascontiguousarray promotes 0-d
        if data.dtype not in (np.float32, np.float64):
            raise TypeError(
                f"progressive MGARD supports float32/float64, got {data.dtype}"
            )
        if data.ndim < 1 or data.ndim > 4:
            raise ValueError(
                f"progressive MGARD supports 1-4 dims, got {data.ndim}"
            )
        if data.size == 0:
            raise ValueError(
                f"progressive MGARD needs a non-empty array, got shape "
                f"{data.shape}"
            )
        abs_eb = self.config.absolute_bound(data)
        ctx, hierarchy, factors = self._context(data.shape, data.dtype)
        try:
            with span("progressive.refactor", cat="progressive",
                      nbytes=int(data.nbytes), levels=hierarchy.total_levels):
                coeffs, coarsest = decompose(
                    data, hierarchy, adapter=self.adapter,
                    factors_per_level=factors, ctx=ctx,
                )
                mgroups = coeffs + [coarsest.reshape(-1)]
                bins = level_bins(abs_eb, len(mgroups), self.kappa, s=self.s)
                qgroups = [
                    q.reshape(-1)
                    for q in quantize_levels(mgroups, bins, adapter=self.adapter)
                ]
                return self._emit(
                    data, abs_eb, bins, qgroups, hierarchy, factors, ctx
                )
        finally:
            self.cache.release(ctx)

    def _emit(
        self, data: np.ndarray, abs_eb: float, bins: np.ndarray,
        qgroups: list, hierarchy: Any, factors: Any, ctx: Any,
    ) -> tuple[SegmentIndex, list[bytes]]:
        """Split codes into segments, measuring each prefix's error.

        Emission is coarsest-first, so when a group starts every coarser
        group is final: ``done`` carries their recomposed grid, and a
        segment costs one level correction (its own group's) plus the
        prolongation through the still-zero finer levels, which
        :func:`recompose_levels` runs without correction launches.  The
        levels and their arithmetic are the reader's, so the measured
        error is still the error a reader achieves.
        """
        from repro.compressors.mgard.decompose import recompose_levels
        from repro.compressors.mgard.quantize import dequantize_levels

        ngroups = len(qgroups)
        coarsest_shape = hierarchy.shape_at(hierarchy.total_levels)
        kw = {"adapter": self.adapter, "factors_per_level": factors, "ctx": ctx}
        data64 = data.astype(np.float64)
        qhat = [np.zeros_like(q) for q in qgroups]
        groups = [np.zeros(q.size) for q in qgroups]  # qhat, dequantized
        done: np.ndarray | None = None
        segments: list[bytes] = []
        records: list[SegmentRecord] = []
        offset = 0
        # Emission order: coarsest group first (prog group g maps to
        # MGARD group index ngroups-1-g), planes coarsest-first within.
        for g in range(ngroups):
            mi = ngroups - 1 - g
            planes = split_planes(
                qgroups[mi], self.bits_per_plane, self.max_planes
            )
            # One key-coder launch per stage for the whole group.
            coded = encode_segments(g, planes, self._huffman, self.dict_size)
            for (shift, plane), seg in zip(planes, coded):
                qhat[mi] += plane << np.int64(shift)
                (groups[mi],) = dequantize_levels(
                    [qhat[mi]], bins[mi : mi + 1], adapter=self.adapter
                )
                if done is None:  # first group: the coarsest approximation
                    grid = groups[mi].reshape(coarsest_shape)
                else:
                    grid = recompose_levels(
                        groups, done, hierarchy, mi, mi, **kw
                    )
                # Rounded to the stored dtype, as the reader's result is.
                recon = recompose_levels(
                    groups, grid, hierarchy, mi - 1, **kw
                ).astype(data.dtype, copy=False)
                err = float(np.max(np.abs(recon.astype(np.float64) - data64)))
                if not math.isfinite(err):
                    raise ValueError(
                        "progressive MGARD needs finite data (measured "
                        f"prefix error is {err})"
                    )
                records.append(SegmentRecord(
                    seq=len(records), group=g, shift=int(shift),
                    offset=offset, nbytes=len(seg), crc=crc32(seg),
                    error_bound=err,
                ))
                segments.append(seg)
                offset += len(seg)
            done = grid
        index = SegmentIndex(
            dtype=data.dtype.str, shape=tuple(data.shape), ngroups=ngroups,
            abs_eb=float(abs_eb), kappa=self.kappa, s=self.s,
            dict_size=self.dict_size, bins=[float(b) for b in bins],
            records=records,
        )
        if _TRACER.enabled:
            _METRICS.counter(
                "hpdr_progressive_segments_total",
                "segments emitted by progressive refactoring",
            ).inc(len(segments))
        return index, segments

    # ------------------------------------------------------------------
    def reconstruct(
        self, index: SegmentIndex, segments: list[bytes]
    ) -> np.ndarray:
        """Reconstruct from a segment *prefix* (emission order).

        ``segments[k]`` must be the bytes ``index.records[k]`` pins;
        each is CRC-checked against its record before decoding, so
        truncation and bit-rot surface as
        :class:`~repro.progressive.errors.TruncatedSegmentError` /
        :class:`~repro.progressive.errors.SegmentCRCError` rather than
        a wrong array.  With the full prefix the result is
        byte-identical to the one-shot decompressor's output.
        """
        if len(segments) > len(index.records):
            raise MalformedIndexError(
                f"{len(segments)} segments but index records only "
                f"{len(index.records)}"
            )
        if not segments:
            raise MalformedIndexError("need at least one segment")
        shape = tuple(index.shape)
        dtype = np.dtype(index.dtype)
        ctx, hierarchy, factors = self._context(shape, dtype)
        try:
            ngroups = index.ngroups
            sizes = [
                hierarchy.num_coefficients(l)
                for l in range(hierarchy.total_levels)
            ]
            sizes.append(int(np.prod(hierarchy.shape_at(hierarchy.total_levels))))
            if len(sizes) != ngroups:
                raise MalformedIndexError(
                    f"index names {ngroups} groups; shape {shape} "
                    f"decomposes into {len(sizes)}"
                )
            qhat = [np.zeros(n, dtype=np.int64) for n in sizes]
            with span("progressive.reconstruct", cat="progressive",
                      segments=len(segments)):
                views = [memoryview(blob) for blob in segments]
                for rec, view in zip(index.records, views):
                    rec.check_crc(view)
                # Checked bytes only: each group's planes decode fused.
                for rec, (group, shift, plane) in zip(
                    index.records, decode_segments(views, self._huffman)
                ):
                    if group != rec.group or shift != rec.shift:
                        raise MalformedIndexError(
                            f"segment {rec.seq} decodes as group {group} "
                            f"shift {shift}, index says {rec.group}/{rec.shift}"
                        )
                    mi = ngroups - 1 - group
                    if plane.size != sizes[mi]:
                        raise MalformedIndexError(
                            f"segment {rec.seq} carries {plane.size} codes, "
                            f"group {group} holds {sizes[mi]}"
                        )
                    qhat[mi] += plane << np.int64(shift)
                bins = np.asarray(index.bins, dtype=np.float64)
                return self._reconstruct(
                    qhat, bins, hierarchy, factors, ctx, dtype
                )
        finally:
            self.cache.release(ctx)
