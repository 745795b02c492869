"""Progressive MGARD refactoring: multilevel coefficients to segments.

:class:`ProgressiveMGARD` holds an :class:`repro.MGARDX` and runs its
stages: the front half (:meth:`~repro.MGARDX.quantized` — validation,
absolute bound, decomposition, per-level bins, quantization) as a batch
of one, and the back half (:meth:`~repro.MGARDX.recomposed` —
dequantize, recompose, ``astype``) on reconstruction.  Only the tail is
its own: instead of one Huffman stream it emits the quantized codes as
an ordered list of (resolution group x bitplane) segments:

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
reconstruction is the one-shot decompressor's back half, retrieving the
full prefix is byte-identical to ``MGARDX(config).decompress(compress(
data))``, and a refactor refuses exactly the input ``MGARDX.compress``
refuses.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.compressors.mgard.compressor import MGARDX, Grid
from repro.compressors.mgard.decompose import recompose_levels
from repro.compressors.mgard.quantize import DEFAULT_KAPPA
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
    config, adapter, context_cache, dict_size, kappa, s:
        As for :class:`repro.MGARDX`, whose stages this runs; the
        full-prefix reconstruction satisfies the bound and the
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
        self.mgard = MGARDX(
            config, adapter=adapter, context_cache=context_cache,
            dict_size=dict_size,
            kappa=DEFAULT_KAPPA if kappa is None else kappa, s=s,
        )
        self.bits_per_plane = bits_per_plane
        self.max_planes = max_planes
        self._huffman = self.mgard._huffman

    # ------------------------------------------------------------------
    def refactor(self, data: np.ndarray) -> tuple[SegmentIndex, list[bytes]]:
        """Refactor ``data`` into ``(index, segments)``.

        The returned segments are in emission order and align 1:1 with
        ``index.records``; the index carries everything needed to
        reconstruct any prefix (dtype, shape, bins, byte ranges, CRCs,
        measured error bounds).
        """
        data = np.asarray(data, order="C")  # ascontiguousarray promotes 0-d
        with span("progressive.refactor", cat="progressive",
                  nbytes=int(data.nbytes)):
            with self.mgard.quantized([data]) as (grid, (abs_eb,), bins, qflat):
                return self._emit(
                    data, abs_eb, bins[0], [q[0] for q in grid.split(qflat)],
                    grid,
                )

    def _emit(
        self, data: np.ndarray, abs_eb: float, bins: np.ndarray,
        qgroups: list, grid: Grid,
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
        mgard, hierarchy = self.mgard, grid.hierarchy
        ngroups = len(qgroups)
        coarsest_shape = hierarchy.shape_at(hierarchy.total_levels)
        kw = {"adapter": mgard.adapter, "factors_per_level": grid.factors,
              "ctx": grid.ctx}
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
            coded = encode_segments(g, planes, self._huffman, mgard.dict_size)
            for (shift, plane), seg in zip(planes, coded):
                qhat[mi] += plane << np.int64(shift)
                (groups[mi],) = mgard.dequantize([qhat[mi]], bins[mi : mi + 1])
                if done is None:  # first group: the coarsest approximation
                    approx = groups[mi].reshape(coarsest_shape)
                else:
                    approx = recompose_levels(
                        groups, done, hierarchy, mi, mi, **kw
                    )
                # Rounded to the stored dtype, as the reader's result is.
                recon = recompose_levels(
                    groups, approx, hierarchy, mi - 1, **kw
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
            done = approx
        index = SegmentIndex(
            dtype=data.dtype.str, shape=tuple(data.shape), ngroups=ngroups,
            abs_eb=float(abs_eb), kappa=mgard.kappa, s=mgard.s,
            dict_size=mgard.dict_size, bins=[float(b) for b in bins],
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
        shape, dtype = tuple(index.shape), np.dtype(index.dtype)
        with self.mgard.grid(shape, dtype) as grid:
            sizes = grid.hierarchy.group_sizes()
            ngroups = index.ngroups
            if len(sizes) != ngroups:
                raise MalformedIndexError(
                    f"index names {ngroups} groups; shape {shape} "
                    f"decomposes into {len(sizes)}"
                )
            qflat = np.zeros((1, sum(sizes)), dtype=np.int64)
            qhat = grid.split(qflat)
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
                    qhat[mi][0] += plane << np.int64(shift)
                bins = np.asarray(index.bins, dtype=np.float64)
                (out,) = self.mgard.recomposed(grid, qflat, bins[None], dtype)
                return out
