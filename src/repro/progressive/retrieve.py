"""Progressive retrieval engine: minimal-prefix planning + fetch.

:class:`ProgressiveRetriever` answers "give me this array to error
``eps``" (or "at resolution ``L``") from any of the three storage
forms — an in-memory ``HPGX`` blob, an ``HPGX`` file, or a BP store
directory — fetching **only the byte ranges the plan names** and
reconstructing coarse-to-fine.  The achieved error equals the recorded
bound by determinism (the writer measured the same reconstruction),
and with the full prefix the result is byte-identical to one-shot
decompression.

``retrieve_request`` is the serve-layer entry point: it unwraps one
``HPRQ`` envelope (see :mod:`repro.progressive.archive`) and returns
the reconstructed array, which the existing response framing ships
back as a typed ndarray.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.context import ContextCache
from repro.progressive.archive import (
    parse_archive_index,
    parse_retrieve_request,
    read_archive_prefix,
    slice_segments,
)
from repro.progressive.codec import ProgressiveMGARD
from repro.progressive.segments import SegmentIndex, SegmentRecord
from repro.trace.metrics import REGISTRY as _METRICS
from repro.trace.tracer import span


@dataclass(frozen=True)
class RetrievalReport:
    """What one bounded retrieval request cost and achieved."""

    source: str              #: "blob" | "file" | "store"
    eps: float | None        #: requested error bound (None = not given)
    resolution: int | None   #: requested resolution (None = not given)
    segments_fetched: int
    total_segments: int
    bytes_fetched: int       #: segment bytes actually read
    total_bytes: int         #: full segment stream size
    error_bound: float       #: recorded (= achieved) bound of the prefix
    floor: float             #: bound the full stream achieves

    @property
    def fraction_fetched(self) -> float:
        return self.bytes_fetched / self.total_bytes if self.total_bytes else 1.0


class ProgressiveRetriever:
    """Plan, fetch and reconstruct bounded prefixes of a stream."""

    def __init__(
        self,
        adapter: Any = None,
        context_cache: ContextCache | None = None,
    ) -> None:
        self.codec = ProgressiveMGARD(
            adapter=adapter, context_cache=context_cache
        )

    # ------------------------------------------------------------------
    def retrieve(
        self,
        source: Any,
        eps: float | None = None,
        resolution: int | None = None,
        strict: bool = True,
    ) -> tuple[np.ndarray, RetrievalReport]:
        """Retrieve from ``source`` under a bound -> ``(array, report)``.

        ``source`` is an HPGX blob (bytes-like), an HPGX file path, or
        a BP store directory.  ``strict=True`` raises
        :class:`~repro.progressive.errors.BoundUnreachableError` for an
        eps below the stream's floor; ``strict=False`` degrades to the
        exact full-prefix reconstruction instead.
        """
        if isinstance(source, (bytes, bytearray, memoryview)):
            kind, index, plan, segments = self._fetch_blob(
                source, eps, resolution, strict
            )
        else:
            path = Path(source)
            if path.is_dir():
                kind, index, plan, segments = self._fetch_store(
                    path, eps, resolution, strict
                )
            else:
                with span("progressive.fetch", cat="progressive",
                          source="file"):
                    index, plan, segments = read_archive_prefix(
                        path, eps=eps, resolution=resolution, strict=strict
                    )
                kind = "file"
        report = self._report(kind, index, plan, eps, resolution)
        _METRICS.counter(
            "hpdr_progressive_bytes_fetched_total",
            "segment bytes fetched by bounded retrievals",
        ).inc(report.bytes_fetched, source=kind)
        with span("progressive.reconstruct", cat="progressive",
                  segments=len(segments), nbytes=report.bytes_fetched):
            array = self.codec.reconstruct(index, segments)
        return array, report

    # ------------------------------------------------------------------
    def _fetch_blob(
        self, blob: Any, eps: float | None, resolution: int | None,
        strict: bool,
    ) -> tuple[str, SegmentIndex, list[SegmentRecord], list[bytes]]:
        with span("progressive.plan", cat="progressive", source="blob"):
            index, base = parse_archive_index(blob)
            plan = index.plan(eps=eps, resolution=resolution, strict=strict)
        with span("progressive.fetch", cat="progressive", source="blob",
                  segments=len(plan)):
            segments = slice_segments(blob, base, plan)
        return "blob", index, plan, segments

    def _fetch_store(
        self, path: Path, eps: float | None, resolution: int | None,
        strict: bool,
    ) -> tuple[str, SegmentIndex, list[SegmentRecord], list[bytes]]:
        from repro.io.engine import BPReader
        from repro.progressive.store import read_store_index, read_store_segments

        reader = BPReader(path)
        with span("progressive.plan", cat="progressive", source="store"):
            index = read_store_index(reader)
            plan = index.plan(eps=eps, resolution=resolution, strict=strict)
        with span("progressive.fetch", cat="progressive", source="store",
                  segments=len(plan)):
            segments = read_store_segments(reader, plan)
        return "store", index, plan, segments

    @staticmethod
    def _report(
        kind: str, index: SegmentIndex, plan: list[SegmentRecord],
        eps: float | None, resolution: int | None,
    ) -> RetrievalReport:
        return RetrievalReport(
            source=kind,
            eps=eps,
            resolution=resolution,
            segments_fetched=len(plan),
            total_segments=len(index.records),
            bytes_fetched=sum(r.nbytes for r in plan),
            total_bytes=index.total_bytes,
            error_bound=plan[-1].error_bound if plan else float("inf"),
            floor=index.floor,
        )


def retrieve_request(
    payload: Any,
    adapter: Any = None,
    context_cache: ContextCache | None = None,
) -> np.ndarray:
    """Serve-layer ``retrieve`` op: HPRQ envelope in, ndarray out."""
    eps, resolution, archive = parse_retrieve_request(payload)
    retriever = ProgressiveRetriever(
        adapter=adapter, context_cache=context_cache
    )
    array, _report = retriever.retrieve(
        archive, eps=eps, resolution=resolution
    )
    return array
