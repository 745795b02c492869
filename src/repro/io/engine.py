"""Writer/Reader engines with rank aggregation.

Mirrors ADIOS2's BP5 sub-file layout: N ranks contribute variables; an
aggregation strategy groups ranks onto aggregator subfiles (one writer
per node on Summit, one per GPU on Frontier — the per-system tuning the
paper mentions), plus a small index file mapping variables to subfiles.
All real bytes on a real filesystem, so round-trip tests are genuine.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.io.bp import BPFile
from repro.trace.metrics import REGISTRY as _METRICS
from repro.trace.tracer import TRACER as _TRACER, span
from repro.util import CorruptStreamError, atomic_write_json


def write_index(path, records, num_aggregators: int = 1) -> None:
    """Write ``path/index.json``: each variable's subfile and payload span.

    ``records`` yields ``(name, rank, subfile, (offset, nbytes))``.  The
    span lets a reader fetch one payload with a single ranged read
    (progressive retrieval never loads subfile bytes it does not need).
    Call it after the subfiles are durable: the index is written last,
    by fsync-and-rename, so it only ever names bytes that are on disk.
    """
    variables = {
        f"{name}@{rank}": {"subfile": subfile, "rank": rank, "name": name,
                           "span": list(extent)}
        for name, rank, subfile, extent in records
    }
    atomic_write_json(
        Path(path) / "index.json",
        {"aggregators": num_aggregators, "variables": variables},
    )


class BPWriter:
    """Aggregating writer: ``put`` from any rank, ``close`` to flush.

    Parameters
    ----------
    path:
        Output directory (created; BP5-style ``data.N`` subfiles plus
        ``index.json``).
    num_aggregators:
        Subfile count.  Ranks map round-robin onto aggregators.
    """

    def __init__(self, path, num_aggregators: int = 1) -> None:
        if num_aggregators < 1:
            raise ValueError("need at least one aggregator")
        self.path = Path(path)
        self.num_aggregators = num_aggregators
        self._files = [BPFile() for _ in range(num_aggregators)]
        self._index: dict[str, tuple[str, int, int]] = {}
        self._closed = False

    def _agg_of(self, rank: int) -> int:
        return rank % self.num_aggregators

    def put(
        self,
        name: str,
        data: np.ndarray,
        rank: int = 0,
        operator: str = "none",
        compressor=None,
    ) -> None:
        if self._closed:
            raise RuntimeError("writer already closed")
        key = f"{name}@{rank}"
        agg = self._agg_of(rank)
        with span("io.put", cat="io", var=name, rank=rank,
                  nbytes=int(data.nbytes), operator=operator):
            self._files[agg].put(
                key, data, operator=operator, compressor=compressor
            )
        self._index[key] = (name, rank, agg)

    def put_reduced(
        self, name: str, payload: bytes, shape, dtype, operator: str, rank: int = 0
    ) -> None:
        if self._closed:
            raise RuntimeError("writer already closed")
        key = f"{name}@{rank}"
        agg = self._agg_of(rank)
        with span("io.put_reduced", cat="io", var=name, rank=rank,
                  nbytes=len(payload), operator=operator):
            self._files[agg].put_reduced(key, payload, shape, dtype, operator)
        self._index[key] = (name, rank, agg)

    def close(self) -> dict:
        """Flush subfiles + index; returns size statistics."""
        if self._closed:
            raise RuntimeError("writer already closed")
        self.path.mkdir(parents=True, exist_ok=True)
        stored = 0
        spans = [bp.payload_spans() for bp in self._files]
        with span("io.flush", cat="io", subfiles=self.num_aggregators):
            for i, bp in enumerate(self._files):
                stored += bp.save(self.path / f"data.{i}")
            write_index(
                self.path,
                ((name, rank, agg, spans[agg][key])
                 for key, (name, rank, agg) in self._index.items()),
                self.num_aggregators,
            )
        self._closed = True
        original = sum(bp.original_bytes for bp in self._files)
        if _TRACER.enabled:
            _METRICS.counter(
                "hpdr_io_stored_bytes_total", "bytes flushed to BP subfiles"
            ).inc(stored)
            _METRICS.counter(
                "hpdr_io_original_bytes_total", "pre-reduction bytes written"
            ).inc(original)
        return {
            "stored_bytes": stored,
            "original_bytes": original,
            "subfiles": self.num_aggregators,
        }


class BPReader:
    """Reader over a :class:`BPWriter` output directory."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        index_path = self.path / "index.json"
        if not index_path.exists():
            raise FileNotFoundError(f"no BP index at {index_path}")
        with open(index_path) as f:
            self._index = json.load(f)
        self._subfiles: dict[int, BPFile] = {}

    def _subfile(self, i: int) -> BPFile:
        if i not in self._subfiles:
            self._subfiles[i] = BPFile.load(self.path / f"data.{i}")
        return self._subfiles[i]

    def variables(self) -> list[str]:
        return sorted(self._index["variables"])

    def get(
        self,
        name: str,
        rank: int = 0,
        compressor=None,
        selection: tuple[slice, ...] | None = None,
    ) -> np.ndarray:
        """Read a variable; ``selection`` reads a hyperslab.

        For reduced variables the payload is reconstructed first and
        then sliced (reading only a prefix of a field is the progressive
        path — see :mod:`repro.progressive`).
        """
        key = f"{name}@{rank}"
        entry = self._index["variables"].get(key)
        if entry is None:
            raise KeyError(f"no variable {key!r} in {self.path}")
        with span("io.get", cat="io", var=name, rank=rank) as sp:
            data = self._subfile(entry["subfile"]).get(key, compressor=compressor)
            sp.set(nbytes=int(data.nbytes))
        if selection is None:
            return data
        if len(selection) > data.ndim:
            raise ValueError(
                f"selection rank {len(selection)} > variable rank {data.ndim}"
            )
        return np.ascontiguousarray(data[selection])

    def read_payload(self, name: str, rank: int = 0) -> bytes:
        """Read one variable's raw payload with a ranged subfile read.

        Uses the byte span the writer pinned in ``index.json`` —
        seek + read of exactly the payload's bytes, no whole-subfile
        load and no operator inversion.  Stores written before spans
        existed fall back to the cached full-subfile path.  This is the
        fetch primitive progressive retrieval builds on: a bounded
        request touches only the byte ranges its segment plan names.
        """
        key = f"{name}@{rank}"
        entry = self._index["variables"].get(key)
        if entry is None:
            raise KeyError(f"no variable {key!r} in {self.path}")
        extent = entry.get("span")
        if extent is None:
            return bytes(self._subfile(entry["subfile"]).variables[key].payload)
        offset, nbytes = int(extent[0]), int(extent[1])
        with span("io.read_payload", cat="io", var=name, rank=rank,
                  nbytes=nbytes):
            with open(self.path / f"data.{entry['subfile']}", "rb") as f:
                if not 0 <= offset <= offset + nbytes <= os.fstat(f.fileno()).st_size:
                    raise CorruptStreamError(
                        f"corrupt stream: span {extent} of {key!r} runs "
                        "past its subfile")
                f.seek(offset)
                payload = f.read(nbytes)
        if _TRACER.enabled:
            _METRICS.counter(
                "hpdr_io_range_read_bytes_total",
                "bytes fetched via ranged payload reads",
            ).inc(len(payload))
        return payload
