"""Streaming (in-situ) compression API.

The paper's contribution list stresses that "for applications that
continuously generate data, reduction and data movement must be
optimized in tandem".  This module is the functional counterpart of that
pipeline: an application hands chunks to :class:`StreamingCompressor` as
they are produced (one per simulation step, say); every chunk is reduced
immediately with contexts reused through the CMM, and the stream can be
finalized into a single self-describing container at any point.

The reader side (:class:`StreamingDecompressor`) iterates chunks lazily,
touching only the bytes of the chunks it yields — suitable for
out-of-core analysis.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator

import numpy as np

from repro.util import read_chunk_index, stream_errors

_MAGIC = b"HPST"
_VERSION = 1
#: the same chunk list without a version byte, as older releases wrote
#: it (``HPDC | u32 count | u64 lengths | bodies``); read, never written.
_LEGACY_MAGIC = b"HPDC"


class StreamingCompressor:
    """Compress a sequence of chunks with one persistent compressor.

    Parameters
    ----------
    compressor:
        Any HPDR compressor (MGARD-X, ZFP-X, SZ, …).  Its context cache
        makes repeated same-shape chunks allocation-free — the CMM in
        its natural habitat.
    """

    def __init__(self, compressor) -> None:
        self.compressor = compressor
        self._chunks: list[bytes] = []
        self._shapes: list[tuple[int, ...]] = []
        self._raw_bytes = 0
        self._finalized = False

    def push(self, chunk: np.ndarray) -> int:
        """Reduce one chunk; returns its compressed size in bytes."""
        if self._finalized:
            raise RuntimeError("stream already finalized")
        chunk = np.ascontiguousarray(chunk)
        blob = self.compressor.compress(chunk)
        self._chunks.append(blob)
        self._shapes.append(chunk.shape)
        self._raw_bytes += chunk.nbytes
        return len(blob)

    def extend(self, chunks: Iterable[np.ndarray]) -> int:
        """Push many chunks; returns total compressed bytes added."""
        return sum(self.push(c) for c in chunks)

    @property
    def num_chunks(self) -> int:
        return len(self._chunks)

    @property
    def compressed_bytes(self) -> int:
        return sum(len(b) for b in self._chunks)

    @property
    def ratio(self) -> float:
        stored = self.compressed_bytes
        return self._raw_bytes / stored if stored else float("inf")

    def finalize(self) -> bytes:
        """Seal the stream into one container (chunks stay independent)."""
        self._finalized = True
        parts = [_MAGIC, struct.pack("<BI", _VERSION, len(self._chunks))]
        for blob in self._chunks:
            parts.append(struct.pack("<Q", len(blob)))
        parts.extend(self._chunks)
        return b"".join(parts)


class StreamingDecompressor:
    """Lazy chunk iterator over a finalized stream."""

    def __init__(self, compressor, blob: bytes) -> None:
        self.compressor = compressor
        self._blob = blob
        self._offsets = self._parse_index(blob)

    @staticmethod
    @stream_errors
    def _parse_index(blob: bytes) -> list[tuple[int, int]]:
        if blob[:4] == _LEGACY_MAGIC:   # no version byte
            (nchunks,) = struct.unpack_from("<I", blob, 4)
            return read_chunk_index(blob, 8, nchunks)
        if blob[:4] != _MAGIC:
            raise ValueError("not an HPDR stream container (bad magic)")
        version, nchunks = struct.unpack_from("<BI", blob, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported stream version {version}")
        return read_chunk_index(blob, 4 + struct.calcsize("<BI"), nchunks)

    def __len__(self) -> int:
        return len(self._offsets)

    def chunk(self, i: int) -> np.ndarray:
        """Decode chunk ``i`` only (random access)."""
        off, size = self._offsets[i]
        return self.compressor.decompress(self._blob[off : off + size])

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(len(self)):
            yield self.chunk(i)

    def concatenate(self, axis: int = 0) -> np.ndarray:
        """Materialize the whole stream along ``axis``."""
        return np.concatenate(list(self), axis=axis)
