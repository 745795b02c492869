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

import itertools
import struct
from typing import Iterable, Iterator

import numpy as np

from repro.container import Header
from repro.util import CorruptStreamError

#: chunk count; then one u64 length per chunk and the chunks.
_HEADER = Header(b"HPST", 1, "I", "HPST")
#: the unversioned chunk list earlier releases wrote, refused by name.
_RETIRED_HPDC = Header(b"HPDC", None, "", "HPDC")


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
        lengths = [len(blob) for blob in self._chunks]
        return b"".join([_HEADER.pack(len(lengths)),
                         struct.pack(f"<{len(lengths)}Q", *lengths), *self._chunks])


class StreamingDecompressor:
    """Lazy chunk iterator over a finalized stream."""

    def __init__(self, compressor, blob: bytes) -> None:
        self.compressor = compressor
        self._blob = blob
        if _RETIRED_HPDC.matches(blob):
            raise CorruptStreamError("corrupt stream: HPDC (the unversioned "
                                     "chunk list) is a retired format")
        (nchunks,), r = _HEADER.open(blob)
        # One u64 length per chunk; the chunks fill the rest of the blob.
        lengths = r.array("<u8", nchunks).tolist()
        if sum(lengths) != r.remaining:
            raise CorruptStreamError(f"corrupt stream: chunk lengths sum to "
                                     f"{sum(lengths)}, {r.remaining} bytes follow")
        self._offsets = list(zip(itertools.accumulate(lengths, initial=r.off),
                                 lengths))

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
