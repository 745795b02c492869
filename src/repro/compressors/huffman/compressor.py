"""Huffman-X compressor (paper Algorithm 2).

Stages and the abstractions that run them:

====================  =====================================
histogram             Global pipeline (DEM)
sort + filter         host-side (tiny)
two-phase codebook    host-side (tiny; treeless, canonical)
encode                Locality (GEM) — chunk per group
serialize             Global pipeline (DEM) — prefix sums
====================  =====================================

The bitstream is chunked: per-chunk bit offsets are embedded so
decompression parallelizes across chunks (the vectorized decoder steps
one symbol at a time across *all* chunks simultaneously).

Steady-state compression performs zero runtime memory management: every
working buffer — the padded key batch, code/length planes, prefix-sum
offsets, and the bitstream word buffer — lives in a
:class:`~repro.core.context.ReductionContext` keyed by the input
characteristics, so repeated reductions of same-shaped data reuse the
same memory (CMM, paper Section III-B).
"""

from __future__ import annotations

import struct
import sys
from typing import Sequence

import numpy as np

from repro.core.abstractions import global_pipeline, locality
from repro.core.context import ContextCache
from repro.core.functor import FnDomain, LocalityFunctor
from repro.compressors.huffman.bitstream import (
    PAYLOAD_SLACK,
    codes_per_field,
    merge_codes,
    pack_bits,
)
from repro.compressors.huffman.codebook import (
    MAX_CODE_LENGTH,
    Codebook,
    build_codebook,
)
from repro.trace.tracer import count_bytes, span
from repro.util import hot_path, read_chunk_index, stream_errors

_MAGIC = b"HUFX"
_VERSION = 1

#: Which ``int32`` half of a native ``int64`` holds its low 32 bits.
_LOW_HALF = 0 if sys.byteorder == "little" else 1

#: The decoder keeps a window per payload *bit* while the payload has
#: at most this many bytes per decode step (DESIGN.md §3.1 has the sweep).
_PER_BIT_BYTES_PER_STEP = 50

#: Decode steps moved per transposing copy of the decoder's step-major
#: output into a chunk-major result (64 rows keep both sides in cache).
_TRANSPOSE_STEPS = 64


def _rle_encode(lengths: np.ndarray) -> bytes:
    """Run-length encode a code-length table (mostly-zero for sparse
    alphabets).  Falls back to raw bytes when RLE would be larger."""
    raw = lengths.astype(np.uint8).tobytes()
    if lengths.size == 0:
        return b"\x00" + raw
    change = np.flatnonzero(np.diff(lengths)) + 1
    starts = np.concatenate([[0], change])
    counts = np.diff(np.concatenate([starts, [lengths.size]]))
    values = lengths[starts].astype(np.uint8)
    # Split runs longer than the 16-bit count field; every piece is the
    # full 0xFFFF except the last piece of each run.
    pieces = -(-counts // 0xFFFF)
    run_values = np.repeat(values, pieces)
    run_counts = np.full(run_values.size, 0xFFFF, dtype=np.uint16)
    last = np.cumsum(pieces) - 1
    run_counts[last] = (counts - (pieces - 1) * 0xFFFF).astype(np.uint16)
    packed = np.empty(run_values.size, dtype=np.dtype("<u2, u1"))
    packed["f0"] = run_counts
    packed["f1"] = run_values
    rle = struct.pack("<I", run_values.size) + packed.tobytes()
    if len(rle) < len(raw):
        return b"\x01" + rle
    return b"\x00" + raw


def _rle_decode(blob: bytes, offset: int, count: int) -> tuple[np.ndarray, int]:
    """Invert :func:`_rle_encode`; returns (lengths, bytes consumed)."""
    mode = blob[offset]
    pos = offset + 1
    if mode == 0:
        out = np.frombuffer(blob, dtype=np.uint8, count=count, offset=pos).copy()
        return out, 1 + count
    (nruns,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    packed = np.frombuffer(blob, dtype=np.dtype("<u2, u1"), count=nruns, offset=pos)
    pos += 3 * nruns
    counts = packed["f0"].astype(np.int64)
    if int(counts.sum()) != count:
        raise ValueError(
            f"corrupt RLE length table: {int(counts.sum())} != {count}"
        )
    out = np.repeat(packed["f1"], counts)
    return out, pos - offset


class _EncodeFunctor(LocalityFunctor):
    """Locality stage: map each key in a chunk to (code << 8) | length.

    The codebook is fused into a single lookup table so each key costs
    one gather; callers split the planes back out with shift/mask.  An
    optional reduction context supplies persistent output scratch to an
    apply handed the whole launch (``ngroups`` chunks), so the steady
    state allocates nothing.  An apply handed part of it — an adapter
    fanning the launch out across threads, the sanitizer's shadow pass —
    writes to memory of its own: concurrent applies share nothing, and
    what a context holds never depends on which thread ran which part.
    """

    name = "huffman.encode"
    bytes_per_element = 10.0
    reuses_output = True

    def __init__(
        self,
        codes: np.ndarray,
        lengths: np.ndarray,
        ctx=None,
        ngroups: int = 0,
    ) -> None:
        self._lut = (codes.astype(np.uint32) << np.uint32(8)) | lengths.astype(
            np.uint32
        )
        self._ctx = ctx
        self._ngroups = ngroups

    @hot_path(reason="Locality encode stage; one gather per key")
    def apply(self, blocks: np.ndarray) -> np.ndarray:
        flat = blocks.reshape(-1)
        if self._ctx is not None and blocks.shape[0] == self._ngroups:
            out = self._ctx.scratch("enc.out", flat.size, np.uint32)
        else:
            # hpdrlint: disable=HPL001 — part of a launch, or no context
            out = np.empty(flat.size, dtype=np.uint32)
        # Key range was validated by the histogram stage; "clip" skips a
        # second bounds-check pass.
        np.take(self._lut, flat, out=out, mode="clip")
        return out.reshape(blocks.shape)


class HuffmanX:
    """HPDR Huffman lossless compressor.

    Parameters
    ----------
    adapter:
        Device adapter (defaults to serial).  It schedules the stages;
        the stream does not depend on it.
    chunk_size:
        Symbols per encoding chunk — the Locality block size and the
        decode-parallelism grain.
    context_cache:
        Optional CMM cache; codebooks are *not* cached (they depend on
        the data), but all working buffers are: after a warm-up call,
        same-shaped compressions allocate nothing.
    """

    def __init__(
        self,
        adapter=None,
        chunk_size: int = 1024,
        context_cache: ContextCache | None = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.adapter = adapter
        self.chunk_size = chunk_size
        self.cache = context_cache if context_cache is not None else ContextCache()

    # ------------------------------------------------------------------
    # Key-level API (alphabet supplied by the caller).  Single-shot is a
    # batch of one: one encode body and one decode body, each one launch
    # per stage over however many same-shaped streams they are handed.
    # ------------------------------------------------------------------
    def compress_keys(self, keys: np.ndarray, num_symbols: int) -> bytes:
        """Compress an integer key array with values in [0, num_symbols)."""
        return self.compress_keys_batch([keys], num_symbols)[0]

    def _key_context(self, shape, dtype, num_symbols: int):
        """Pinned CMM context for one key-stream shape, whatever the
        batch width.

        The key matches between encode and decode (buffer names are
        disjoint), so decompressing what was just compressed reuses the
        compression context instead of opening a second one.  The pin
        holds the context safe from LRU eviction while a call is in
        flight (concurrent callers can exceed the cache capacity);
        callers release in a ``finally``.
        """
        n = int(np.prod(shape)) if shape else 1
        return self.cache.get(
            (
                "huffman",
                tuple(shape),
                np.dtype(dtype).str,
                int(num_symbols),
                self._effective_chunk(n),
            ),
            pin=True,
        )

    def compress_keys_batch(
        self, keys_list: Sequence[np.ndarray], num_symbols: int
    ) -> list[bytes]:
        """Compress N same-shape/same-dtype key arrays in one launch per stage.

        A batch of N is byte-identical to N batches of one.  The
        codebooks stay per-item (they are data-dependent), but every
        array stage fuses across the batch: one offset-bincount histogram,
        one Locality encode gather over per-item lookup tables laid side
        by side, one 2-D prefix-sum serialize pass, and one
        :func:`~repro.compressors.huffman.bitstream.pack_bits` call over
        word-aligned per-item bit ranges.  Raises ``ValueError`` on
        non-uniform inputs (callers fall back to per-item execution).
        """
        keys_list = [np.ascontiguousarray(k) for k in keys_list]
        if not keys_list:
            return []
        first = keys_list[0]
        if not np.issubdtype(first.dtype, np.integer):
            raise TypeError(f"keys must be integers, got {first.dtype}")
        for k in keys_list[1:]:
            if k.shape != first.shape or k.dtype != first.dtype:
                raise ValueError(
                    "compress_keys_batch requires uniform shape/dtype, got "
                    f"{k.shape}/{k.dtype} vs {first.shape}/{first.dtype}"
                )
        if num_symbols < 1:
            raise ValueError(f"num_symbols must be >= 1, got {num_symbols}")
        if first.size == 0:
            # Nothing to launch: an all-zero histogram and an empty payload.
            book = build_codebook(np.zeros(num_symbols, dtype=np.int64))
            empty = self._serialize(
                first.shape, first.dtype, num_symbols, 0, book,
                np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint8),
                self.chunk_size,
            )
            return [empty] * len(keys_list)
        ctx = self._key_context(first.shape, first.dtype, num_symbols)
        try:
            return self._compress_keys(keys_list, num_symbols, ctx)
        finally:
            self.cache.release(ctx)

    def _compress_keys(self, keys_list, num_symbols: int, ctx) -> list[bytes]:
        adapter = self.adapter
        shape, dtype = keys_list[0].shape, keys_list[0].dtype
        nbatch = len(keys_list)
        n = keys_list[0].size
        chunk = self._effective_chunk(n)
        nchunks = -(-n // chunk)
        m = nchunks * chunk

        lo = min(int(k.min()) for k in keys_list)
        hi = max(int(k.max()) for k in keys_list)
        if lo < 0 or hi >= num_symbols:
            raise ValueError(
                f"keys outside [0, {num_symbols}): range [{lo}, {hi}]"
            )

        # Item i's keys index item i's lookup table, and the tables lie
        # side by side: key k of item i is staged as i*num_symbols + k,
        # edge-padded to a whole number of chunks (the padding tail
        # writes no bits).  A batch of one has one table at base 0, so
        # the caller's keys index it as they are — no widening copy
        # (8 MB of int64 for a 1 MB byte input), only the padding.
        flat = keys_list[0].reshape(-1)
        if nbatch > 1:
            staged = ctx.scratch("enc.keys", nbatch * m, np.int64)
        elif m != n:
            staged = ctx.scratch("enc.keys_padded", m, dtype)
        else:
            staged = flat
        staged2d = staged.reshape(nbatch, m)
        if staged is not flat:
            for i, k in enumerate(keys_list):
                np.add(k.reshape(-1), i * num_symbols, out=staged2d[i, :n],
                       dtype=staged.dtype, casting="unsafe")
            staged2d[:, n:] = staged2d[:, n - 1 : n]

        # histogram: one bincount for the whole batch (DEM), then remove
        # the edge-padding tail's contribution per item — counts match
        # the unpadded histogram exactly (integer arithmetic).
        with span("huffman.histogram", cat="huffman", symbols=num_symbols,
                  keys=n, batch=nbatch):

            def _counts(flat_keys: np.ndarray) -> np.ndarray:
                return np.bincount(
                    flat_keys, minlength=nbatch * num_symbols
                ).astype(np.int64)

            freqs = global_pipeline(
                staged,
                FnDomain(_counts, name="huffman.histogram",
                         bytes_per_element=staged.itemsize + 4),
                adapter=adapter,
            )
            freqs[staged2d[:, -1]] -= m - n

        with span("huffman.codebook", cat="huffman", symbols=num_symbols,
                  batch=nbatch):
            books = [
                build_codebook(f) for f in freqs.reshape(nbatch, num_symbols)
            ]

        # encode: one Locality launch through the concatenated tables.
        with span("huffman.encode", cat="huffman", keys=n, chunk=chunk,
                  batch=nbatch):
            enc = locality(
                staged,
                _EncodeFunctor(
                    np.concatenate([b.codes for b in books]),
                    np.concatenate([b.lengths for b in books]),
                    ctx=ctx, ngroups=nbatch * nchunks,
                ),
                block_shape=(chunk,),
                adapter=adapter,
                pad_mode="edge",
                reassemble=False,
                ctx=ctx,
            )  # (nbatch * nchunks, chunk) uint32, (code << 8) | length
        enc.reshape(nbatch, m)[:, n:] = 0  # padding tails write no bits
        longest = max(b.max_length for b in books)
        group = codes_per_field(longest, chunk)
        assert group * longest <= 64
        codes, lens = merge_codes(enc.reshape(-1), group, ctx)
        mg = m // group  # pack items per batch item

        # serialize: one 2-D prefix-sum pass (DEM), then a single
        # pack_bits over per-item word-aligned bit ranges.  Item i's
        # payload starts at word ``wbase[i]``; codes never spill past a
        # word-aligned item end (their high spill at the boundary is
        # zero), so each item's byte slice equals its solo pack.
        def _offsets(lengths: np.ndarray) -> np.ndarray:
            off = ctx.scratch("enc.offsets", lengths.size, np.int64)
            off2d = off.reshape(nbatch, mg)
            np.cumsum(lengths.reshape(nbatch, mg), axis=1, out=off2d)
            np.subtract(off2d, lengths.reshape(nbatch, mg), out=off2d)
            return off

        with span("huffman.serialize", cat="huffman", keys=n, batch=nbatch):
            offsets = global_pipeline(
                lens,
                FnDomain(_offsets, name="huffman.serialize",
                         bytes_per_element=16.0),
                adapter=adapter,
            )
            off2d = offsets.reshape(nbatch, mg)
            totals = off2d[:, -1] + lens.reshape(nbatch, mg)[:, -1]  # bits per item
            chunk_offsets = off2d[:, :: chunk // group].astype(np.uint64)
            assert chunk_offsets.shape == (nbatch, nchunks)
            nwords = (totals + 63) >> 6
            wbase = np.concatenate([[0], np.cumsum(nwords)[:-1]])
            off2d += (wbase << 6)[:, None]
            packed = pack_bits(
                codes, lens, total_bits=int(wbase[-1] * 64 + totals[-1]),
                offsets=offsets, ctx=ctx,
            )

        blobs = []
        for i, book in enumerate(books):
            start = int(wbase[i]) * 8
            nbytes = (int(totals[i]) + 7) >> 3
            blobs.append(
                self._serialize(
                    shape, dtype, num_symbols, n, book, chunk_offsets[i],
                    packed[start : start + nbytes], chunk,
                )
            )
        return blobs

    def decompress_keys(self, blob: bytes) -> np.ndarray:
        """Invert :meth:`compress_keys`; returns the original key array."""
        return self.decompress_keys_batch([blob])[0]

    @stream_errors
    def decompress_keys_batch(self, blobs: Sequence[bytes]) -> list[np.ndarray]:
        """Decompress N uniform ``HUFX`` streams with one fused decode loop.

        The streams must agree on shape, dtype, alphabet and chunking
        (their codebooks and payloads may differ); otherwise
        ``ValueError`` and callers fall back per stream.  One stream's
        chunks are the lanes of a batch of one, all streams' chunks the
        lanes of a wider one: the results are the same arrays.
        """
        parsed = [self._deserialize(b) for b in blobs]
        if not parsed:
            return []
        shape, dtype, num_symbols, n = parsed[0][:4]
        chunk_size = parsed[0][7]
        for p in parsed[1:]:
            if (p[0], p[1], p[2], p[3], p[7]) != (
                shape, dtype, num_symbols, n, chunk_size
            ):
                raise ValueError(
                    "decompress_keys_batch requires uniform stream "
                    "geometry (shape/dtype/alphabet/chunking)"
                )
        if n == 0:
            return [np.zeros(shape, dtype=dtype) for _ in parsed]

        nchunks = parsed[0][5].size
        rem = n - (nchunks - 1) * chunk_size
        if not 1 <= rem <= chunk_size:
            raise ValueError(
                f"corrupt stream: {n} symbols cannot fill {nchunks} chunks "
                f"of {chunk_size}"
            )
        for p in parsed:
            if p[5].size != nchunks:
                raise ValueError(
                    "decompress_keys_batch requires uniform chunk counts"
                )
            if int(p[5].max()) > 8 * p[6].size:
                raise ValueError(
                    "corrupt stream: chunk offset past the payload"
                )

        ctx = self._key_context(shape, dtype, num_symbols)
        try:
            # Span wraps the call site, not the @hot_path body, so the
            # decode loop stays allocation-free under tracing too.
            with span("huffman.decode", cat="huffman", keys=n,
                      chunks=nchunks, batch=len(parsed)):
                return self._decode_chunks(
                    ctx, parsed, chunk_size, nchunks, rem, n, shape, dtype
                )
        finally:
            self.cache.release(ctx)

    @hot_path(reason="vectorized symbol loop; zero-alloc via dec.* scratch")
    def _decode_chunks(
        self, ctx, parsed, chunk_size, nchunks, rem, n, shape, dtype
    ) -> list[np.ndarray]:
        nbatch = len(parsed)
        books = [p[4] for p in parsed]
        payloads = [p[6] for p in parsed]
        # One shared window width: a decode table only needs width >=
        # max code length, and wider tables decode identically (extra
        # low bits select replicated entries).
        width = max(1, max(b.max_length for b in books))
        tsize = 1 << width

        # Per-stream combined (length << 32) | symbol tables, side by
        # side: one gather per decoded symbol instead of two.
        comb = ctx.scratch("dec.comb", nbatch * tsize, np.int64)
        comb2d = comb.reshape(nbatch, tsize)
        for i, book in enumerate(books):
            sym_table, len_table, _ = book.decode_table(width)
            np.copyto(comb2d[i], len_table)
            comb2d[i] <<= 32
            comb2d[i] |= sym_table

        # Concatenate the payloads, each followed by its own slack zero
        # bytes (so a stream's windows read exactly what they read when
        # it is decoded alone), and precompute the 32-bit big-endian
        # window starting at every byte: the loop then needs one int64
        # gather where four byte-gathers plus widening shifts would run
        # per step.
        starts = [0]
        for p in payloads:
            starts.append(starts[-1] + p.size + PAYLOAD_SLACK)
        conc = ctx.scratch("dec.payload", starts[-1], np.uint8)
        for at, p in zip(starts, payloads):
            conc[at : at + p.size] = p
            conc[at + p.size : at + p.size + PAYLOAD_SLACK] = 0
        nwin = starts[-1] - PAYLOAD_SLACK + 1
        # A short payload gets a window per *bit* below; its byte
        # windows are dead once that table is built, so they borrow
        # (as uint32: four bytes fill one) the output rows the loop
        # has yet to write instead of holding ``dec.win`` beside it.
        per_bit = starts[-1] <= _PER_BIT_BYTES_PER_STEP * chunk_size
        lanes = nchunks * nbatch
        room = ctx.scratch(
            "dec.out",
            max(chunk_size * lanes, (nwin + 1) // 2 if per_bit else 0),
            np.int64,
        )
        if per_bit:
            win = room.view(np.uint32)[:nwin]
        else:
            win = ctx.scratch("dec.win", nwin, np.int64)
        np.copyto(win, conc[:nwin])
        for byte in range(1, 4):
            win <<= 8
            win |= conc[byte : byte + nwin]

        # Lanes are chunk-major (lane = c*nbatch + i): every stream's
        # short last chunk is among the final nbatch lanes, so "still
        # active" is one slice.  ``pos`` is a lane's bit position in
        # the concatenated payload; ``out`` is step-major, so each
        # step's gather lands in its final, contiguous row.
        pos = ctx.scratch("dec.pos", lanes, np.int64)
        pos2d = pos.reshape(nchunks, nbatch)
        for i, p in enumerate(parsed):
            np.copyto(pos2d[:, i], p[5], casting="unsafe")
            pos2d[:, i] += 8 * starts[i]
        entries = room[: chunk_size * lanes]
        out = entries.reshape(chunk_size, lanes)
        b, s, w = (ctx.scratch(f"dec.scr{i}", lanes, np.int64) for i in range(3))
        table = None  # one stream: window values index ``comb`` directly
        if nbatch > 1:
            table = ctx.scratch("dec.table", lanes, np.int64)
            table2d = table.reshape(nchunks, nbatch)
            for i in range(nbatch):
                table2d[:, i] = i * tsize

        wshift = 32 - width
        wmask = tsize - 1
        idx = w     # what indexes ``comb``
        if per_bit:
            # The ``width``-bit window at every bit: eight phase shifts
            # of the byte windows (the uint16 store keeps the low 16
            # bits, the mask the low ``width``), so a step gathers its
            # window by ``pos`` alone.  A position clipped past the end
            # reads the last stream's zero slack through either source.
            bits = ctx.scratch("dec.bits", 8 * nwin, np.uint16)
            bits2d = bits.reshape(nwin, 8)
            for phase in range(8):
                np.right_shift(win, wshift - phase, out=bits2d[:, phase],
                               casting="unsafe")
            np.bitwise_and(bits, wmask, out=bits)
            win = bits
            idx = w = ctx.scratch("dec.bitw", lanes, np.uint16)
            if table is not None:
                idx = b
        for step in range(chunk_size):
            if step == rem:
                # Only the last chunk of each stream can run short.
                if nchunks == 1:
                    break
                pos, b, s, w, idx = (a[:-nbatch] for a in (pos, b, s, w, idx))
                out = out[:, :-nbatch]
                table = None if table is None else table[:-nbatch]
            row = out[step]
            if per_bit:
                win.take(pos, out=w, mode="clip")
            else:
                np.right_shift(pos, 3, out=b)
                win.take(b, out=w, mode="clip")
                np.bitwise_and(pos, 7, out=s)
                np.subtract(wshift, s, out=s)
                np.right_shift(w, s, out=w)
                np.bitwise_and(w, wmask, out=w)
            if table is not None:
                np.add(w, table, out=idx)
            comb.take(idx, out=row, mode="clip")
            np.right_shift(row, 32, out=s)
            np.add(pos, s, out=pos)

        # The symbols are the low int32 halves of the gathered entries.
        # Results must leave context memory (the context may be evicted
        # and poisoned after release): one allocation per stream, filled
        # chunk-major a block of steps at a time so the transposing cast
        # works within the cache.
        low = entries.view(np.int32).reshape(chunk_size, nchunks, nbatch, 2)[
            ..., _LOW_HALF
        ]
        results = []
        for i in range(nbatch):
            # hpdrlint: disable=HPL001 — result handed to the caller
            keys = np.empty((nchunks, chunk_size), dtype=dtype)
            for j in range(0, chunk_size, _TRANSPOSE_STEPS):
                block = slice(j, j + _TRANSPOSE_STEPS)
                keys[:, block] = low[block, :, i].T
            results.append(keys.reshape(-1)[:n].reshape(shape))
        return results

    def _effective_chunk(self, n: int) -> int:
        """Chunk size actually used for ``n`` symbols.

        The vectorized decoder runs ``chunk`` sequential steps over
        ``n/chunk``-element arrays, so per-step dispatch overhead is
        minimized around ``chunk ≈ sqrt(n)``.  The floor of 256 keeps
        the 8-byte-per-chunk offset table small relative to the payload
        on low-entropy streams; ``self.chunk_size`` stays the upper
        bound.  Below ~32 K symbols the floor is what a decoder pays:
        256 steps over 16-64 lanes are all call overhead, which is why
        :meth:`_decode_chunks` gathers such a stream's windows from a
        per-bit table (four array calls a step instead of ten).  The
        stream records the choice, so decoders need no knowledge of
        this heuristic.
        """
        target = max(1.0, (2.0 * n) ** 0.5)
        chunk = 1 << max(0, round(float(np.log2(target))))
        return max(1, min(self.chunk_size, max(256, chunk)))

    # ------------------------------------------------------------------
    # Byte-level lossless API (arbitrary arrays/buffers)
    # ------------------------------------------------------------------
    def compress(self, data: np.ndarray | bytes) -> bytes:
        """Losslessly compress arbitrary data as a uint8 symbol stream."""
        return self.compress_batch([data])[0]

    def decompress(self, blob: bytes) -> np.ndarray:
        return self.decompress_batch([blob])[0]

    def compress_batch(self, arrays: Sequence) -> list[bytes]:
        """Compress N uniform-(shape, dtype) inputs, one launch per stage.

        A batch of N is byte-identical to N batches of one.  Raises
        ``ValueError`` for non-uniform batches (the serve worker then
        falls back to per-item execution).
        """
        prepared = [_as_keys(data) for data in arrays]
        if not prepared:
            return []
        meta = prepared[0][1]
        for _, m in prepared[1:]:
            if m != meta:
                raise ValueError(
                    f"compress_batch requires uniform shape/dtype, got "
                    f"{m} vs {meta}"
                )
        keys_list = [p[0] for p in prepared]
        header = _pack_meta(*meta)
        blobs = [header + body
                 for body in self.compress_keys_batch(keys_list, 256)]
        # Byte API only: key-level calls stay uncounted, so MGARD's
        # nested Huffman volume is attributed to mgard alone.
        for b in blobs:
            count_bytes("huffman", keys_list[0].size, len(b))
        return blobs

    @stream_errors
    def decompress_batch(self, blobs: Sequence[bytes]) -> list[np.ndarray]:
        """Invert :meth:`compress_batch` with one fused decode per stage.

        Requires uniform stream metadata (what a uniform
        :meth:`compress_batch` produces); ``ValueError`` otherwise, and
        callers fall back per stream.
        """
        metas = [_unpack_meta(b) for b in blobs]
        if not metas:
            return []
        dtype_str, shape, _ = metas[0]
        for m in metas[1:]:
            if m[:2] != (dtype_str, shape):
                raise ValueError(
                    "decompress_batch requires uniform stream headers"
                )
        bodies = [b[m[2]:] for b, m in zip(blobs, metas)]
        if all(body[:4] == _MAGIC for body in bodies):
            keys_list = self.decompress_keys_batch(bodies)
        else:   # a legacy container among them: stream by stream
            keys_list = [self._decompress_segments(body) for body in bodies]
        return [
            k.astype(np.uint8).view(np.dtype(dtype_str)).reshape(shape)
            for k in keys_list
        ]

    def _decompress_segments(self, body: bytes) -> np.ndarray:
        """Read the legacy ``HUFP`` body: a table of ``HUFX`` streams
        coding consecutive ranges of one input (a bare ``HUFX`` body is
        its own only segment).  Nothing writes ``HUFP`` any more; blobs
        stored by earlier versions stay readable."""
        if body[:4] == _MAGIC:
            return self.decompress_keys(body).reshape(-1)
        if body[:4] != b"HUFP":
            raise ValueError("not a Huffman-X stream (bad magic)")
        version, nseg = struct.unpack_from("<BI", body, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported Huffman-X version {version}")
        index = read_chunk_index(body, 4 + struct.calcsize("<BI"), nseg)
        if not index or sum(index[-1]) != len(body):
            raise ValueError("corrupt stream: segment lengths do not fill it")
        return np.concatenate([
            self.decompress_keys(body[off : off + length]).reshape(-1)
            for off, length in index
        ])

    def compression_ratio(self, data: np.ndarray, blob: bytes) -> float:
        return data.nbytes / len(blob)

    # ------------------------------------------------------------------
    # Container format
    # ------------------------------------------------------------------
    def _serialize(
        self,
        shape: tuple[int, ...],
        dtype: np.dtype,
        num_symbols: int,
        n: int,
        book: Codebook,
        chunk_offsets: np.ndarray,
        payload: np.ndarray,
        chunk_size: int,
    ) -> bytes:
        dts = np.dtype(dtype).str.encode("ascii")
        # Trailing unused symbols need no stored lengths, and the rest is
        # run-length coded — this keeps small-alphabet streams (constant
        # fields, tiny inputs) compact.
        nz = np.flatnonzero(book.lengths)
        stored = int(nz[-1]) + 1 if nz.size else 0
        parts = [
            _MAGIC,
            struct.pack(
                "<BBHIQIQI",
                _VERSION,
                len(dts),
                len(shape),
                num_symbols,
                n,
                chunk_size,
                payload.size,
                stored,
            ),
            dts,
            struct.pack(f"<{len(shape)}q", *shape),
            _rle_encode(book.lengths[:stored]),
            struct.pack("<I", chunk_offsets.size),
            chunk_offsets.astype(np.uint64).tobytes(),
            payload.tobytes(),
        ]
        return b"".join(parts)

    def _deserialize(self, blob: bytes):
        """Parse a ``HUFX`` stream.

        Streams are self-describing: the returned ``chunk_size`` is the
        *stream's* chunking, deliberately **not** written back to
        ``self.chunk_size`` — decoding a foreign stream must not change
        how this instance encodes.
        """
        if blob[:4] != _MAGIC:
            raise ValueError("not a Huffman-X stream (bad magic)")
        off = 4
        (
            version, dts_len, ndim, num_symbols, n, chunk_size, payload_len, stored,
        ) = struct.unpack_from("<BBHIQIQI", blob, off)
        if version != _VERSION:
            raise ValueError(f"unsupported Huffman-X version {version}")
        off += struct.calcsize("<BBHIQIQI")
        dtype = np.dtype(bytes(blob[off : off + dts_len]).decode("ascii"))
        off += dts_len
        shape = struct.unpack_from(f"<{ndim}q", blob, off)
        off += 8 * ndim
        lengths = np.zeros(num_symbols, dtype=np.uint8)
        head, consumed = _rle_decode(blob, off, stored)
        lengths[:stored] = head
        off += consumed
        if lengths.size and int(lengths.max()) > MAX_CODE_LENGTH:
            raise ValueError(
                f"corrupt stream: code length {int(lengths.max())} exceeds "
                f"the {MAX_CODE_LENGTH}-bit limit of length-limited "
                f"codebooks (decode windows support at most 24 bits)"
            )
        (nchunks,) = struct.unpack_from("<I", blob, off)
        off += 4
        chunk_offsets = np.frombuffer(
            blob, dtype=np.uint64, count=nchunks, offset=off
        ).copy()
        off += 8 * nchunks
        payload = np.frombuffer(blob, dtype=np.uint8, count=payload_len, offset=off)
        from repro.compressors.huffman.codebook import canonical_codes

        book = Codebook(codes=canonical_codes(lengths), lengths=lengths)
        return (
            tuple(shape), dtype, num_symbols, n, book, chunk_offsets, payload,
            chunk_size,
        )


def _as_keys(data) -> tuple[np.ndarray, tuple[str, tuple[int, ...]]]:
    """Any input as flat uint8 keys plus its ``(dtype string, shape)``."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        arr = np.frombuffer(bytes(data), dtype=np.uint8)
        return arr, ("|u1", (arr.size,))
    arr = np.ascontiguousarray(data)
    return arr.reshape(-1).view(np.uint8), (arr.dtype.str, arr.shape)


def _pack_meta(dtype_str: str, shape: tuple[int, ...]) -> bytes:
    dts = dtype_str.encode("ascii")
    return (
        struct.pack("<BH", len(dts), len(shape))
        + dts
        + struct.pack(f"<{len(shape)}q", *shape)
    )


def _unpack_meta(blob: bytes) -> tuple[str, tuple[int, ...], int]:
    dts_len, ndim = struct.unpack_from("<BH", blob, 0)
    off = struct.calcsize("<BH")
    dtype_str = bytes(blob[off : off + dts_len]).decode("ascii")
    off += dts_len
    shape = struct.unpack_from(f"<{ndim}q", blob, off)
    off += 8 * ndim
    return dtype_str, tuple(shape), off
