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
from repro.compressors.huffman.histogram import histogram
from repro.trace.tracer import count_bytes, span
from repro.util import hot_path, stream_errors

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

    @classmethod
    def tunable_knobs(cls) -> tuple:
        """Tunable-knob declarations (see ``codec_knob_declarations``).

        ``chunk_size`` is recorded in every stream, so it is declared
        ``stream_affecting``: the auto-tuner may propose other
        values, but its byte-identity guard rejects every one — the
        declaration documents the constraint and exercises the guard.
        """
        return (
            {"name": "chunk_size", "values": (512, 1024, 2048, 4096),
             "default": 1024, "stream_affecting": True},
        )

    # ------------------------------------------------------------------
    # Key-level API (alphabet supplied by the caller)
    # ------------------------------------------------------------------
    def compress_keys(self, keys: np.ndarray, num_symbols: int) -> bytes:
        """Compress an integer key array with values in [0, num_symbols)."""
        keys = np.ascontiguousarray(keys)
        if not np.issubdtype(keys.dtype, np.integer):
            raise TypeError(f"keys must be integers, got {keys.dtype}")
        ctx = self._key_context(keys.shape, keys.dtype, num_symbols, tag=None,
                                pin=True)
        try:
            return self._compress_keys(keys, num_symbols, ctx)
        finally:
            self.cache.release(ctx)

    def _key_context(self, shape, dtype, num_symbols: int, tag, pin=False):
        """CMM context for one key-stream shape.

        The key matches between encode and decode (buffer names are
        disjoint), so decompressing what was just compressed reuses the
        compression context instead of opening a second one.  ``pin``
        holds the context safe from LRU eviction while a call is in
        flight (concurrent callers can exceed the cache capacity);
        callers release in a ``finally``.
        """
        n = int(np.prod(shape)) if shape else 1
        return self.cache.get(
            (
                "huffman",
                tag,
                tuple(shape),
                np.dtype(dtype).str,
                int(num_symbols),
                self._effective_chunk(n),
            ),
            pin=pin,
        )

    def _compress_keys(self, keys: np.ndarray, num_symbols: int, ctx) -> bytes:
        adapter = self.adapter
        shape = keys.shape
        flat = keys.reshape(-1)
        n = flat.size

        with span("huffman.histogram", cat="huffman", symbols=num_symbols,
                  keys=n):
            freqs = histogram(flat, num_symbols, adapter=adapter)
        with span("huffman.codebook", cat="huffman", symbols=num_symbols):
            book = build_codebook(freqs)

        if n == 0:
            payload = np.zeros(0, dtype=np.uint8)
            chunk_offsets = np.zeros(0, dtype=np.uint64)
            chunk = self.chunk_size
        else:
            chunk = self._effective_chunk(n)
            nchunks = -(-n // chunk)
            m = nchunks * chunk
            if m != n:
                # Edge-pad to a whole number of chunks in persistent
                # scratch; the padding tail writes no bits (length 0).
                padded = ctx.scratch("enc.keys_padded", m, flat.dtype)
                padded[:n] = flat
                padded[n:] = flat[-1]
            else:
                padded = flat

            # encode: Locality over chunks — each key independent.
            with span("huffman.encode", cat="huffman", keys=n, chunk=chunk):
                enc = locality(
                    padded,
                    _EncodeFunctor(
                        book.codes, book.lengths, ctx=ctx, ngroups=nchunks
                    ),
                    block_shape=(chunk,),
                    adapter=adapter,
                    pad_mode="edge",
                    reassemble=False,
                    ctx=ctx,
                )  # (nchunks, chunk) uint32, (code << 8) | length
            flat_enc = enc.reshape(-1)
            flat_enc[n:] = 0  # padding tail writes no bits
            group = codes_per_field(book.max_length, chunk)
            assert group * book.max_length <= 64
            codes, lens = merge_codes(flat_enc, group, ctx)

            # serialize: Global pipeline — prefix-sum bit offsets.
            def _offsets(lengths: np.ndarray) -> np.ndarray:
                off = ctx.scratch("enc.offsets", lengths.size, np.int64)
                np.cumsum(lengths, out=off)
                np.subtract(off, lengths, out=off)
                return off

            with span("huffman.serialize", cat="huffman", keys=n):
                offsets = global_pipeline(
                    lens,
                    FnDomain(
                        _offsets, name="huffman.serialize", bytes_per_element=16.0
                    ),
                    adapter=adapter,
                )
                chunk_offsets = offsets[:: chunk // group].astype(np.uint64)
                assert chunk_offsets.size == nchunks
                total_bits = int(offsets[-1] + lens[-1])
                payload = pack_bits(
                    codes, lens, total_bits=total_bits, offsets=offsets, ctx=ctx
                )

        return self._serialize(
            shape, keys.dtype, num_symbols, n, book, chunk_offsets, payload, chunk
        )

    # ------------------------------------------------------------------
    # Batched key-level API (uniform shape/dtype, one launch per stage)
    # ------------------------------------------------------------------
    def compress_keys_batch(
        self, keys_list: Sequence[np.ndarray], num_symbols: int
    ) -> list[bytes]:
        """Compress N same-shape/same-dtype key arrays in one launch per stage.

        Byte-identical to calling :meth:`compress_keys` per array.  The
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
        shape, dtype = first.shape, first.dtype
        for k in keys_list[1:]:
            if k.shape != shape or k.dtype != dtype:
                raise ValueError(
                    "compress_keys_batch requires uniform shape/dtype, got "
                    f"{k.shape}/{k.dtype} vs {shape}/{dtype}"
                )
        n = first.size
        if len(keys_list) == 1 or n == 0:
            return [self.compress_keys(k, num_symbols) for k in keys_list]

        ctx = self._key_context(shape, dtype, num_symbols, tag="batch",
                                pin=True)
        try:
            return self._compress_keys_batch(keys_list, num_symbols, ctx)
        finally:
            self.cache.release(ctx)

    def _compress_keys_batch(
        self, keys_list, num_symbols: int, ctx
    ) -> list[bytes]:
        adapter = self.adapter
        shape, dtype = keys_list[0].shape, keys_list[0].dtype
        nbatch = len(keys_list)
        n = keys_list[0].size
        chunk = self._effective_chunk(n)
        nchunks = -(-n // chunk)
        m = nchunks * chunk

        # Stage every item's padded keys side by side, offset by
        # i*num_symbols: gathers through the concatenated per-item
        # lookup tables below then index the right item's table.
        staged = ctx.scratch("batch.enc.keys", nbatch * m, np.int64)
        staged2d = staged.reshape(nbatch, m)
        for i, k in enumerate(keys_list):
            flat = k.reshape(-1)
            np.copyto(staged2d[i, :n], flat, casting="unsafe")
            staged2d[i, n:] = staged2d[i, n - 1]
        lo = staged2d.min(axis=1)
        hi = staged2d.max(axis=1)
        if int(lo.min()) < 0 or int(hi.max()) >= num_symbols:
            raise ValueError(
                f"keys outside [0, {num_symbols}): range "
                f"[{int(lo.min())}, {int(hi.max())}]"
            )

        # histogram: one offset bincount for the whole batch (DEM), then
        # remove the edge-padding tail's contribution per item — counts
        # match the per-item histogram exactly (integer arithmetic).
        with span("huffman.histogram", cat="huffman", symbols=num_symbols,
                  keys=n, batch=nbatch):
            bases = np.arange(nbatch, dtype=np.int64) * num_symbols
            staged2d += bases[:, None]

            def _counts(flat_keys: np.ndarray) -> np.ndarray:
                return np.bincount(
                    flat_keys, minlength=nbatch * num_symbols
                ).astype(np.int64)

            freqs2d = global_pipeline(
                staged,
                FnDomain(_counts, name="huffman.histogram",
                         bytes_per_element=12.0),
                adapter=adapter,
            ).reshape(nbatch, num_symbols)
            if m != n:
                pad_keys = staged2d[:, n - 1] - bases
                freqs2d[np.arange(nbatch, dtype=np.int64), pad_keys] -= m - n

        with span("huffman.codebook", cat="huffman", symbols=num_symbols,
                  batch=nbatch):
            books = [build_codebook(freqs2d[i]) for i in range(nbatch)]

        # encode: one Locality launch through the concatenated tables.
        with span("huffman.encode", cat="huffman", keys=n, chunk=chunk,
                  batch=nbatch):
            all_codes = np.concatenate([b.codes for b in books])
            all_lengths = np.concatenate([b.lengths for b in books])
            enc = locality(
                staged,
                _EncodeFunctor(
                    all_codes, all_lengths, ctx=ctx, ngroups=nbatch * nchunks
                ),
                block_shape=(chunk,),
                adapter=adapter,
                pad_mode="edge",
                reassemble=False,
                ctx=ctx,
            )
        enc.reshape(nbatch, m)[:, n:] = 0  # padding tails write no bits
        longest = max(b.max_length for b in books)
        group = codes_per_field(longest, chunk)
        assert group * longest <= 64
        codes, lens = merge_codes(enc.reshape(-1), group, ctx)
        mg = m // group  # pack items per batch item
        lens2d = lens.reshape(nbatch, mg)

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
            totals = off2d[:, -1] + lens2d[:, -1]  # bits per item
            nwords = (totals + 63) >> 6
            wbase = np.concatenate([[0], np.cumsum(nwords)[:-1]])
            goff = ctx.scratch("enc.pack_offsets", nbatch * mg, np.int64)
            np.add(off2d, (wbase << 6)[:, None], out=goff.reshape(nbatch, mg))
            total_bits = int(wbase[-1] * 64 + totals[-1])
            packed = pack_bits(
                codes, lens, total_bits=total_bits, offsets=goff, ctx=ctx
            )

        blobs = []
        for i, book in enumerate(books):
            start = int(wbase[i]) * 8
            nbytes = (int(totals[i]) + 7) >> 3
            chunk_offsets = off2d[i, :: chunk // group].astype(np.uint64)
            blobs.append(
                self._serialize(
                    shape, dtype, num_symbols, n, book, chunk_offsets,
                    packed[start : start + nbytes], chunk,
                )
            )
        return blobs

    def decompress_keys_batch(self, blobs: Sequence[bytes]) -> list[np.ndarray]:
        """Decompress N uniform ``HUFX`` streams with one fused decode loop.

        The streams must agree on shape, dtype, alphabet and chunking
        (their codebooks and payloads may differ); otherwise
        ``ValueError`` and callers fall back per stream.  Results match
        :meth:`decompress_keys` exactly: both run the same decode loop,
        one stream's chunks being the lanes of one, all streams' chunks
        the lanes of the other.
        """
        blobs = list(blobs)
        if not blobs:
            return []
        if len(blobs) == 1:
            return [self.decompress_keys(blobs[0])]
        return self._decompress_keys(blobs, tag="batch")

    @stream_errors
    def decompress_keys(self, blob: bytes) -> np.ndarray:
        """Invert :meth:`compress_keys`; returns the original key array."""
        return self._decompress_keys([blob], tag=None)[0]

    def _decompress_keys(self, blobs, tag) -> list[np.ndarray]:
        parsed = [self._deserialize(b) for b in blobs]
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

        ctx = self._key_context(shape, dtype, num_symbols, tag, pin=True)
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
    # Byte-level lossless API (arbitrary arrays/buffers), single-shot
    # and batched (serve fast path)
    # ------------------------------------------------------------------
    def compress(self, data: np.ndarray | bytes) -> bytes:
        """Losslessly compress arbitrary data as a uint8 symbol stream."""
        keys, meta = _as_keys(data)
        blob = _pack_meta(*meta) + self.compress_keys(keys, 256)
        # Byte API only: key-level calls stay uncounted, so MGARD's
        # nested Huffman volume is attributed to mgard alone.
        count_bytes("huffman", keys.size, len(blob))
        return blob

    @stream_errors
    def decompress(self, blob: bytes) -> np.ndarray:
        dtype_str, shape, used = _unpack_meta(blob)
        body = blob[used:]
        if body[:4] == _MAGIC:
            keys = self.decompress_keys(body)
        else:
            keys = self._decompress_segments(body)
        return keys.astype(np.uint8).view(np.dtype(dtype_str)).reshape(shape)

    def compress_batch(self, arrays: Sequence) -> list[bytes]:
        """Compress N uniform-(shape, dtype) inputs, one launch per stage.

        Byte-identical to per-item :meth:`compress`.  Raises
        ``ValueError`` for non-uniform batches (the serve worker then
        falls back to per-item execution).
        """
        datas = list(arrays)
        if not datas:
            return []
        if len(datas) == 1:
            return [self.compress(datas[0])]
        prepared = [_as_keys(data) for data in datas]
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
        blobs = list(blobs)
        if not blobs:
            return []
        if len(blobs) == 1:
            return [self.decompress(blobs[0])]
        metas = [_unpack_meta(b) for b in blobs]
        dtype_str, shape, used = metas[0]
        for m in metas[1:]:
            if m[:2] != (dtype_str, shape):
                raise ValueError(
                    "decompress_batch requires uniform stream headers"
                )
        bodies = [b[m[2]:] for b, m in zip(blobs, metas)]
        if any(body[:4] != _MAGIC for body in bodies):
            return [self.decompress(b) for b in blobs]  # legacy container
        return [
            k.astype(np.uint8).view(np.dtype(dtype_str)).reshape(shape)
            for k in self.decompress_keys_batch(bodies)
        ]

    def _decompress_segments(self, body: bytes) -> np.ndarray:
        """Read the legacy ``HUFP`` body: a table of ``HUFX`` streams
        coding consecutive ranges of one input.  Nothing writes it any
        more; blobs stored by earlier versions stay readable."""
        if body[:4] != b"HUFP":
            raise ValueError("not a Huffman-X stream (bad magic)")
        version, nseg = struct.unpack_from("<BI", body, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported Huffman-X version {version}")
        off = 4 + struct.calcsize("<BI")
        if not 1 <= nseg <= (len(body) - off) // 8:
            raise ValueError(f"corrupt stream: segment count {nseg}")
        seg_lens = struct.unpack_from(f"<{nseg}Q", body, off)
        off += 8 * nseg
        if sum(seg_lens) != len(body) - off:
            raise ValueError("corrupt stream: segment lengths do not fill it")
        parts = []
        for length in seg_lens:
            segment = body[off : off + length]
            parts.append(self.decompress_keys(segment).reshape(-1))
            off += length
        return np.concatenate(parts)

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
