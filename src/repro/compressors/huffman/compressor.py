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
working buffer — the padded key batch, the merged code/end planes, the
slab scratch and the bitstream word buffer — lives in a
:class:`~repro.core.context.ReductionContext` keyed by the input
characteristics, so repeated reductions of same-shaped data reuse the
same memory (CMM, paper Section III-B).
"""

from __future__ import annotations

import itertools
import math
import struct
from typing import Sequence

import numpy as np

from repro.container import Header, Reader, pack_meta, read_chunk_index
from repro.core.abstractions import global_pipeline, locality
from repro.core.context import ContextCache
from repro.core.functor import FnDomain, LocalityFunctor
from repro.compressors.huffman.bitstream import (
    PAYLOAD_SLACK,
    SLAB,
    codes_per_field,
    item_row,
    pack_items,
)
from repro.compressors.huffman.codebook import (
    MAX_CODE_LENGTH,
    Codebook,
    build_codebook,
    canonical_codes,
)
from repro.trace.tracer import count_bytes, span
from repro.util import CorruptStreamError, hot_path, stream_errors

#: dtype-string length, ndim, alphabet, key count, chunk, payload length,
#: stored code lengths; then dtype and shape.
_HEADER = Header(b"HUFX", 1, "BHIQIQI", "Huffman-X")
#: The byte API's prefix: the caller's dtype and shape, then ``HUFX``.
_BYTES = Header(b"", None, "BH", "Huffman-X")
#: The legacy chunk list of ``HUFX`` bodies (read, never written).
_SEGMENTS = Header(b"HUFP", 1, "I", "Huffman-X")
_U32 = struct.Struct("<I")
_RUN = np.dtype("<u2, u1")     # run length, code length

#: A payload of at most this many bytes per decode step decodes by jumps
#: over per-bit planes (DESIGN.md §3.1 has the sweep).
_PER_BIT_BYTES_PER_STEP = 50

#: 0-d operands of the per-byte step (NumPy converts a Python int on
#: every call): ``>> 3``, ``& 7``, and per width ``32 - width``, mask.
_THREE, _SEVEN = np.array(3, dtype=np.int64), np.array(7, dtype=np.int64)
_WSHIFT = [np.array(32 - w, dtype=np.int64) for w in range(MAX_CODE_LENGTH + 1)]
_WMASK = [np.array((1 << w) - 1, dtype=np.int64)
          for w in range(MAX_CODE_LENGTH + 1)]

#: Bits per slab of the jump planes' passes, and a slab's bit offsets.
_JUMP_SLAB = SLAB // 2
_RAMP = np.arange(_JUMP_SLAB, dtype=np.intp)

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
    packed = np.empty(run_values.size, dtype=_RUN)
    packed["f0"] = run_counts
    packed["f1"] = run_values
    rle = _U32.pack(run_values.size) + packed.tobytes()
    if len(rle) < len(raw):
        return b"\x01" + rle
    return b"\x00" + raw


def _rle_decode(r: Reader, count: int) -> np.ndarray:
    """Invert :func:`_rle_encode`: the ``count`` lengths at the cursor."""
    if r.take(1)[0] == 0:       # the mode byte: raw lengths
        return r.array(np.uint8, count)
    (nruns,) = r.unpack(_U32)
    packed = r.array(_RUN, nruns)
    counts = packed["f0"].astype(np.int64)
    if int(counts.sum()) != count:
        raise ValueError(
            f"corrupt RLE length table: {int(counts.sum())} != {count}"
        )
    return np.repeat(packed["f1"], counts)


class _EncodeFunctor(LocalityFunctor):
    """Locality stage: fold each ``group`` adjacent keys of a chunk into
    one ``(code, length)`` item.  A chunk's row of the ``(nblocks,
    item_row(per))`` uint64 result holds its ``per = chunk // group``
    item codes, then their lengths as bytes: 9 bytes an item.

    ``group`` strided gathers from the code table join codes as ``(code
    << length) | next`` (the bits they occupy back to back), a slab of
    chunks at a time so the gather scratch stays :data:`SLAB` items
    long.  Handed the whole launch (``ngroups`` chunks) it writes context
    scratch, so the steady state allocates nothing.  Handed part of it —
    an adapter fanning the launch out, the sanitizer's shadow pass — it
    writes memory of its own: concurrent applies share nothing, and what
    a context holds never depends on which thread ran which part.
    """

    name = "huffman.encode"
    bytes_per_element = 10.0
    reuses_output = True

    def __init__(self, codes: np.ndarray, lengths: np.ndarray, group: int,
                 ctx=None, ngroups: int = 0) -> None:
        self._codes = codes.astype(np.uint64)
        self._lens = lengths.astype(np.uint8)
        self._group = group
        self._ctx = ctx
        self._ngroups = ngroups

    @hot_path(reason="Locality encode stage; group gathers per item")
    def apply(self, blocks: np.ndarray) -> np.ndarray:
        nblocks, chunk = blocks.shape
        g = self._group
        per = chunk // g
        width = item_row(per)
        rows = max(1, min(nblocks, SLAB // per))
        step = rows * per
        if self._ctx is not None and nblocks == self._ngroups:
            items = self._ctx.scratch("enc.items", nblocks * width, np.uint64)
            slab = self._ctx.scratch("enc.slab", 4 * step, np.uint64)
        else:
            # hpdrlint: disable=HPL001 — part of a launch, or no context
            own = np.empty(nblocks * width + 4 * step, dtype=np.uint64)
            items, slab = own[: nblocks * width], own[nblocks * width :]
        items = items.reshape(nblocks, width)
        lens = items[:, per:].view(np.uint8)
        if per % 8:
            lens[:, per:] = 0       # a row's spare length bytes
        for r in range(0, nblocks, rows):
            keys = blocks[r : r + rows]
            shape = (keys.shape[0], per)
            k = keys.shape[0] * per
            # The slab's planes: gather index, one key's codes, the
            # joined codes, and (as bytes) one key's lengths and their
            # sum.  Contiguous, so the gathers write them directly and
            # the ufuncs run flat; the chunk rows take one copy each.
            idx = slab[:k].view(np.intp).reshape(shape)
            c = slab[step : step + k].reshape(shape)
            code = slab[2 * step : 2 * step + k].reshape(shape)
            byte = slab[3 * step : 4 * step].view(np.uint8)
            l, total = byte[:k].reshape(shape), byte[step : step + k].reshape(shape)
            # Key range was validated by the histogram stage; "clip"
            # skips a second bounds-check pass.
            np.copyto(idx, keys[:, 0::g], casting="unsafe")
            self._codes.take(idx, out=code, mode="clip")
            self._lens.take(idx, out=total, mode="clip")
            for j in range(1, g):
                np.copyto(idx, keys[:, j::g], casting="unsafe")
                self._codes.take(idx, out=c, mode="clip")
                self._lens.take(idx, out=l, mode="clip")
                np.left_shift(code, l, out=code)
                np.bitwise_or(code, c, out=code)
                np.add(total, l, out=total)      # at most 64 bits
            np.copyto(items[r : r + rows, :per], code)
            np.copyto(lens[r : r + rows, :per], total)
        return items


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
        one Locality encode launch through per-item lookup tables laid
        side by side, and one serialize pass: per-chunk bit counts, then
        one :func:`~repro.compressors.huffman.bitstream.pack_items` call
        over word-aligned per-item bit ranges.  Raises ``ValueError`` on
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
        # Staged keys take the narrowest unsigned dtype of the tables
        # (uint16 for a few 4,096-symbol planes); the histogram and the
        # encode gathers widen a slab at a time.  The name carries the
        # dtype: it follows the batch width, which varies under one key.
        flat = keys_list[0].reshape(-1)
        narrow = np.min_scalar_type(nbatch * num_symbols - 1)
        if nbatch > 1:
            staged = ctx.scratch(f"enc.keys.{narrow.str}", nbatch * m, narrow)
        elif m != n:
            staged = ctx.scratch("enc.keys_padded", m, narrow)
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
                # Blockwise, bincount's intp cast of the keys stays small;
                # a block at least the histogram's length adds cheaply.
                counts = np.zeros(nbatch * num_symbols, dtype=np.int64)
                step = max(SLAB, counts.size)
                for at in range(0, flat_keys.size, step):
                    counts += np.bincount(flat_keys[at : at + step],
                                          minlength=counts.size)
                return counts

            freqs = global_pipeline(
                staged,
                FnDomain(_counts, name="huffman.histogram",
                         bytes_per_element=staged.itemsize + 4),
                adapter=self.adapter,
            )
            freqs[staged2d[:, -1]] -= m - n

        with span("huffman.codebook", cat="huffman", symbols=num_symbols,
                  batch=nbatch):
            books = [
                build_codebook(f) for f in freqs.reshape(nbatch, num_symbols)
            ]

        payloads = self._encode(
            staged2d, n, chunk,
            np.concatenate([b.codes for b in books]),
            np.concatenate([b.lengths for b in books]), ctx,
        )
        return [
            self._serialize(shape, dtype, num_symbols, n, book, offsets,
                            payload, chunk)
            for book, (payload, offsets) in zip(books, payloads)
        ]

    def _encode(self, staged2d, n: int, chunk: int, lut_codes, lut_lens,
                ctx) -> list[tuple[np.ndarray, np.ndarray]]:
        """Encode and serialize: each row of ``staged2d`` (keys into the
        concatenated code table, ``n`` of them edge-padded to whole
        chunks) becomes its payload — a view of ``ctx`` memory — and its
        chunk bit offsets."""
        nbatch, m = staged2d.shape
        nchunks = m // chunk
        # encode: one Locality launch through the concatenated tables
        # folds every ``group`` adjacent codes into one item.
        # Concatenation is associative, so the items pack to the bits
        # their codes would.
        group = codes_per_field(int(lut_lens.max()), chunk)
        per = chunk // group      # items per chunk
        with span("huffman.encode", cat="huffman", keys=n, chunk=chunk,
                  batch=nbatch):
            items = locality(
                staged2d.reshape(-1),
                _EncodeFunctor(lut_codes, lut_lens, group, ctx=ctx,
                               ngroups=nbatch * nchunks),
                block_shape=(chunk,),
                adapter=self.adapter,
                pad_mode="edge",
                reassemble=False,
                ctx=ctx,
            )  # (nbatch * nchunks, item_row(per)) uint64
        # (row, chunk, item) views of the codes and their lengths
        codes = items[:, :per].reshape(nbatch, nchunks, per)
        lens = items[:, per:].view(np.uint8)[:, :per].reshape(nbatch, nchunks, per)
        if m != n:
            # The padding tail, all in the last chunk, repeats each row's
            # last key and writes no bits: items wholly in it become
            # empty, and the one item the true end cuts keeps its real
            # codes (the high bits).
            last = (nchunks - 1) * per      # the last chunk's first item
            codes[:, -1, -(-n // group) - last :] = 0
            lens[:, -1, -(-n // group) - last :] = 0
            if n % group:
                cut = (group - n % group) * lut_lens[staged2d[:, -1]].astype(
                    np.uint64)
                codes[:, -1, n // group - last] >>= cut
                lens[:, -1, n // group - last] -= cut.astype(np.uint8)

        # serialize (DEM): per-chunk bit counts give the chunk offsets and
        # each row's length, then one pack over per-row word-aligned bit
        # ranges turns lengths into ends a slab at a time.  Row i's
        # payload starts at word ``wbase[i]``; codes never spill past a
        # word-aligned row end, so each row's byte slice equals its solo
        # pack.
        def _pack(_items: np.ndarray):
            chunk_bits = lens.sum(axis=2, dtype=np.uint64)
            totals = chunk_bits.sum(axis=1)  # bits per row
            chunk_offsets = np.zeros((nbatch, nchunks), dtype=np.uint64)
            np.cumsum(chunk_bits[:, :-1], axis=1, out=chunk_offsets[:, 1:])
            nwords = (totals + 63) >> 6
            wbase = np.zeros(nbatch, dtype=np.uint64)
            np.cumsum(nwords[:-1], out=wbase[1:])
            packed = pack_items(
                codes, lens, wbase << 6,
                ctx.scratch("enc.words", int(wbase[-1] + nwords[-1]) + 2,
                            np.uint64),
                ctx.scratch("enc.slab", 3 * max(SLAB, per), np.uint64),
            )
            return packed, totals, chunk_offsets, wbase

        with span("huffman.serialize", cat="huffman", keys=n, batch=nbatch):
            packed, totals, chunk_offsets, wbase = global_pipeline(
                items,
                FnDomain(_pack, name="huffman.serialize",
                         bytes_per_element=9.0),
                adapter=self.adapter,
            )
        return [
            (packed[8 * int(wbase[i]) :][: (int(totals[i]) + 7) >> 3],
             chunk_offsets[i])
            for i in range(nbatch)
        ]

    def decompress_keys(self, blob: bytes) -> np.ndarray:
        """Invert :meth:`compress_keys`; returns the original key array."""
        return self.decompress_keys_batch([blob])[0]

    @stream_errors
    def decompress_keys_batch(
        self, blobs: Sequence[bytes], out: Sequence[np.ndarray] | None = None
    ) -> list[np.ndarray]:
        """Decompress N uniform ``HUFX`` streams with one fused decode loop.

        The streams must agree on shape, dtype, alphabet and chunking
        (their codebooks and payloads may differ); otherwise
        ``ValueError`` and callers fall back per stream.  One stream's
        chunks are the lanes of a batch of one, all streams' chunks the
        lanes of a wider one: the results are the same arrays.

        ``out``, one writable C-contiguous array of the key count per
        stream, receives the keys (cast as an assignment casts) in place
        of newly allocated results — a caller's planned buffer; the
        results are then reshaped views of it.
        """
        parsed = [self._deserialize(b) for b in blobs]
        if not parsed:
            return []
        geometry = {(p[0], p[1], p[2], p[3], p[5].size, p[7]) for p in parsed}
        if len(geometry) > 1:
            raise ValueError(
                "decompress_keys_batch requires uniform stream "
                "geometry (shape/dtype/alphabet/chunking)"
            )
        ((shape, dtype, num_symbols, n, nchunks, chunk_size),) = geometry
        if out is not None and (len(out) != len(parsed) or any(
            o.size != n or not o.flags.c_contiguous for o in out
        )):
            raise ValueError(
                f"out needs {len(parsed)} C-contiguous arrays of {n} keys"
            )
        if n == 0:
            return [np.zeros(shape, dtype=dtype) for _ in parsed]
        if nchunks == 1:
            # The decode rows are sized by the chunk: a lone chunk is
            # its ``n`` keys, whatever (larger) chunk the header names.
            chunk_size = n

        ctx = self._key_context(shape, dtype, num_symbols)
        try:
            # Span wraps the call site, not the @hot_path body, so the
            # decode loop stays allocation-free under tracing too.
            with span("huffman.decode", cat="huffman", keys=n,
                      chunks=nchunks, batch=len(parsed)):
                keys = self._decode_chunks(
                    ctx, parsed, chunk_size, nchunks, n, dtype, out
                )
            return [k.reshape(shape) for k in keys]
        finally:
            self.cache.release(ctx)

    @hot_path(reason="vectorized symbol loop; zero-alloc via dec.* scratch")
    def _decode_chunks(
        self, ctx, parsed, chunk_size, nchunks, n, dtype, out
    ) -> list[np.ndarray]:
        nbatch = len(parsed)
        books = [p[4] for p in parsed]
        payloads = [p[6] for p in parsed]
        # One shared window width: a decode table only needs width >=
        # max code length, and wider tables decode identically (extra
        # low bits select replicated entries).
        width = max(1, max(b.max_length for b in books))
        tsize = 1 << width

        # Short payloads decode by jumps (``_decode_by_jumps``): ``runs``
        # runs of ``span`` steps a lane; the per-byte loop is one run.
        starts = list(itertools.accumulate(
            (p.size + PAYLOAD_SLACK for p in payloads), initial=0))
        per_bit = starts[-1] <= _PER_BIT_BYTES_PER_STEP * chunk_size
        span = 1 << round(math.log2(chunk_size) / 2) if per_bit else chunk_size
        runs = -(-chunk_size // span)
        lens_dtype = np.min_scalar_type(width * span) if per_bit else np.int64
        lanes = nchunks * nbatch

        # Per-stream symbol and length tables, side by side: symbols in
        # the narrowest unsigned dtype that holds the alphabet, or the
        # key dtype if that is no wider (the decoded plane is as narrow
        # as it can be; the read-out widens), lengths in int64 like the
        # positions they advance, or in the dtype of the jump plane they
        # fill (``span`` codes of at most ``width`` bits each).
        sym_dtype = np.min_scalar_type(max(parsed[0][2] - 1, 0))
        if sym_dtype.itemsize >= dtype.itemsize:
            sym_dtype = dtype
        syms = ctx.scratch("dec.syms", nbatch * tsize, sym_dtype)
        lens = ctx.scratch("dec.lens", nbatch * tsize, lens_dtype)
        for i, book in enumerate(books):
            sym_table, len_table, _ = book.decode_table(width)
            np.copyto(syms[i * tsize : (i + 1) * tsize], sym_table,
                      casting="unsafe")
            np.copyto(lens[i * tsize : (i + 1) * tsize], len_table)

        # Concatenate the payloads, each followed by its own slack zero
        # bytes, and precompute the 32-bit big-endian window starting at
        # every byte (uint32, four bytes a payload byte): the loop then
        # needs one gather where four byte-gathers plus shifts would run
        # per step.  A lane reads only its own stream: a window starting
        # past ``last[i]``, stream i's slack, reads zero, as when the
        # stream is alone.
        last = [at + p.size for at, p in zip(starts, payloads)]
        conc = ctx.scratch("dec.payload", starts[-1], np.uint8)
        for at, p in zip(starts, payloads):
            conc[at : at + p.size] = p
            conc[at + p.size : at + p.size + PAYLOAD_SLACK] = 0
        nwin = starts[-1] - PAYLOAD_SLACK + 1
        # A per-bit path's byte windows are dead once its planes are
        # built, so they borrow (as uint32) the rows it has yet to write.
        plane = span * runs * lanes * sym_dtype.itemsize
        room = ctx.scratch(
            "dec.out", max(plane, 4 * nwin if per_bit else 0), np.uint8
        )
        if per_bit:
            win = room[: 4 * nwin].view(np.uint32)
        else:
            win = ctx.scratch("dec.win", nwin, np.uint32)
        np.copyto(win, conc[:nwin])
        for byte in range(1, 4):
            win <<= 8
            win |= conc[byte : byte + nwin]

        # Lanes are chunk-major (lane = c*nbatch + i).  ``pos`` is a
        # lane's bit position in the concatenated payload; ``out`` is
        # step-major, so each step's gather lands in a contiguous row.
        pos = ctx.scratch("dec.pos", runs * lanes, np.int64)
        pos2d = pos[:lanes].reshape(nchunks, nbatch)
        for i, p in enumerate(parsed):
            np.copyto(pos2d[:, i], p[5], casting="unsafe")
            pos2d[:, i] += 8 * starts[i]
        decoded = room[:plane].view(sym_dtype)
        if per_bit:
            _decode_by_jumps(ctx, decoded.reshape(span, runs * lanes),
                             pos.reshape(runs, lanes), win, syms, lens,
                             starts, last, width)
        else:
            _decode_by_steps(ctx, decoded.reshape(span, lanes), pos, win,
                             syms, lens, last, width)

        # Results must leave context memory (the context may be evicted
        # and poisoned after release): each stream's keys go to its
        # ``out`` array, or to one allocated now (after the decode's own
        # temporaries are gone), filled chunk-major a block of steps at
        # a time so the transposing (and widening) copy works within the
        # cache.  Step ``r*span + j`` is row j of run r; a short last
        # chunk is ``tail`` keys.
        if out is None:
            # hpdrlint: disable=HPL001 — results handed to the caller
            out = [np.empty(n, dtype=dtype) for _ in range(nbatch)]
        out = [o.reshape(-1) for o in out]
        steps = decoded.reshape(span, runs, nchunks, nbatch)
        block = min(span, _TRANSPOSE_STEPS)
        full, tail = divmod(n, chunk_size)
        for i, keys in enumerate(out):
            body = keys[: full * chunk_size].reshape(full, chunk_size)
            short = keys[full * chunk_size :]
            for at in range(0, chunk_size, block):
                r, j = divmod(at, span)
                stop = min(at + block, chunk_size)
                body[:, at:stop] = steps[j : j + stop - at, r, :full, i].T
                if at < tail:
                    stop = min(stop, tail)
                    short[at:stop] = steps[j : j + stop - at, r, full, i]
        return out

    def _effective_chunk(self, n: int) -> int:
        """Chunk size actually used for ``n`` symbols.

        The vectorized decoder runs ``chunk`` sequential steps over
        ``n/chunk``-element arrays, so per-step dispatch overhead is
        minimized around ``chunk ≈ sqrt(n)``.  The floor of 256 keeps
        the 8-byte-per-chunk offset table small relative to the payload
        on low-entropy streams; ``self.chunk_size`` stays the upper
        bound.  Below ~32 K symbols the floor is what a decoder pays:
        256 steps over 16-64 lanes are all call overhead, which is why
        :meth:`_decode_chunks` decodes such a stream by jumps over
        per-bit planes (about ``2 sqrt(chunk)`` steps instead of
        ``chunk``).  The stream records the choice, so decoders need no
        knowledge of this heuristic.
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
        dtype, shape = meta
        header = _BYTES.pack(len(dtype.str), len(shape)) + pack_meta(dtype, shape)
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
        opened = [_open_bytes(b) for b in blobs]
        if not opened:
            return []
        dtype, shape, _ = opened[0]
        for o in opened[1:]:
            if o[:2] != (dtype, shape):
                raise ValueError(
                    "decompress_batch requires uniform stream headers"
                )
        bodies = [o[2] for o in opened]
        if all(_HEADER.matches(body) for body in bodies):
            keys_list = self.decompress_keys_batch(bodies)
        else:   # a legacy container among them: stream by stream
            keys_list = [self._decompress_segments(body) for body in bodies]
        return [k.astype(np.uint8, copy=False).view(dtype).reshape(shape)
                for k in keys_list]

    def _decompress_segments(self, body: bytes) -> np.ndarray:
        """Read the legacy ``HUFP`` body: a table of ``HUFX`` streams
        coding consecutive ranges of one input (a bare ``HUFX`` body is
        its own only segment).  Nothing writes ``HUFP`` any more; blobs
        stored by earlier versions stay readable."""
        if _HEADER.matches(body):
            return self.decompress_keys(body).reshape(-1)
        (nseg,), r = _SEGMENTS.open(body)
        return np.concatenate([
            self.decompress_keys(body[off : off + length]).reshape(-1)
            for off, length in read_chunk_index(r, nseg)
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
        # Trailing unused symbols need no stored lengths, and the rest is
        # run-length coded — this keeps small-alphabet streams (constant
        # fields, tiny inputs) compact.
        nz = np.flatnonzero(book.lengths)
        stored = int(nz[-1]) + 1 if nz.size else 0
        parts = [
            _HEADER.pack(len(np.dtype(dtype).str), len(shape), num_symbols, n,
                         chunk_size, payload.size, stored),
            pack_meta(dtype, shape),
            _rle_encode(book.lengths[:stored]),
            _U32.pack(chunk_offsets.size),
            chunk_offsets.astype(np.uint64).tobytes(),
            payload,    # join copies it out of context memory
        ]
        return b"".join(parts)

    def _deserialize(self, blob: bytes):
        """Parse a ``HUFX`` stream.

        Streams are self-describing: the returned ``chunk_size`` is the
        *stream's* chunking, deliberately **not** written back to
        ``self.chunk_size`` — decoding a foreign stream must not change
        how this instance encodes.

        Every code is at least one bit, so the payload bounds the key
        count, the shape must be that count and the chunks must tile it.
        The code-length table holds the ``stored`` lengths the bytes
        carry (the symbols past them are unused): the declared alphabet
        sizes nothing.
        """
        (dts_len, ndim, num_symbols, n, chunk_size, payload_len, stored), r = (
            _HEADER.open(blob)
        )
        dtype, shape = r.meta(dts_len, ndim)
        if stored > num_symbols:
            raise CorruptStreamError(f"corrupt stream: {stored} code lengths "
                                     f"for {num_symbols} symbols")
        lengths = _rle_decode(r, stored)
        if lengths.size and int(lengths.max()) > MAX_CODE_LENGTH:
            raise ValueError(
                f"corrupt stream: code length {int(lengths.max())} exceeds "
                f"the {MAX_CODE_LENGTH}-bit limit of length-limited "
                f"codebooks (decode windows support at most 24 bits)"
            )
        (nchunks,) = r.unpack(_U32)
        chunk_offsets = r.array("<u8", nchunks)
        payload = r.array(np.uint8, payload_len)
        if (n > 8 * payload_len or math.prod(shape) != n
                or n and not 0 < n - (nchunks - 1) * chunk_size <= chunk_size):
            raise CorruptStreamError(
                f"corrupt stream: {n} keys of shape {shape} in {nchunks} "
                f"chunks of {chunk_size} and a {payload_len}-byte payload"
            )
        if nchunks and int(chunk_offsets.max()) > 8 * payload_len:
            raise CorruptStreamError(
                "corrupt stream: chunk offset past the payload"
            )
        book = Codebook(codes=canonical_codes(lengths), lengths=lengths)
        return (
            shape, dtype, num_symbols, n, book, chunk_offsets, payload,
            chunk_size,
        )


def key_count(blob) -> int:
    """The key count a ``HUFX`` stream declares, from its header alone."""
    return _HEADER.open(blob)[0][3]


@hot_path(reason="per-byte symbol loop of the key decoder")
def _decode_by_steps(ctx, out, pos, win, syms, lens, last, width):
    """Decode ``out.shape[0]`` steps over the lanes from ``win``, the
    32-bit window at every byte: nine calls a step, two more in a batch
    (table bases, a clamp to the lane's own stream).  A short last chunk
    decodes past its end like the rest; the read-out drops those steps."""
    b, s, w = (ctx.scratch(f"dec.scr{i}", pos.size, np.int64) for i in range(3))
    g = ctx.scratch("dec.gather", pos.size, win.dtype)
    table, bound = _batch_lanes(ctx, pos.size, syms.size // len(last), last)
    wshift, wmask = _WSHIFT[width], _WMASK[width]
    for row in out:
        np.right_shift(pos, _THREE, out=b)
        win.take(b, out=g, mode="clip")
        np.bitwise_and(pos, _SEVEN, out=s)
        np.subtract(wshift, s, out=s)
        np.right_shift(g, s, out=w)     # widens the window to int64
        np.bitwise_and(w, wmask, out=w)
        if table is not None:
            np.add(w, table, out=w)
        syms.take(w, out=row, mode="clip")
        lens.take(w, out=s, mode="clip")
        np.add(pos, s, out=pos)
        if bound is not None:
            np.minimum(pos, bound, out=pos)


@hot_path(reason="jump-schedule symbol loop of the key decoder")
def _decode_by_jumps(ctx, out, pos, win, syms, lens, starts, last, width):
    """Decode ``(runs, lanes)`` runs of ``span`` steps into ``out``,
    ``(span, runs * lanes)``; ``pos[0]`` holds the lanes' start bits.

    ``bits`` is the window at every payload bit, ``jump`` how far the
    code there moves a lane, then (``log2 span`` doublings) how far
    ``span`` codes do; ``runs - 1`` gathers find each run's start, and
    ``span`` four-call steps decode all runs.  Windows past a stream's
    slack read zero and move nothing (a code crosses at most 16 of its
    32 bits).  A short last chunk decodes past its end, unread."""
    span, nbits, tsize = out.shape[0], 8 * win.size, syms.size // len(last)
    seg = [8 * at for at in starts[:-1]] + [nbits]    # each stream's bits
    # One leased block: a slab's index and hop, the windows, the jumps.
    step, k = min(_JUMP_SLAB, nbits), lens.itemsize
    sizes = [0, 8 * step, k * step, 2 * nbits, k * nbits]
    cuts = list(itertools.accumulate(sizes))
    block = ctx.scratch("dec.bits", cuts[-1], np.uint8)
    idx, hop, bits, jump = (block[a:b].view(t) for a, b, t in zip(
        cuts, cuts[1:], (np.intp, lens.dtype, np.uint16, lens.dtype)))
    for phase in range(8):      # uint16 keeps the low 16 bits of each
        np.right_shift(win, 32 - width - phase, casting="unsafe",
                       out=bits.reshape(win.size, 8)[:, phase])
    np.bitwise_and(bits, tsize - 1, out=bits)
    for i in range(len(last)):
        for at in range(seg[i], seg[i + 1], step):
            m = min(step, seg[i + 1] - at)
            np.copyto(idx[:m], bits[at : at + m])
            lens[i * tsize :].take(idx[:m], out=jump[at : at + m],
                                   mode="clip")
        bits[8 * last[i] : seg[i + 1]] = jump[8 * last[i] : seg[i + 1]] = 0
    # Doubling in place, a slab at a time in rising order: every target
    # is at or past its source, so it still holds the last round's value.
    for _ in range(span.bit_length() - 1):
        for at in range(0, nbits, step):
            here = jump[at : at + step]
            m = here.size
            np.add(_RAMP[:m], here, out=idx[:m])
            jump[at:].take(idx[:m], out=hop[:m], mode="clip")
            np.add(here, hop[:m], out=here)
    moved = ctx.scratch("dec.hop", pos.shape[1], jump.dtype)
    for r in range(1, pos.shape[0]):
        jump.take(pos[r - 1], out=moved, mode="clip")
        np.add(pos[r - 1], moved, out=pos[r])
    pos = pos.reshape(-1)
    w = ctx.scratch("dec.bitw", pos.size, np.uint16)
    s = ctx.scratch("dec.scr1", pos.size, lens.dtype)
    table, bound = _batch_lanes(ctx, pos.size, tsize, last)
    entry = w if table is None else ctx.scratch("dec.scr0", pos.size, np.int64)
    for row in out:
        bits.take(pos, out=w, mode="clip")
        if table is not None:
            np.add(w, table, out=entry)
        syms.take(entry, out=row, mode="clip")
        lens.take(entry, out=s, mode="clip")
        np.add(pos, s, out=pos)
        if bound is not None:
            np.minimum(pos, bound, out=pos)


def _batch_lanes(ctx, n: int, tsize: int, last):
    """Per batch lane (of stream ``lane % nbatch``): its table's base, and
    the first bit of its stream's slack, where windows read zero."""
    if len(last) == 1:
        return None, None
    table, bound = ctx.scratch("dec.table", 2 * n, np.int64).reshape(2, -1)
    for i, at in enumerate(last):
        table[i :: len(last)] = i * tsize
        bound[i :: len(last)] = 8 * at
    return table, bound


def _as_keys(data) -> tuple[np.ndarray, tuple[np.dtype, tuple[int, ...]]]:
    """Any input as flat uint8 keys plus its ``(dtype, shape)``."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        arr = np.frombuffer(bytes(data), dtype=np.uint8)
        return arr, (arr.dtype, (arr.size,))
    arr = np.ascontiguousarray(data)
    return arr.reshape(-1).view(np.uint8), (arr.dtype, arr.shape)


def _open_bytes(blob) -> tuple[np.dtype, tuple[int, ...], memoryview]:
    """The byte API's ``(dtype, shape, body)``; the body of a ``bytes``
    blob is a view, not a copy."""
    if isinstance(blob, bytes):
        blob = memoryview(blob)
    (dts_len, ndim), r = _BYTES.open(blob)
    dtype, shape = r.meta(dts_len, ndim)
    return dtype, shape, r.take(r.remaining)
