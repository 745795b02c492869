"""Framing: one write per frame, one parser, interned headers.

A frame leaves as one transport write (two when the body is too large
to be worth copying next to its head) and is read back by the one
incremental :class:`~repro.serve.net.FrameAssembler`, on the server and
in :class:`~repro.serve.net.BlastClient` alike.  Header bytes seen
before resolve through bounded interning tables.  This suite pins what
that must preserve:

1. the frame writer emits **byte-for-byte** the stream the contiguous
   reference encoder produces (hypothesis-fuzzed headers/payloads), in
   one write up to ``RECV_CHUNK`` body bytes;
2. the assembler — and the client on top of it — recovers every frame
   identically no matter how the byte stream is chunked (fuzzed cut
   points, a deterministic split matrix, a reply dribbled by a stub
   server);
3. malformed preambles are rejected *eagerly* — before the announced
   payload is ever buffered;
4. the receive buffer reaches a zero-alloc steady state under a stream
   of same-sized frames;
5. no interning table passes its bound, a cached header is never
   mutated, and a header that does not validate is never cached.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import BlastClient, CodecSpec, ReductionService, ServiceConfig, serve_tcp
from repro.serve.errors import ProtocolError
from repro.serve.net import (
    _MAGIC,
    _PREAMBLE,
    _VERSION,
    INTERN_MAX_ENTRIES,
    INTERN_MAX_HEADER_BYTES,
    MAX_HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    RECV_CHUNK,
    FrameAssembler,
    RemoteRequestError,
    _decode_payload,
    _encode_header,
    _encode_payload,
    _form_fields,
    _request_head,
    _response_head,
    _write_frame,
)
from repro.serve.worker import OK


def _frame(raw_header: bytes, payload: bytes = b"") -> bytes:
    return _PREAMBLE.pack(_MAGIC, _VERSION, len(raw_header), len(payload)) \
        + raw_header + payload


def contiguous_frame(header: dict, payload: bytes) -> bytes:
    """Reference encoder: the old single-buffer framing."""
    return _frame(json.dumps(header, separators=(",", ":")).encode("utf-8"), payload)


class _CollectingWriter:
    """Transport stub capturing write() calls."""

    def __init__(self) -> None:
        self.chunks: list[bytes] = []

    def write(self, data) -> None:
        self.chunks.append(bytes(data))


_HEADERS = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(
        st.integers(-(10 ** 6), 10 ** 6),
        st.text(max_size=16),
        st.booleans(),
        st.none(),
    ),
    max_size=4,
)
_PAYLOADS = st.binary(max_size=2048)


@settings(max_examples=120, deadline=None)
@given(header=_HEADERS, payload=_PAYLOADS, encoded=st.booleans())
def test_scatter_gather_matches_contiguous_encoding(header, payload, encoded):
    """One write holds the whole frame, whether the header comes as a
    dict or as the bytes an interning table kept."""
    writer = _CollectingWriter()
    _write_frame(writer, _encode_header(header) if encoded else header, payload)
    assert writer.chunks == [contiguous_frame(header, payload)]


def test_large_body_leaves_as_its_own_zero_copy_write():
    """Up to RECV_CHUNK the body is copied next to its head; beyond it
    the transport is handed the caller's view, uncopied."""
    header = {"status": "ok", "form": "blob"}
    for size, writes in ((RECV_CHUNK, 1), (RECV_CHUNK + 1, 2)):
        body = memoryview(bytes(size))
        seen = []
        writer = _CollectingWriter()
        writer.write = seen.append
        _write_frame(writer, header, body)
        assert len(seen) == writes
        assert b"".join(seen) == contiguous_frame(header, bytes(body))
        if writes == 2:
            assert seen[1] is body


@settings(max_examples=80, deadline=None)
@given(
    frames=st.lists(st.tuples(_HEADERS, _PAYLOADS), min_size=1, max_size=4),
    data=st.data(),
)
def test_assembler_recovers_frames_at_arbitrary_chunk_splits(frames, data):
    stream = b"".join(contiguous_frame(h, p) for h, p in frames)
    cuts = sorted(data.draw(
        st.lists(st.integers(0, len(stream)), max_size=12)
    ))
    pieces, prev = [], 0
    for cut in cuts + [len(stream)]:
        pieces.append(stream[prev:cut])
        prev = cut

    assembler = FrameAssembler(capacity=64)  # force regrow/compaction
    got = []
    for piece in pieces:
        assembler.feed(piece)
        while (frame := assembler.next_frame()) is not None:
            header, payload = frame
            # Views die at the next feed(): copy out immediately, as the
            # sequential connection handler does.
            got.append((header, bytes(payload)))
    assert got == [(h, p) for h, p in frames]
    assert assembler.pending == 0


def test_assembler_deterministic_split_matrix():
    """Every frame identical at fixed chunk sizes incl. 1-byte drip."""
    rng = np.random.default_rng(5)
    frames = [
        ({"op": "compress", "i": i}, rng.bytes(7 * i + 3)) for i in range(6)
    ]
    stream = b"".join(contiguous_frame(h, p) for h, p in frames)
    for step in (1, 3, 7, 64, 65536):
        assembler = FrameAssembler()
        got = []
        for off in range(0, len(stream), step):
            assembler.feed(stream[off : off + step])
            while (frame := assembler.next_frame()) is not None:
                got.append((frame[0], bytes(frame[1])))
        assert got == frames, f"diverged at chunk step {step}"


@pytest.mark.parametrize(
    "preamble",
    [
        _PREAMBLE.pack(b"HPDX", _VERSION, 4, 0),          # bad magic
        _PREAMBLE.pack(_MAGIC, 9, 4, 0),                  # bad version
        _PREAMBLE.pack(_MAGIC, _VERSION, MAX_HEADER_BYTES + 1, 0),
        _PREAMBLE.pack(_MAGIC, _VERSION, 4, MAX_PAYLOAD_BYTES + 1),
    ],
)
def test_assembler_rejects_bad_preamble_eagerly(preamble):
    """Rejection happens on the preamble alone — the announced payload
    is never awaited, so a hostile peer cannot make the server buffer
    gigabytes before the check."""
    assembler = FrameAssembler()
    assembler.feed(preamble)
    with pytest.raises(ProtocolError):
        assembler.next_frame()


def test_preamble_struct_is_stable():
    """The wire preamble is a public contract: 17 bytes, little-endian."""
    assert _PREAMBLE.size == 17
    assert _PREAMBLE.pack(_MAGIC, _VERSION, 0, 0)[:4] == b"HPDS"


def test_assembler_rejects_unparseable_header():
    bad = _PREAMBLE.pack(_MAGIC, _VERSION, 4, 0) + b"\xff\xfe\x00{"
    assembler = FrameAssembler()
    assembler.feed(bad)
    with pytest.raises(ProtocolError):
        assembler.next_frame()


def test_assembler_buffer_reaches_zero_alloc_steady_state():
    """Same-sized frames drained promptly never regrow the buffer."""
    header, payload = {"op": "x"}, b"p" * 40
    frame = contiguous_frame(header, payload)
    assembler = FrameAssembler(capacity=4 * len(frame))
    cap = len(assembler._buf)
    for _ in range(200):
        assembler.feed(frame)
        assert assembler.next_frame() is not None
    assert len(assembler._buf) == cap


def test_encode_decode_are_zero_copy():
    """Array payloads alias their buffers in both directions; the only
    copy on the send side is the one that makes the frame one write."""
    arr = np.arange(48, dtype=np.float32).reshape(6, 8)
    form, view = _encode_payload(arr)
    assert form == ("array", "<f4", (6, 8))
    assert np.shares_memory(np.frombuffer(view, dtype=np.float32), arr)
    meta = _form_fields(form)
    assert meta == {"form": "array", "dtype": "<f4", "shape": [6, 8]}

    raw = memoryview(bytearray(view))  # simulated receive window
    back = _decode_payload(meta, raw)
    assert np.array_equal(back, arr)
    assert np.shares_memory(back, np.frombuffer(raw, dtype=np.uint8))

    blob = b"compressed-bytes"
    form, view = _encode_payload(blob)
    assert _form_fields(form) == {"form": "blob"}
    assert bytes(view) == blob
    assert _decode_payload(_form_fields(form), view) is view  # no copy on the way out


def test_decode_rejects_unknown_form_and_unexpected_shm():
    with pytest.raises(ProtocolError):
        _decode_payload({"form": "tensor"}, b"")
    # A shared-memory reference from an old client: nothing is mapped,
    # and the empty inline body is not served in place of the payload.
    with pytest.raises(ValueError, match="send the body inline"):
        _decode_payload(
            {"form": "blob", "shm": {"name": "x", "offset": 0, "nbytes": 1}}, b"")


# -- header interning ---------------------------------------------------------
_SPEC = CodecSpec("zfp-x", rate=8.0)
_SPEC_FIELDS = dataclasses.asdict(_SPEC)

_VALID_HEADERS = st.one_of(
    _HEADERS,
    st.builds(lambda op, shape: {"op": op, "spec": _SPEC_FIELDS, "form": "array",
                                 "dtype": "<f4", "shape": shape},
              st.sampled_from(["compress", "decompress", "retrieve"]),
              st.lists(st.integers(0, 10 ** 9), max_size=6)),
    # longer than an interned header may be
    st.builds(lambda n: {"op": "compress", "spec": _SPEC_FIELDS, "pad": "x" * n},
              st.integers(INTERN_MAX_HEADER_BYTES - 150, INTERN_MAX_HEADER_BYTES + 50)),
    # a spec that does not validate
    st.builds(lambda name: {"op": "compress", "spec": {"name": name}}, st.text(max_size=8)),
)
_MALFORMED_HEADERS = st.one_of(
    st.binary(max_size=40),
    st.sampled_from([b"[1,2]", b"7", b"null", b'"op"', b"{", b'{"op":}', b"\xff\xfe"]),
)


@settings(max_examples=40, deadline=None)
@given(heads=st.lists(st.one_of(_VALID_HEADERS, _MALFORMED_HEADERS),
                      min_size=4, max_size=16),
       copies=st.integers(INTERN_MAX_ENTRIES // 4 + 1, INTERN_MAX_ENTRIES))
def test_parse_table_never_passes_its_bound(heads, copies):
    """However many distinct headers a peer sends — valid, oversized,
    malformed — the table holds at most INTERN_MAX_ENTRIES of at most
    INTERN_MAX_HEADER_BYTES each, and only headers that parsed and whose
    spec validated."""
    assembler = FrameAssembler()
    table = assembler._headers
    for i in range(copies):  # each drawn header in ``copies`` distinct spellings
        for head in heads:
            raw = _encode_header({**head, "#": i}) if isinstance(head, dict) else head
            try:
                assembler.feed(_frame(raw))
                header, _ = assembler.next_frame()
            except ProtocolError:
                assert raw not in table
                # The connection is dropped there; the table's history is
                # what this test is about, so it moves to the next one.
                assembler = FrameAssembler()
                assembler._headers = table
            else:
                assert header == json.loads(raw)
            assert len(table) <= INTERN_MAX_ENTRIES
    for raw, header in table.items():
        assert len(raw) <= INTERN_MAX_HEADER_BYTES
        assert ("spec" in header) == (header.spec is not None)


@settings(max_examples=40, deadline=None)
@given(keys=st.lists(
    st.tuples(st.sampled_from(["compress", "decompress", "retrieve"]),
              st.builds(CodecSpec, st.sampled_from(["zfp-x", "mgard-x", "lz4"]),
                        rate=st.integers(1, 64).map(float)),
              st.one_of(st.just(("blob",)),
                        st.lists(st.integers(0, 10 ** 12), max_size=40)
                        .map(lambda shape: ("array", "<f8", tuple(shape))))),
    min_size=2, max_size=8),
    copies=st.integers(INTERN_MAX_ENTRIES // 2 + 1, INTERN_MAX_ENTRIES))
def test_encode_tables_never_pass_their_bound(keys, copies):
    """Request and response heads: hit or miss the bytes are those of a
    fresh encode, and neither table outgrows the bounds."""
    requests, responses = {}, {}
    for i in range(copies):  # each drawn form under ``copies`` leading extents
        for op, spec, form in keys:
            if form != ("blob",):
                form = form[:2] + ((i,) + form[2],)
            meta = _form_fields(form)
            assert _request_head(requests, op, spec, form) == _encode_header(
                {"op": op, "spec": dataclasses.asdict(spec), **meta})
            assert _response_head(responses, form) == _encode_header(
                {"status": "ok", **meta})
            for table in (requests, responses):
                assert len(table) <= INTERN_MAX_ENTRIES
    for table in (requests, responses):
        assert all(len(head) <= INTERN_MAX_HEADER_BYTES for head in table.values())


def test_same_header_bytes_decode_independently():
    """Payloads under one header each decode to their own data, and the
    interned header is handed out unchanged."""
    fields = {"op": "compress", "spec": _SPEC_FIELDS,
              "form": "array", "dtype": "<f4", "shape": [4, 4]}
    raw = _encode_header(fields)
    a = np.arange(16, dtype=np.float32).reshape(4, 4)
    b = a[::-1].copy() * 3
    assembler = FrameAssembler()
    assembler.feed(_frame(raw, a.tobytes()) + _frame(raw, b.tobytes()))
    h1, p1 = assembler.next_frame()
    got_a = _decode_payload(h1, p1).copy()
    h2, p2 = assembler.next_frame()
    got_b = _decode_payload(h2, p2).copy()
    assert h2 is h1 and h1.spec == _SPEC
    assert np.array_equal(got_a, a) and np.array_equal(got_b, b)

    assembler.feed(_frame(raw, a.tobytes()))
    h3, p3 = assembler.next_frame()
    assert h3 is h1 and dict(h3) == fields
    assert np.array_equal(_decode_payload(h3, p3), a)


class _Echo:
    """A service whose reply is a copy of the request payload, answered
    from inside ``admit``."""

    def admit(self, op, spec, payload, reply):
        if isinstance(payload, memoryview):
            reply(OK, bytes(payload))
        else:
            reply(OK, np.array(payload, copy=True))


async def _read_raw_frame(reader: asyncio.StreamReader) -> bytes:
    preamble = await reader.readexactly(_PREAMBLE.size)
    _, _, hlen, plen = _PREAMBLE.unpack(preamble)
    return preamble + await reader.readexactly(hlen + plen)


def test_invalid_spec_is_answered_with_the_same_error_every_time():
    """A header whose spec does not validate is never cached as a
    success: its second arrival draws the same typed error reply, and
    the connection goes on serving valid requests."""
    bad = {"op": "compress", "spec": {**_SPEC_FIELDS, "name": "no-such-codec"},
           "form": "blob"}
    good = {"op": "compress", "spec": _SPEC_FIELDS, "form": "blob"}

    async def run():
        server = await serve_tcp(_Echo())
        try:
            reader, writer = await asyncio.open_connection(
                *server.sockets[0].getsockname()[:2])
            replies = []
            for header in (bad, bad, good, bad):
                _write_frame(writer, header, b"abc")
                await writer.drain()
                replies.append(await _read_raw_frame(reader))
            writer.close()
            return replies
        finally:
            server.close()
            await server.wait_closed()

    first, second, ok, third = asyncio.run(asyncio.wait_for(run(), 30))
    assert first == second == third
    hlen = _PREAMBLE.unpack_from(first)[2]
    err = json.loads(first[_PREAMBLE.size:_PREAMBLE.size + hlen])
    assert err["status"] == "err" and err["kind"] == "ValueError"
    assert "no-such-codec" in err["message"]
    assert ok.endswith(b"abc") and b'"status":"ok"' in ok


def test_old_client_shm_reference_is_answered_and_the_connection_survives():
    """Frames from an old client that name a shared-memory window and
    send an empty body: the server maps nothing, answers each with a
    typed error — the blob one too, whose empty body lz4 would happily
    compress — and serves the next ordinary request on the connection."""
    data = np.arange(16, dtype=np.float32).reshape(4, 4)
    window = {"name": "hpdr-old-client", "offset": 0, "nbytes": data.nbytes}
    old = [
        {"op": "compress", "spec": _SPEC_FIELDS, "form": "array",
         "dtype": "<f4", "shape": [4, 4], "shm": window},
        {"op": "compress", "spec": dataclasses.asdict(CodecSpec("lz4")),
         "form": "blob", "shm": window},
    ]

    async def run():
        async with ReductionService(ServiceConfig()) as svc:
            server = await serve_tcp(svc)
            try:
                client = await BlastClient.connect(*server.sockets[0].getsockname()[:2])
                refusals = []
                for header in old:
                    with pytest.raises(RemoteRequestError) as exc:
                        await client._exchange(header, b"")
                    refusals.append(exc.value)
                blob = await client.compress(_SPEC, data)
                await client.close()
                return refusals, blob
            finally:
                server.close()
                await server.wait_closed()

    refusals, blob = asyncio.run(asyncio.wait_for(run(), 30))
    assert len(refusals) == len(old)
    for exc in refusals:
        assert exc.kind == "ValueError" and "shared-memory" in str(exc)
    assert blob == _SPEC.build().compress(data)


def test_client_recovers_replies_at_arbitrary_chunk_splits(monkeypatch):
    """Client-side twin of the assembler split test: a stub server
    dribbles its reply one byte at a time, then cut in two at every
    offset; the client protocol's ``data_received`` feeds each piece to
    its assembler alone, and BlastClient returns the same array each
    time."""
    want = (np.arange(24, dtype=np.float32) - 7).reshape(2, 3, 4)
    reply = contiguous_frame(
        {"status": "ok", "form": "array", "dtype": "<f4", "shape": [2, 3, 4]},
        want.tobytes())
    plans = [[reply[i:i + 1] for i in range(len(reply))]]
    plans += [[reply[:cut], reply[cut:]] for cut in range(1, len(reply))]

    fed: list[int] = []
    feed = FrameAssembler.feed
    monkeypatch.setattr(FrameAssembler, "feed",
                        lambda self, data: (fed.append(len(data)), feed(self, data))[1])

    async def dribble(reader, writer):
        try:
            for pieces in plans:
                await _read_raw_frame(reader)
                for piece in pieces:
                    writer.write(piece)
                    await writer.drain()
                    for _ in range(3):  # the client reads this piece before the next leaves
                        await asyncio.sleep(0)
        finally:
            writer.close()

    async def run():
        server = await asyncio.start_server(dribble, "127.0.0.1", 0)
        try:
            client = await BlastClient.connect(*server.sockets[0].getsockname()[:2])
            got = [await client.decompress(_SPEC, b"stream") for _ in plans]
            await client.close()
            return got
        finally:
            server.close()
            await server.wait_closed()

    got = asyncio.run(asyncio.wait_for(run(), 60))
    assert len(got) == len(plans)
    for back in got:
        assert back.dtype == want.dtype and np.array_equal(back, want)
    # The splits really reached the client's assembler as splits.
    assert fed.count(1) >= len(reply) and len(fed) >= 2 * len(plans)


def test_reply_stays_valid_after_the_next_request():
    """The caller owns what ``request`` returns: a later reply on the
    same connection lands in the same receive buffer and must not show
    through an earlier result."""
    first = np.arange(256, dtype=np.float32).reshape(16, 16)
    second = -first[::-1].copy()

    async def run():
        server = await serve_tcp(_Echo())
        try:
            client = await BlastClient.connect(*server.sockets[0].getsockname()[:2])
            a = await client.compress(_SPEC, first)
            blob = await client.compress(_SPEC, b"opaque-bytes")
            b = await client.compress(_SPEC, second)
            await client.ping()
            await client.close()
            return a, blob, b
        finally:
            server.close()
            await server.wait_closed()

    a, blob, b = asyncio.run(asyncio.wait_for(run(), 30))
    assert np.array_equal(a, first) and np.array_equal(b, second)
    assert blob == b"opaque-bytes"
