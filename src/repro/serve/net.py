"""Minimal length-prefixed TCP transport for HPDR-Serve.

Frame layout (little-endian)::

    b"HPDS" | version:u8 | header_len:u32 | payload_len:u64
    header  : UTF-8 JSON (op, spec fields, array dtype/shape or status)
    payload : raw bytes (array data, compressed stream, or empty)

The wire format is deliberately dumb: one JSON header plus one opaque
byte run, so a client in any language can speak it with ``struct`` and
a JSON parser.  Arrays travel as raw C-order bytes described by
``dtype``/``shape`` in the header — the same portable layout the codecs
already guarantee byte-stability for.

What is constant across requests is built once per connection, and a
frame costs one transport write, one pass through one parser and one
dictionary lookup:

* **send** — :func:`_write_frame` joins preamble, header and a body of
  up to ``RECV_CHUNK`` bytes into one buffer and hands the transport
  that: one ``send`` per frame for one copy of the body.  A larger
  body is not worth copying and follows as its own write of the
  caller's ``memoryview`` (``memoryview(arr).cast("B")`` for arrays —
  no ``tobytes()`` staging).  The header bytes of a request are encoded
  once per ``(op, spec, form, dtype, shape)`` and those of an ok
  response once per ``(form, dtype, shape)``;
* **receive** — both ends read through :func:`_receive` into a
  :class:`FrameAssembler`, the only frame parser in this module.  The
  bytes of a frame are copied, not aliased, on their way in: the event
  loop's ``recv`` makes a ``bytes``, ``StreamReader`` appends it to its
  own buffer and cuts it out again for ``read()``, and ``feed`` copies
  it into the assembler's reused ``bytearray`` — three copies of
  at most ``RECV_CHUNK`` bytes each, kept because ``StreamReader`` also
  provides the read-side flow control and EOF handling (receiving
  straight into the assembler from an ``asyncio.BufferedProtocol`` was
  measured and did not win often enough to carry its own flow-control
  code; see CHANGES.md, PR 18).  From the assembler on nothing is
  copied on the server: the payload is a ``memoryview`` window of the
  buffer and arrays reach the service as ``np.frombuffer`` aliases of
  it, valid until the next ``feed`` — which the sequential
  per-connection discipline puts after the response.  The client
  copies each reply body once more, out of the buffer, because the
  caller owns what :meth:`BlastClient.request` returns;
* **headers** — the assembler looks the raw header bytes up in a
  bounded table before any JSON is parsed: identical bytes resolve to
  the same read-only :class:`_Header` and, for a request, the
  :class:`CodecSpec` already validated from it.  A header that does
  not parse or whose spec does not validate is never kept.  Every
  table holds at most ``INTERN_MAX_ENTRIES`` headers of at most
  ``INTERN_MAX_HEADER_BYTES`` each and belongs to one connection, so a
  peer can neither grow one nor reach another peer's.

Each connection is handled **sequentially** (one request in flight per
connection); concurrency — and therefore micro-batching — comes from
many connections, which is exactly how :mod:`repro.serve.loadgen`
drives load.  Error responses carry the exception's class name so
:class:`BlastClient` re-raises typed service errors
(:class:`~repro.serve.errors.ServiceOverloaded`,
:class:`~repro.serve.errors.ServiceClosed`) on the client side, letting
remote callers run the same backoff logic as in-process ones.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import struct
from typing import Any

import numpy as np

from repro.serve.errors import (
    ProtocolError,
    ServeError,
    ServiceClosed,
    ServiceOverloaded,
    ShardOverloaded,
)
from repro.serve.spec import CodecSpec

_MAGIC = b"HPDS"
_VERSION = 1
_PREAMBLE = struct.Struct("<4sBIQ")

#: refuse headers/payloads beyond these bounds (malformed-stream guard).
MAX_HEADER_BYTES = 1 << 20
MAX_PAYLOAD_BYTES = 1 << 32

#: socket read size feeding each connection's FrameAssembler; also the
#: largest body copied next to its head so that the frame is one write.
RECV_CHUNK = 1 << 16

#: bounds of every header interning table, encode and parse side: a
#: table never holds more entries than this and never a header longer
#: than this, so a peer cannot grow one by varying what it sends.
INTERN_MAX_ENTRIES = 128
INTERN_MAX_HEADER_BYTES = 512

#: the form key of an opaque byte payload (see :func:`_encode_payload`).
_BLOB = ("blob",)
_PING = b'{"op":"ping"}'


class RemoteRequestError(ServeError):
    """A remote request failed with a non-service exception."""

    def __init__(self, kind: str, message: str) -> None:
        self.kind = kind
        super().__init__(f"remote {kind}: {message}")


def _intern(table: dict, key, value, header_bytes: int) -> None:
    """Bounded insert into an interning table.

    A full table is emptied rather than left closed: traffic that
    repeats its headers refills it in one request each, while a peer
    that never repeats one holds at most ``INTERN_MAX_ENTRIES``.
    """
    if header_bytes > INTERN_MAX_HEADER_BYTES:
        return
    if len(table) >= INTERN_MAX_ENTRIES:
        table.clear()
    table[key] = value


class _Header(dict):
    """A parsed frame header.  ``spec`` is the validated
    :class:`CodecSpec` of a request header, else None.  One instance
    answers every frame carrying the same header bytes: read-only."""

    spec: CodecSpec | None = None


def _parse_header(raw: bytes) -> tuple[_Header, bool]:
    """Decode one header; the flag says whether it may be interned.

    Not interned: a header whose spec does not validate — the handler
    validates that one again and answers with the typed error, every
    time it arrives.
    """
    try:
        parsed = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unparseable frame header: {exc}") from exc
    if not isinstance(parsed, dict):
        raise ProtocolError("frame header must be a JSON object")
    header = _Header(parsed)
    if "spec" in header:
        try:
            header.spec = CodecSpec(**header["spec"])
        except (TypeError, ValueError):
            return header, False
    return header, True


class FrameAssembler:
    """Incremental frame parser over one reused receive buffer.

    ``feed`` appends socket chunks into a reusable ``bytearray`` (one
    page to begin with, growing geometrically to the largest frame the
    connection has carried, compacting consumed bytes in place);
    ``next_frame`` returns ``(header, payload_view)`` where
    ``payload_view`` is a zero-copy ``memoryview`` window into the
    buffer.  A returned view stays valid until the next ``feed`` —
    callers (the sequential connection handler) must finish the frame
    before reading more bytes.  Preamble validation runs as soon as the
    preamble arrives, so an invalid peer is rejected without buffering
    its announced payload.

    Headers are interned per assembler: the bytes of a header seen
    before on this connection resolve to the same parsed
    :class:`_Header` with one dictionary lookup, without running the
    JSON parser or the spec's validation again.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._buf = bytearray(max(int(capacity), _PREAMBLE.size))
        self._view = memoryview(self._buf)
        self._start = 0  # read offset of the unparsed region
        self._end = 0    # write offset
        self._headers: dict[bytes, _Header] = {}

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet returned as frames."""
        return self._end - self._start

    def feed(self, data) -> None:
        """Append received bytes (invalidates previously returned views)."""
        n = len(data)
        if self._start == self._end:
            self._start = self._end = 0
        if self._end + n > len(self._buf):
            live = self._end - self._start
            if self._start and live + n <= len(self._buf):
                # Compact consumed bytes away instead of growing (the
                # bytes() staging copy sidesteps overlapping-slice
                # assignment; compaction is rare and small).
                self._buf[:live] = bytes(self._view[self._start:self._end])
            else:
                size = len(self._buf)
                while size < live + n:
                    size *= 2
                new = bytearray(size)
                new[:live] = self._view[self._start:self._end]
                self._view.release()
                self._buf = new
                self._view = memoryview(new)
            self._start, self._end = 0, live
        self._view[self._end : self._end + n] = data
        self._end += n

    def next_frame(self) -> tuple[_Header, memoryview] | None:
        """Parse one complete frame, or None until more bytes arrive."""
        if self._end - self._start < _PREAMBLE.size:
            return None
        magic, version, hlen, plen = _PREAMBLE.unpack_from(self._buf, self._start)
        if magic != _MAGIC:
            raise ProtocolError(f"bad magic {bytes(magic)!r} (expected {_MAGIC!r})")
        if version != _VERSION:
            raise ProtocolError(f"unsupported protocol version {version}")
        if hlen > MAX_HEADER_BYTES:
            raise ProtocolError(f"header too large: {hlen} bytes")
        if plen > MAX_PAYLOAD_BYTES:
            raise ProtocolError(f"payload too large: {plen} bytes")
        body = self._start + _PREAMBLE.size + hlen
        if self._end < body + plen:
            return None
        raw = bytes(self._view[body - hlen : body])
        header = self._headers.get(raw)
        if header is None:
            header, keep = _parse_header(raw)
            if keep:
                _intern(self._headers, raw, header, hlen)
        self._start = body + plen
        return header, self._view[body : body + plen]


async def _receive(reader: asyncio.StreamReader,
                   assembler: FrameAssembler) -> tuple[_Header, memoryview] | None:
    """The next frame of a connection — the one receive path, server and
    client; None on clean EOF at a frame boundary."""
    while True:
        frame = assembler.next_frame()
        if frame is not None:
            return frame
        data = await reader.read(RECV_CHUNK)
        if not data:
            if assembler.pending:
                raise ProtocolError("connection closed mid-frame")
            return None
        assembler.feed(data)


def _encode_header(header: dict) -> bytes:
    return json.dumps(header, separators=(",", ":")).encode("utf-8")


def _write_frame(writer: asyncio.StreamWriter, header: dict | bytes, payload) -> None:
    """One frame, one transport write: preamble, header (a dict, or
    bytes :func:`_encode_header` made earlier) and a body of up to
    ``RECV_CHUNK`` bytes leave as one buffer.  A larger body is not
    worth copying and follows as its own zero-copy view."""
    raw = header if isinstance(header, bytes) else _encode_header(header)
    size = len(payload)
    preamble = _PREAMBLE.pack(_MAGIC, _VERSION, len(raw), size)
    if size <= RECV_CHUNK:
        writer.write(b"".join((preamble, raw, payload)))
    else:
        writer.write(preamble + raw)
        writer.write(payload)


def _encode_payload(payload: Any) -> tuple[tuple, memoryview]:
    """Split a request/response payload into its form — ``("blob",)``
    or ``("array", dtype, shape)``, hashable, what a header is interned
    by — and a zero-copy byte view (the caller keeps ``payload`` alive
    until the view is consumed)."""
    if isinstance(payload, (bytes, bytearray, memoryview)):
        view = payload if isinstance(payload, memoryview) else memoryview(payload)
        return _BLOB, view.cast("B")
    arr = np.ascontiguousarray(payload)
    return ("array", arr.dtype.str, arr.shape), memoryview(arr).cast("B")


def _form_fields(form: tuple) -> dict:
    """The header fields describing a payload of ``form``."""
    if form == _BLOB:
        return {"form": "blob"}
    return {"form": "array", "dtype": form[1], "shape": list(form[2])}


def _request_head(heads: dict, op: str, spec: CodecSpec, form: tuple) -> bytes:
    """The encoded header of a request, from the connection's table
    ``heads`` once it has been sent before.  Specs that compare equal
    share an entry, as they share a batch and a codec in the service."""
    key = (op, spec, form)
    head = heads.get(key)
    if head is None:
        head = _encode_header({"op": op, "spec": dataclasses.asdict(spec),
                               **_form_fields(form)})
        _intern(heads, key, head, len(head))
    return head


def _response_head(heads: dict, form: tuple) -> bytes:
    """The encoded header of an ok response carrying a ``form`` payload."""
    head = heads.get(form)
    if head is None:
        head = _encode_header({"status": "ok", **_form_fields(form)})
        _intern(heads, form, head, len(head))
    return head


def _decode_payload(header: dict, raw) -> Any:
    """Materialize a payload without copying: arrays alias ``raw`` (the
    receive buffer)."""
    if "shm" in header:
        # An old client named a shared-memory window and sent no body:
        # refuse the request rather than serve the empty body.
        raise ValueError("shared-memory payloads are not served; send the body inline")
    form = header.get("form")
    if form == "blob":
        return raw
    if form == "array":
        dtype = np.dtype(header["dtype"])
        shape = tuple(int(s) for s in header["shape"])
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
    raise ProtocolError(f"unknown payload form {form!r}")


def _raise_remote(header: dict) -> None:
    kind = header.get("kind", "ServeError")
    message = header.get("message", "")
    if kind == "ShardOverloaded":
        raise ShardOverloaded(str(header.get("shard", "?")),
                              int(header.get("depth", 0)),
                              int(header.get("limit", 0)))
    if kind == "ServiceOverloaded":
        raise ServiceOverloaded(int(header.get("depth", 0)),
                                int(header.get("limit", 0)))
    if kind == "ServiceClosed":
        raise ServiceClosed(header.get("what", "submit"))
    raise RemoteRequestError(kind, message)


# ---------------------------------------------------------------------------
async def _handle_connection(service, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    assembler = FrameAssembler()
    heads: dict[tuple, bytes] = {}  # this connection's response heads
    try:
        while True:
            frame = await _receive(reader, assembler)
            if frame is None:
                break
            header, raw = frame
            try:
                op = header["op"]
                if op == "ping":
                    # Liveness probe: answered before spec parsing, so
                    # it costs no codec work and needs no payload (the
                    # cluster health checker's one round-trip).
                    value = b""
                else:
                    spec = header.spec
                    if spec is None:  # absent or invalid: raise what is wrong with it
                        spec = CodecSpec(**header["spec"])
                    payload = _decode_payload(header, raw)
                    value = await service.submit(op, spec, payload)
            except asyncio.CancelledError:
                raise
            except ProtocolError:
                raise  # malformed peer: drop the connection, not just the request
            except ServiceOverloaded as exc:
                err = {
                    "status": "err", "kind": type(exc).__name__,
                    "message": str(exc), "depth": exc.depth, "limit": exc.limit,
                }
                shard = getattr(exc, "shard", None)
                if shard is not None:
                    err["shard"] = shard
                _write_frame(writer, err, b"")
            except Exception as exc:
                _write_frame(writer, {
                    "status": "err", "kind": type(exc).__name__,
                    "message": str(exc),
                }, b"")
            else:
                form, out = _encode_payload(value)
                _write_frame(writer, _response_head(heads, form), out)
                del value, out
            await writer.drain()
    except (ProtocolError, ConnectionError):
        pass  # drop the misbehaving/vanished connection
    finally:
        # Close without awaiting: the transport finishes asynchronously,
        # and awaiting here races loop shutdown (spurious cancellation).
        writer.close()


async def serve_tcp(service, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.AbstractServer:
    """Expose a started :class:`ReductionService` on a TCP socket.

    Returns the asyncio server; ``server.sockets[0].getsockname()``
    yields the bound address (pass ``port=0`` for an ephemeral port in
    tests).  Close the server *before* closing the service so draining
    covers every admitted request.
    """

    async def handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(handler, host, port)


class BlastClient:
    """One sequential client connection to a served reduction service."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._assembler = FrameAssembler()
        self._heads: dict[tuple, bytes] = {}  # this connection's request heads

    @classmethod
    async def connect(cls, host: str, port: int) -> "BlastClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _exchange(self, head: dict | bytes, body) -> tuple[_Header, memoryview]:
        """Send one frame and return the ok reply to it (a view into the
        receive buffer, valid until the next exchange)."""
        _write_frame(self._writer, head, body)
        await self._writer.drain()
        frame = await _receive(self._reader, self._assembler)
        if frame is None:
            raise ProtocolError("server closed the connection mid-request")
        if frame[0].get("status") != "ok":
            _raise_remote(frame[0])
        return frame

    async def request(self, op: str, spec: CodecSpec, payload: Any) -> Any:
        form, raw = _encode_payload(payload)
        resp, out = await self._exchange(
            _request_head(self._heads, op, spec, form), raw)
        # The caller owns what it gets back: one copy out of the receive
        # buffer, which the next reply overwrites.
        return _decode_payload(resp, bytes(out))

    async def ping(self) -> None:
        """One liveness round-trip (no spec, no payload, no codec work)."""
        await self._exchange(_PING, b"")

    async def compress(self, spec: CodecSpec, data: np.ndarray) -> bytes:
        return await self.request("compress", spec, data)

    async def decompress(self, spec: CodecSpec, blob: bytes) -> np.ndarray:
        return await self.request("decompress", spec, blob)

    async def retrieve(self, spec: CodecSpec, archive: bytes,
                       eps: float | None = None,
                       resolution: int | None = None) -> np.ndarray:
        """Bounded progressive retrieval of an HPGX archive."""
        from repro.progressive import make_retrieve_request

        return await self.request(
            "retrieve", spec, make_retrieve_request(archive, eps, resolution)
        )

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:  # pragma: no cover
            pass
