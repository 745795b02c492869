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
* **receive** — each end of a connection is one ``asyncio.Protocol``
  whose ``data_received`` feeds a :class:`FrameAssembler`, the only
  frame parser in this module: no coroutine is resumed per frame on
  the server, and on the client one waiter future per request.  The
  bytes of a frame are copied once on their way in: ``feed`` copies
  the ``bytes`` the event loop's ``recv`` made into the assembler's
  reused ``bytearray``.  From the assembler on nothing is
  copied on the server: the payload is a ``memoryview`` window of the
  buffer and arrays reach the service as ``np.frombuffer`` aliases of
  it.  The client copies each reply body once more, out of the buffer,
  because the caller owns what :meth:`BlastClient.request` returns;
* **headers** — the assembler looks the raw header bytes up in a
  bounded table before any JSON is parsed: identical bytes resolve to
  the same read-only :class:`_Header` and, for a request, the
  :class:`CodecSpec` already validated from it.  A header that does
  not parse or whose spec does not validate is never kept.  Every
  table holds at most ``INTERN_MAX_ENTRIES`` headers of at most
  ``INTERN_MAX_HEADER_BYTES`` each and belongs to one connection, so a
  peer can neither grow one nor reach another peer's.

Each connection is served **sequentially** (one request in flight per
connection); concurrency — and therefore micro-batching — comes from
many connections, which is exactly how :mod:`repro.serve.loadgen`
drives load.  The server admits a complete frame synchronously through
the service's ``admit(op, spec, payload, reply)`` and writes the answer
from the ``reply`` callback.  Flow control is the protocol's own:

* while a request is in flight its payload still aliases the
  assembler's buffer, so bytes that arrive meanwhile are held outside
  it, and reading pauses once more than ``RECV_CHUNK`` are held;
* while the transport has paused writing (the peer is not reading its
  replies) no new request is admitted, and arriving bytes are held the
  same way.

Error responses carry the exception's class name so
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
from typing import Any, cast

import numpy as np

from repro.serve.errors import (
    ProtocolError,
    ServeError,
    ServiceClosed,
    ServiceOverloaded,
    ShardOverloaded,
)
from repro.serve.spec import CodecSpec
from repro.serve.worker import ERR, OK

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
    callers must finish the frame before feeding more bytes (the server
    protocol holds what arrives meanwhile).  Preamble validation runs as
    soon as the preamble arrives, so an invalid peer is rejected without
    buffering its announced payload.

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


def _encode_header(header: dict) -> bytes:
    return json.dumps(header, separators=(",", ":")).encode("utf-8")


def _write_frame(writer: Any, header: dict[str, Any] | bytes, payload: Any) -> None:
    """One frame, one write to ``writer`` (a transport, or anything with
    its ``write``): preamble, header (a dict, or bytes
    :func:`_encode_header` made earlier) and a body of up to
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




def _error_head(exc: BaseException) -> dict[str, Any]:
    """The header of an error response: the exception's class name and
    message, plus depth, limit and shard for an overload."""
    err: dict[str, Any] = {"status": "err", "kind": type(exc).__name__,
                           "message": str(exc)}
    if isinstance(exc, ServiceOverloaded):
        err["depth"] = exc.depth
        err["limit"] = exc.limit
        shard = getattr(exc, "shard", None)
        if shard is not None:
            err["shard"] = shard
    return err


# ---------------------------------------------------------------------------
class _ServerProtocol(asyncio.Protocol):
    """One served connection: frames in, one request in flight, answers
    out of the service's ``reply`` callback.

    Bytes that arrive while a request is in flight, or while the
    transport has paused writing, are held outside the assembler (the
    in-flight payload aliases its buffer); reading pauses once more
    than ``RECV_CHUNK`` of them are held, and the held bytes are fed in
    when the connection is free again.
    """

    def __init__(self, service: Any) -> None:
        self._admit = service.admit
        self._reply = self._on_reply  # bound once, passed with every request
        self._assembler = FrameAssembler()
        self._heads: dict[tuple[Any, ...], bytes] = {}  # this connection's response heads
        self._transport: asyncio.Transport | None = None
        self._held: list[bytes] = []
        self._held_bytes = 0
        self._inflight = False
        self._write_paused = False
        self._read_paused = False
        self._eof = False
        self._pumping = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = cast(asyncio.Transport, transport)

    def connection_lost(self, exc: Exception | None) -> None:
        # A request still in flight is answered into the void.
        self._transport = None
        self._held.clear()

    def data_received(self, data: bytes) -> None:
        if self._inflight or self._write_paused:
            self._held.append(data)
            self._held_bytes += len(data)
            if (self._held_bytes > RECV_CHUNK and not self._read_paused
                    and self._transport is not None):
                self._read_paused = True
                self._transport.pause_reading()
            return
        self._assembler.feed(data)
        self._pump()

    def eof_received(self) -> bool:
        # Keep the write side open: a reply may still be owed.  The
        # connection closes once every complete frame is answered.
        self._eof = True
        self._pump()
        return True

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._pump()

    def _pump(self) -> None:
        """Admit complete frames one at a time while the connection is
        free; close it at EOF or on a malformed frame."""
        if self._pumping:
            return  # a reply answered synchronously inside the loop below
        self._pumping = True
        try:
            while not (self._inflight or self._write_paused):
                transport = self._transport
                if transport is None:
                    return
                if self._held:
                    for data in self._held:
                        self._assembler.feed(data)
                    self._held.clear()
                    self._held_bytes = 0
                    if self._read_paused:
                        self._read_paused = False
                        transport.resume_reading()
                try:
                    frame = self._assembler.next_frame()
                    if frame is None:
                        if self._eof:
                            transport.close()  # at a frame boundary or mid-frame
                        return
                    self._serve(*frame)
                except ProtocolError:
                    transport.close()  # drop the malformed peer, not the service
                    return
        finally:
            self._pumping = False

    def _serve(self, header: _Header, raw: memoryview) -> None:
        try:
            op = header["op"]
            if op == "ping":
                # Liveness probe: answered before spec parsing, so it
                # costs no codec work and needs no payload (the cluster
                # health checker's one round-trip).
                self._on_reply(OK, b"")
                return
            spec = header.spec
            if spec is None:  # absent or invalid: raise what is wrong with it
                spec = CodecSpec(**header["spec"])
            payload = _decode_payload(header, raw)
            self._inflight = True
            self._admit(op, spec, payload, self._reply)
        except ProtocolError:
            raise
        except Exception as exc:
            self._on_reply(ERR, exc)

    def _on_reply(self, tag: str, value: Any) -> None:
        self._inflight = False
        transport = self._transport
        if transport is None:
            return  # the peer vanished while its request was in flight
        if tag == OK:
            form, out = _encode_payload(value)
            _write_frame(transport, _response_head(self._heads, form), out)
        else:
            _write_frame(transport, _error_head(value), b"")
        self._pump()


async def serve_tcp(service: Any, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.AbstractServer:
    """Expose a started service on a TCP socket.

    ``service`` is a :class:`ReductionService` or anything with its
    ``admit(op, spec, payload, reply)`` (the cluster router).  Returns
    the asyncio server; ``server.sockets[0].getsockname()`` yields the
    bound address (pass ``port=0`` for an ephemeral port in tests).
    Close the server *before* closing the service so draining covers
    every admitted request.
    """
    loop = asyncio.get_running_loop()
    return await loop.create_server(lambda: _ServerProtocol(service), host, port)


class BlastClient(asyncio.Protocol):
    """One sequential client connection to a served reduction service.

    ``data_received`` resolves the one waiter of the request in flight
    with its reply frame (the body copied out of the receive buffer).
    """

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._transport: asyncio.Transport | None = None
        self._assembler = FrameAssembler()
        self._heads: dict[tuple[Any, ...], bytes] = {}  # this connection's request heads
        self._waiter: asyncio.Future[tuple[_Header, bytes]] | None = None
        self._closed: asyncio.Future[None] = self._loop.create_future()

    @classmethod
    async def connect(cls, host: str, port: int) -> "BlastClient":
        _, client = await asyncio.get_running_loop().create_connection(
            cls, host, port)
        return client

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = cast(asyncio.Transport, transport)

    def data_received(self, data: bytes) -> None:
        self._assembler.feed(data)
        waiter = self._waiter
        if waiter is None:
            return
        try:
            frame = self._assembler.next_frame()
        except ProtocolError as exc:
            self._fail(exc)
            if self._transport is not None:
                self._transport.close()
            return
        if frame is not None:
            self._waiter = None
            if not waiter.done():
                # The caller owns what it gets back: one copy out of the
                # receive buffer, which the next reply overwrites.
                waiter.set_result((frame[0], bytes(frame[1])))

    def connection_lost(self, exc: Exception | None) -> None:
        self._transport = None
        self._fail(exc if exc is not None else
                   ProtocolError("server closed the connection mid-request"))
        if not self._closed.done():
            self._closed.set_result(None)

    def _fail(self, exc: BaseException) -> None:
        waiter, self._waiter = self._waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_exception(exc)

    async def _exchange(self, head: dict[str, Any] | bytes,
                        body: Any) -> tuple[_Header, bytes]:
        """Send one frame and return the ok reply to it."""
        transport = self._transport
        if transport is None or transport.is_closing():
            raise ConnectionResetError("Connection lost")
        _write_frame(transport, head, body)
        self._waiter = waiter = self._loop.create_future()
        try:
            header, out = await waiter
        finally:
            self._waiter = None
        if header.get("status") != "ok":
            _raise_remote(header)
        return header, out

    async def request(self, op: str, spec: CodecSpec, payload: Any) -> Any:
        form, raw = _encode_payload(payload)
        resp, out = await self._exchange(
            _request_head(self._heads, op, spec, form), raw)
        return _decode_payload(resp, out)

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
        if self._transport is not None:
            self._transport.close()
        await self._closed
