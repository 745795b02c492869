"""TCP transport: framing round-trips, remote error mapping, bad peers."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import socket
import struct

import numpy as np
import pytest

from repro.serve import (
    BatchLimits,
    BlastClient,
    CodecSpec,
    ProtocolError,
    ReductionService,
    RemoteRequestError,
    ServiceConfig,
    ServiceClient,
    ServiceOverloaded,
    run_blast,
    serve_tcp,
)
from repro.serve import net
from repro.serve.net import _PREAMBLE, RECV_CHUNK, _encode_header, _write_frame
from repro.serve.worker import OK


@pytest.fixture
def served_protocols(monkeypatch):
    """Every server-side connection that ``serve_tcp`` opens from here
    on, each with a ``lost`` event set when the connection ends."""
    made = []

    class Recording(net._ServerProtocol):
        def __init__(self, service):
            super().__init__(service)
            self.lost = asyncio.Event()
            made.append(self)

        def connection_lost(self, exc):
            super().connection_lost(exc)
            self.lost.set()

    monkeypatch.setattr(net, "_ServerProtocol", Recording)
    return made


def _served(cfg=None):
    """Start service + TCP server; return (svc, server, host, port)."""

    async def boot():
        svc = await ReductionService(
            cfg if cfg is not None else ServiceConfig(
                limits=BatchLimits(max_batch=8, max_latency_s=0.002)
            )
        ).start()
        server = await serve_tcp(svc)
        host, port = server.sockets[0].getsockname()[:2]
        return svc, server, host, port

    return boot


def test_tcp_roundtrip_matches_in_process():
    spec = CodecSpec("zfp-x", rate=8.0)
    data = np.random.default_rng(0).standard_normal((16, 16)).astype(np.float32)
    want = spec.build().compress(data)

    async def run():
        svc, server, host, port = await _served()()
        try:
            client = await BlastClient.connect(host, port)
            blob = await client.compress(spec, data)
            back = await client.decompress(spec, blob)
            await client.close()
            return blob, back
        finally:
            server.close()
            await server.wait_closed()
            await svc.close()

    blob, back = asyncio.run(run())
    assert blob == want
    assert np.array_equal(back, spec.build().decompress(want))
    assert back.dtype == data.dtype and back.shape == data.shape


def test_remote_errors_are_typed():
    spec = CodecSpec("zfp-x", rate=8.0)

    async def run():
        svc, server, host, port = await _served()()
        try:
            client = await BlastClient.connect(host, port)
            with pytest.raises(RemoteRequestError) as exc:
                await client.decompress(spec, b"garbage stream")
            assert exc.value.kind  # carries the server-side class name
            # The connection survives a failed request.
            data = np.ones((4, 4), dtype=np.float32)
            blob = await client.compress(spec, data)
            assert blob == spec.build().compress(data)
            await client.close()
        finally:
            server.close()
            await server.wait_closed()
            await svc.close()

    asyncio.run(run())


@pytest.mark.parametrize("error_mode", ["rel", "abs"])
def test_non_finite_tile_is_a_typed_refusal_not_a_bad_stream(error_mode):
    """MGARD-X refuses NaN before writing a byte: the client sees the
    codec's ``ValueError``, never a stream whose decompress would fail."""
    spec = CodecSpec("mgard-x", error_bound=1e-3, error_mode=error_mode)
    good = np.linspace(0, 1, 256, dtype=np.float32).reshape(16, 16)
    poisoned = good.copy()
    poisoned[3, 7] = np.nan

    async def run():
        svc, server, host, port = await _served()()
        try:
            client = await BlastClient.connect(host, port)
            with pytest.raises(RemoteRequestError) as exc:
                await client.compress(spec, poisoned)
            assert exc.value.kind == "ValueError" and "finite" in str(exc.value)
            blob = await client.compress(spec, good)
            assert blob == spec.build().compress(good)
            await client.close()
        finally:
            server.close()
            await server.wait_closed()
            await svc.close()

    asyncio.run(run())


def test_remote_overload_maps_to_service_overloaded(monkeypatch):
    import threading

    from repro.serve import worker as worker_mod

    spec = CodecSpec("zfp-x", rate=8.0)
    data = np.ones((16, 16), dtype=np.float32)
    # Hold the first request inside the worker so it deterministically
    # occupies the single admission slot (idle-flush dispatches it
    # immediately, so timing alone can no longer keep it in flight).
    entered = threading.Event()
    release = threading.Event()
    original = worker_mod.Worker.run_batch

    def slow_run_batch(self, flush):
        entered.set()
        release.wait(timeout=30)
        return original(self, flush)

    monkeypatch.setattr(worker_mod.Worker, "run_batch", slow_run_batch)

    async def run():
        cfg = ServiceConfig(
            limits=BatchLimits(max_batch=64, max_latency_s=0.2),
            max_pending=1,
        )
        svc, server, host, port = await _served(cfg)()
        try:
            c1 = await BlastClient.connect(host, port)
            c2 = await BlastClient.connect(host, port)
            first = asyncio.ensure_future(c1.compress(spec, data))
            # The first request is inside the worker: it holds the slot.
            assert await asyncio.to_thread(entered.wait, 30)
            with pytest.raises(ServiceOverloaded) as exc:
                await c2.compress(spec, data)
            assert exc.value.limit == 1
            release.set()
            await first
            await c1.close()
            await c2.close()
        finally:
            release.set()
            server.close()
            await server.wait_closed()
            await svc.close()

    asyncio.run(run())


def test_malformed_frame_drops_connection_only():
    async def run():
        svc, server, host, port = await _served()()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GETX" + struct.pack("<BIQ", 1, 4, 0) + b"oops")
            await writer.drain()
            got = await reader.read(64)
            assert got == b""  # server hung up on the bad peer
            writer.close()
            # The service itself is unharmed.
            client = await BlastClient.connect(host, port)
            spec = CodecSpec("lz4")
            data = np.arange(64, dtype=np.float32)
            blob = await client.compress(spec, data)
            back = await client.decompress(spec, blob)
            assert np.array_equal(back, data)
            await client.close()
        finally:
            server.close()
            await server.wait_closed()
            await svc.close()

    asyncio.run(run())


def test_client_vanishing_mid_reply_is_dropped_quietly(served_protocols):
    """The peer half-closes after its request, then dies while the
    reply is still being written: the send fails with a reset.  That is
    a vanished connection like any other — the connection is dropped
    without an unhandled exception reaching the loop, and the service
    is left drained."""
    spec = CodecSpec("lz4")
    data = np.zeros((1024, 1024), dtype=np.float32)  # a 4 MB reply from a tiny stream
    blob = spec.build().compress(data)

    async def run():
        loop = asyncio.get_running_loop()
        unhandled: list[dict] = []
        loop.set_exception_handler(lambda _, context: unhandled.append(context))
        svc, server, host, port = await _served()()
        try:
            # A small receive window, so the reply cannot all be sent.
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await loop.sock_connect(sock, (host, port))
            reader, writer = await asyncio.open_connection(sock=sock)
            _write_frame(writer, {"op": "decompress", "spec": dataclasses.asdict(spec),
                                  "form": "blob"}, blob)
            writer.write_eof()
            await reader.readexactly(17)  # the reply has started...
            await asyncio.sleep(0.05)     # ...and stalled against the window
            assert len(served_protocols) == 1
            conn = served_protocols[0]
            assert not conn.lost.is_set()
            writer.transport.abort()      # unread bytes: the kernel answers with RST
            await asyncio.wait_for(conn.lost.wait(), 10)
            await asyncio.sleep(0)
            return svc.inflight, unhandled
        finally:
            server.close()
            await server.wait_closed()
            await svc.close()

    inflight, unhandled = asyncio.run(asyncio.wait_for(run(), 30))
    assert inflight == 0
    assert unhandled == []


def test_closing_with_peers_connected_hands_nothing_to_the_loop():
    """Server, then service, then the peers: 16 idle connections and a
    client that has been answered once leave nothing for the loop's
    exception handler, and nothing in flight.  (The peers close before
    ``wait_closed``, which waits for open connections from Python 3.12
    on.)"""
    spec = CodecSpec("zfp-x", rate=8.0)
    data = np.ones((16, 16), dtype=np.float32)
    unhandled: list[dict] = []

    async def run():
        asyncio.get_running_loop().set_exception_handler(
            lambda _, context: unhandled.append(context))
        svc, server, host, port = await _served()()
        idle = [await asyncio.open_connection(host, port) for _ in range(16)]
        client = await BlastClient.connect(host, port)
        assert await client.compress(spec, data) == spec.build().compress(data)
        server.close()
        await svc.close()
        await client.close()
        for _, writer in idle:
            writer.close()
        await server.wait_closed()
        return svc.inflight

    # No wait_for around run(): its extra loop turns would let the
    # connections wind down before the loop shuts down.
    inflight = asyncio.run(run())
    assert unhandled == []
    assert inflight == 0


class _Collect:
    """A writer that keeps what it is given."""

    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def write(self, data) -> None:
        self.parts.append(bytes(data))


class _Gate:
    """A service that answers only when told to, in admission order,
    with a copy of each payload (or ``body`` when one is set)."""

    def __init__(self, body: bytes | None = None) -> None:
        self.body = body
        self.pending: list = []
        self.admitted = 0
        self.peak = 0

    def admit(self, op, spec, payload, reply):
        self.pending.append((bytes(payload), reply))
        self.admitted += 1
        self.peak = max(self.peak, len(self.pending))

    def answer(self):
        got, reply = self.pending.pop(0)
        reply(OK, got if self.body is None else self.body)


_BLOB_REQUEST = {"op": "compress", "spec": dataclasses.asdict(CodecSpec("lz4")),
                 "form": "blob"}


async def _until(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.005)


async def _read_reply(reader) -> bytes:
    preamble = await reader.readexactly(_PREAMBLE.size)
    _, _, hlen, plen = _PREAMBLE.unpack(preamble)
    header = json.loads(await reader.readexactly(hlen))
    assert header["status"] == "ok", header
    return await reader.readexactly(plen)


def _gated(gate):
    async def boot():
        server = await serve_tcp(gate)
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)
        return server, reader, writer
    return boot


def test_back_to_back_requests_are_answered_in_order_one_at_a_time():
    """Three requests in one write, none of the replies read yet: the
    connection has at most one request admitted at a time, and the
    replies come back in request order."""
    gate = _Gate()
    bodies = [b"one", b"two", b"three"]

    async def run():
        server, reader, writer = await _gated(gate)()
        try:
            fake = _Collect()
            for body in bodies:
                _write_frame(fake, _BLOB_REQUEST, body)
            writer.write(b"".join(fake.parts))
            replies = []
            for n in range(1, len(bodies) + 1):
                await _until(lambda: gate.admitted == n)
                await asyncio.sleep(0.02)
                assert gate.admitted == n  # the next waits for this answer
                gate.answer()
                replies.append(await _read_reply(reader))
            writer.close()
            return replies
        finally:
            server.close()
            await server.wait_closed()

    assert asyncio.run(asyncio.wait_for(run(), 30)) == bodies
    assert gate.peak == 1


def test_pipelined_megabyte_pauses_reading_until_the_reply(served_protocols):
    """About 1 MB sent behind a request in flight: reading pauses with
    at most one frame plus ``RECV_CHUNK`` held, and resumes once the
    request is answered."""
    gate = _Gate()
    chunk = bytes(range(256)) * 1024  # 256 KB frames, four of them
    frame_bytes = _PREAMBLE.size + len(_encode_header(_BLOB_REQUEST)) + len(chunk)

    async def run():
        server, reader, writer = await _gated(gate)()
        try:
            _write_frame(writer, _BLOB_REQUEST, b"first")
            await _until(lambda: gate.admitted == 1)
            (conn,) = served_protocols
            for _ in range(4):
                _write_frame(writer, _BLOB_REQUEST, chunk)
            await _until(lambda: conn._read_paused)
            await asyncio.sleep(0.05)
            held = conn._held_bytes
            assert not conn._transport.is_reading()
            assert gate.admitted == 1
            gate.answer()
            assert await _read_reply(reader) == b"first"
            await _until(lambda: gate.admitted == 2)
            replies = []
            for n in range(2, 6):
                await _until(lambda: gate.admitted == n)
                gate.answer()
                replies.append(await _read_reply(reader))
            resumed = conn._transport.is_reading()
            writer.close()
            return held, replies, resumed
        finally:
            server.close()
            await server.wait_closed()

    held, replies, resumed = asyncio.run(asyncio.wait_for(run(), 30))
    assert RECV_CHUNK < held <= frame_bytes + RECV_CHUNK
    assert replies == [chunk] * 4
    assert resumed and gate.peak == 1


def test_peer_that_stops_reading_gets_no_new_admission(served_protocols):
    """A peer that does not read its 4 MB reply has its next request
    admitted only after it has drained that reply."""
    big = bytes(4 << 20)
    gate = _Gate(body=big)

    async def run():
        loop = asyncio.get_running_loop()
        server = await serve_tcp(gate)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await loop.sock_connect(sock, (host, port))
            reader, writer = await asyncio.open_connection(sock=sock)
            _write_frame(writer, _BLOB_REQUEST, b"first")
            _write_frame(writer, _BLOB_REQUEST, b"second")
            await _until(lambda: gate.admitted == 1)
            (conn,) = served_protocols
            gate.answer()  # 4 MB queued against a peer that is not reading
            await asyncio.sleep(0.1)
            assert conn._write_paused
            assert gate.admitted == 1
            first = await _read_reply(reader)
            await _until(lambda: gate.admitted == 2)
            gate.answer()
            second = await _read_reply(reader)
            writer.close()
            return first, second
        finally:
            server.close()
            await server.wait_closed()

    first, second = asyncio.run(asyncio.wait_for(run(), 30))
    assert first == big and second == big
    assert gate.peak == 1


def test_run_blast_in_process_and_tcp_agree_on_verification():
    spec = CodecSpec("huffman-x")

    async def run():
        svc, server, host, port = await _served()()
        try:
            tcp = await run_blast(
                lambda i: BlastClient.connect(host, port),
                clients=4, requests_per_client=5, specs=[spec],
                verify=True,
            )

            async def inproc_client(i):
                return ServiceClient(svc)

            inproc = await run_blast(
                inproc_client,
                clients=4, requests_per_client=5, specs=[spec],
                verify=True,
            )
            return tcp, inproc
        finally:
            server.close()
            await server.wait_closed()
            await svc.close()

    tcp, inproc = asyncio.run(run())
    for report in (tcp, inproc):
        assert report["completed"] == 20
        assert report["errors"] == 0
        assert report["mismatches"] == 0
        assert report["rps"] > 0
        assert report["p99_ms"] >= report["p95_ms"] >= report["p50_ms"] > 0


def test_run_blast_counts_only_answered_requests():
    """A request that raised is an error, not a completion: with one of
    two specs always failing, ``completed == total - errors``."""
    good, bad = CodecSpec("lz4"), CodecSpec("zfp-x", rate=8.0)

    class EchoUnlessBad:
        async def request(self, op, spec, payload):
            if spec == bad:
                raise RuntimeError("this spec always fails")
            return payload

        async def close(self):
            pass

    async def make_client(i):
        return EchoUnlessBad()

    report = asyncio.run(run_blast(make_client, clients=2, requests_per_client=5,
                                   specs=[good, bad], verify=True))
    assert report["errors"] == 5
    assert report["completed"] == 2 * 5 - report["errors"]
    assert report["mismatches"] == 0
