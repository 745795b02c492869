"""Golden bytes for the HPDS v1 frames the serve transport emits.

``frames.json`` holds, as hex, the exact bytes of one frame of each kind
the protocol has: a compress request (float32 32x32 array), a
decompress request (blob), ok responses of both forms, the two
overload error responses, and a ping with its answer.  They were
recorded from ``_write_frame`` (through a writer that concatenates its
writes) before the transport was rebuilt around one write per frame,
and are what "the bytes on the wire are unchanged" means: the frame
writer, :class:`~repro.serve.net.BlastClient` and ``serve_tcp`` must all
emit them, and the parser must read them back — whole, or split the
way a v1 peer delivers them (preamble, header and body as three
writes).  Inputs are built from integers only.

Regenerate (only when a wire change is intended, and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/golden/test_frames_golden.py
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.serve import BlastClient, CodecSpec, serve_tcp
from repro.serve.errors import ServiceOverloaded, ShardOverloaded
from repro.serve.net import _PREAMBLE, FrameAssembler, _write_frame
from repro.serve.worker import OK

FRAMES = Path(__file__).with_name("frames.json")

SPEC = CodecSpec("zfp-x", rate=8.0)
TILE = (np.arange(1024, dtype=np.int64).reshape(32, 32) * 3 - 1000).astype(np.float32) / 8
BLOB = bytes((7 * i + 3) % 256 for i in range(300))

_ARRAY = {"form": "array", "dtype": "<f4", "shape": [32, 32]}


def _overload(exc: ServiceOverloaded) -> dict:
    err = {"status": "err", "kind": type(exc).__name__, "message": str(exc),
           "depth": exc.depth, "limit": exc.limit}
    if isinstance(exc, ShardOverloaded):
        err["shard"] = exc.shard
    return err


def _request(op: str, meta: dict) -> dict:
    return {"op": op, "spec": dataclasses.asdict(SPEC), **meta}


#: name -> (header, payload): the v1 header layout, field order included.
CASES = {
    "request-compress": (_request("compress", _ARRAY), TILE.tobytes()),
    "request-decompress": (_request("decompress", {"form": "blob"}), BLOB),
    "request-ping": ({"op": "ping"}, b""),
    "response-blob": ({"status": "ok", "form": "blob"}, BLOB),
    "response-array": ({"status": "ok", **_ARRAY}, TILE.tobytes()),
    "response-ping": ({"status": "ok", "form": "blob"}, b""),
    "response-service-overloaded": (_overload(ServiceOverloaded(256, 256)), b""),
    "response-shard-overloaded": (_overload(ShardOverloaded("s2", 64, 64)), b""),
}

#: what the service behind ``serve_tcp`` must do for each request frame
#: to draw each response frame.
EXCHANGES = [
    ("request-compress", BLOB, "response-blob"),
    ("request-decompress", TILE, "response-array"),
    ("request-ping", None, "response-ping"),
    ("request-compress", ServiceOverloaded(256, 256), "response-service-overloaded"),
    ("request-decompress", ShardOverloaded("s2", 64, 64), "response-shard-overloaded"),
]


class _JoiningWriter:
    """Stands in for a StreamWriter: concatenates what it is handed."""

    def __init__(self) -> None:
        self.data = b""
        self.writes = 0

    def write(self, data) -> None:
        self.data += bytes(data)
        self.writes += 1


def _emit(name: str) -> bytes:
    writer = _JoiningWriter()
    _write_frame(writer, *CASES[name])
    return writer.data


def _golden() -> dict[str, bytes]:
    return {name: bytes.fromhex(text)
            for name, text in json.loads(FRAMES.read_text(encoding="utf-8")).items()}


def _three_writes(frame: bytes) -> list[bytes]:
    """A frame cut where the v1 writer cut it: preamble | header | body."""
    hlen = _PREAMBLE.unpack_from(frame)[2]
    cuts = (_PREAMBLE.size, _PREAMBLE.size + hlen)
    return [part for part in (frame[:cuts[0]], frame[cuts[0]:cuts[1]], frame[cuts[1]:])
            if part]


def test_frame_file_matches_case_matrix():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_write_frame_bytes_unchanged(name):
    assert _emit(name) == _golden()[name]


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("split", ["whole", "three-writes"])
def test_golden_frame_parses_back(name, split):
    frame = _golden()[name]
    header, payload = CASES[name]
    assembler = FrameAssembler()
    pieces = [frame] if split == "whole" else _three_writes(frame)
    for piece in pieces[:-1]:
        assembler.feed(piece)
        assert assembler.next_frame() is None
    assembler.feed(pieces[-1])
    got = assembler.next_frame()
    assert got is not None
    assert got[0] == header and bytes(got[1]) == payload
    assert assembler.pending == 0


class _Scripted:
    """A service that answers every request with ``self.answer``."""

    answer = None

    def admit(self, op, spec, payload, reply):
        assert spec == SPEC
        if isinstance(self.answer, Exception):
            raise self.answer
        reply(OK, self.answer)


async def _read_one_frame(reader: asyncio.StreamReader) -> bytes:
    preamble = await reader.readexactly(_PREAMBLE.size)
    _, _, hlen, plen = _PREAMBLE.unpack(preamble)
    return preamble + await reader.readexactly(hlen + plen)


def test_blast_client_sends_the_golden_request_bytes():
    """What BlastClient really puts on a socket, frame by frame."""
    golden = _golden()
    seen: list[bytes] = []

    async def record(reader, writer):
        try:
            for reply in ("response-blob", "response-array", "response-ping"):
                seen.append(await _read_one_frame(reader))
                writer.write(golden[reply])
                await writer.drain()
        finally:
            writer.close()

    async def run():
        server = await asyncio.start_server(record, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            client = await BlastClient.connect(host, port)
            blob = await client.compress(SPEC, TILE)
            back = await client.decompress(SPEC, BLOB)
            await client.ping()
            await client.close()
            return blob, back
        finally:
            server.close()
            await server.wait_closed()

    blob, back = asyncio.run(asyncio.wait_for(run(), 30))
    assert seen == [golden["request-compress"], golden["request-decompress"],
                    golden["request-ping"]]
    assert bytes(blob) == BLOB
    assert back.dtype == TILE.dtype and np.array_equal(back, TILE)


@pytest.mark.parametrize("split", ["whole", "three-writes"])
def test_server_answers_with_the_golden_response_bytes(split):
    """serve_tcp answers a v1 peer — one that writes the frame whole and
    one that writes preamble, header and body apart — byte for byte."""
    golden = _golden()
    service = _Scripted()

    async def run():
        server = await serve_tcp(service)
        host, port = server.sockets[0].getsockname()[:2]
        replies = []
        try:
            reader, writer = await asyncio.open_connection(host, port)
            for request, answer, _ in EXCHANGES:
                service.answer = answer
                frame = golden[request]
                for piece in [frame] if split == "whole" else _three_writes(frame):
                    writer.write(piece)
                    await writer.drain()
                    if split != "whole":
                        await asyncio.sleep(0.005)  # let each piece arrive alone
                replies.append(await _read_one_frame(reader))
            writer.close()
            return replies
        finally:
            server.close()
            await server.wait_closed()

    replies = asyncio.run(asyncio.wait_for(run(), 30))
    assert replies == [golden[reply] for _, _, reply in EXCHANGES]


if __name__ == "__main__":
    FRAMES.write_text(
        json.dumps({name: _emit(name).hex() for name in sorted(CASES)}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(CASES)} frames to {FRAMES}")
