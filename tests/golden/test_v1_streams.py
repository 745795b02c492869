"""``HUFX`` version-1 streams stay readable.

``v1/`` holds files written when ``HUFX`` was at version 1 (a uint64
bit offset per chunk, chunks of at least 256 keys): ``repro compress``
envelopes of a Huffman-X, an MGARD-X and an SZ stream (``--eb 1e-3``)
and a ``repro refactor`` archive, each on the golden ``tiny``/``1k``/
``odd3d`` float32 fields, plus two bare key streams of 1,000 keys (one
cut at 64-key chunks, one at the default).  ``v1/digests.json`` holds
each decoded array's dtype, shape and the SHA-256 of its bytes.  Nothing
writes version 1 any more, so the files are never regenerated.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import HuffmanX, ProgressiveRetriever
from repro.adapters import get_adapter
from repro.cli import _open_envelope, main
from repro.compressors import build_codec
from repro.progressive import parse_archive_index
from repro.progressive.archive import slice_segments
from repro.progressive.segments import (
    decode_segment,
    decode_segments,
    encode_segment,
)

V1 = Path(__file__).with_name("v1")
DIGESTS = json.loads((V1 / "digests.json").read_text(encoding="utf-8"))
#: the 1,000 keys both bare key streams hold
KEYS = np.random.default_rng(64).integers(0, 4, size=(2, 1000)).sum(axis=0)


@pytest.fixture(scope="module", params=["serial", "openmp"])
def adapter(request):
    if request.param == "serial":
        yield get_adapter("serial")
        return
    threaded = get_adapter("openmp", num_threads=2)
    # Partition every launch, however small (the floor keeps test-sized
    # launches on the caller's thread).
    getattr(threaded, "inner", threaded).FANOUT_FLOOR = 0
    yield threaded
    threaded.close()


def _decode(path: Path, adapter) -> np.ndarray:
    blob = path.read_bytes()
    if path.suffix == ".hpgx":
        return ProgressiveRetriever(adapter=adapter).retrieve(blob)[0]
    if path.suffix == ".bin":
        return HuffmanX(adapter=adapter).decompress_keys(blob)
    method, payload = _open_envelope(blob)
    return build_codec(method, {}, adapter).decompress(payload)


def _matches(name: str, array: np.ndarray) -> bool:
    want = DIGESTS[name]
    return (array.dtype.str == want["dtype"]
            and list(array.shape) == want["shape"]
            and hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
            == want["sha256"])


def test_every_file_has_a_digest():
    files = sorted(p.name for p in V1.iterdir() if p.name != "digests.json")
    assert files == sorted(DIGESTS)
    assert all(f.read_bytes().count(b"HUFX\x01") for f in map(V1.joinpath, files))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_v1_file_decodes_to_its_digest(name, adapter):
    assert _matches(name, _decode(V1 / name, adapter))


@pytest.mark.parametrize("method", ["hufx", "mgrx"])
def test_cli_decompresses_a_v1_envelope(method, tmp_path, capsys):
    name = f"{method}-f4-odd3d.hpdr"
    out = tmp_path / "back.npy"
    assert main(["decompress", str(V1 / name), str(out)]) == 0
    assert _matches(name, np.load(out))


def test_a_batch_mixing_v1_and_v2_streams_decodes_each():
    """A version-1 and a version-2 stream cut at the same chunk share
    one fused decode: both hold the chunk offsets the lanes start at."""
    v1 = (V1 / "hufx-keys-chunk64.bin").read_bytes()
    codec = HuffmanX()
    v2 = codec.compress_keys(KEYS, 8)
    assert codec._deserialize(v1)[7] == codec._deserialize(v2)[7] == 64
    for got in codec.decompress_keys_batch([v1, v2, v1]):
        assert np.array_equal(got, KEYS)


def test_a_run_mixing_v1_and_v2_segments_falls_back_per_segment():
    """A version-2 plane beside a version-1 plane of the same group has
    other chunking, so the key coder will not fuse the run; the run is
    decoded one segment at a time, each as it decodes alone."""
    archive = (V1 / "hpgx-f4-odd3d.hpgx").read_bytes()
    index, base = parse_archive_index(archive)
    segments = [bytes(s) for s in slice_segments(archive, base, index.records)]
    records = index.records
    first = next(i for i in reversed(range(len(records) - 1))
                 if records[i].group == records[i + 1].group)   # finest run
    group, shift, plane = decode_segment(segments[first], HuffmanX())
    mixed = list(segments)
    mixed[first] = encode_segment(group, shift, plane, HuffmanX(), index.dict_size)
    keys = [blob[blob.index(b"HUFX"):] for blob in mixed[first : first + 2]]
    assert [k[4] for k in keys] == [2, 1]
    with pytest.raises(ValueError, match="uniform stream geometry"):
        HuffmanX().decompress_keys_batch(keys)
    for (g1, s1, p1), (g2, s2, p2) in zip(
        decode_segments(mixed, HuffmanX()), decode_segments(segments, HuffmanX())
    ):
        assert (g1, s1) == (g2, s2) and np.array_equal(p1, p2)
