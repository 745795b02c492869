"""Golden digests for the codec streams and the containers around them.

``codec_digests.json`` holds one SHA-256 per case over every stream the
case produces (length-prefixed) and every array decoded back from them.
The key coder, the multilevel operators and the ZFP block kernels may
be rewritten for speed; these digests are what "changing no stream byte
and no reconstructed bit" means.  Inputs are built from integers only
(no libm), so the digests do not depend on the platform's ``sin``/``exp``.

Regenerate (only when a stream change is intended, and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/golden/test_codec_golden.py
"""

from __future__ import annotations

import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import Config
from repro.adapters import get_adapter
from repro.cli import main as cli_main
from repro.compressors.baselines.lz4 import LZ4
from repro.compressors.baselines.sz import SZ
from repro.compressors.huffman import HuffmanX
from repro.compressors.mgard import MGARDX
from repro.compressors.zfp import ZFPX, ZFPAccuracy, ZFPEmbedded, ZFPPrecision
from repro.core.config import ErrorMode
from repro.core.streaming import StreamingCompressor, StreamingDecompressor
from repro.io.bp import BPFile
from repro.progressive.archive import make_retrieve_request, parse_retrieve_request
from repro.resilience.checkpoint import CheckpointManager

DIGESTS = Path(__file__).with_name("codec_digests.json")

#: 64^3 is the benchmark's shape; 33x17x9 mixes odd and even level
#: sizes; 1000 is 1-D with an appended last node on most levels; 5x7
#: has fewer than 64 values (one short chunk, a two-level hierarchy).
SHAPES = {"64c": (64, 64, 64), "odd3d": (33, 17, 9), "1k": (1000,), "tiny": (5, 7)}


def _field(shape: tuple[int, ...], dtype: str) -> np.ndarray:
    """Integer ramp + integer noise, scaled by a power of two."""
    rng = np.random.default_rng(len(shape) + 16)
    ramp = sum(
        (d + 3) * i for d, i in enumerate(np.indices(shape, dtype=np.int64))
    )
    noise = rng.integers(-(1 << 12), 1 << 12, size=shape)
    return ((ramp * 64 + noise) / 256.0).astype(dtype)


def _bell_keys(n: int, num_symbols: int, dtype: str) -> np.ndarray:
    """Sum of four uniform draws: a peaked histogram, codes of 3..16 bits."""
    rng = np.random.default_rng(n + num_symbols)
    return rng.integers(0, num_symbols // 4, size=(4, n)).sum(axis=0).astype(dtype)


def _fib_keys(dtype: str) -> np.ndarray:
    """Fibonacci frequencies: the unlimited tree is 24 deep, so the
    length limiter runs and the longest code is the full 16 bits."""
    fib = [1, 1]
    while len(fib) < 24:
        fib.append(fib[-1] + fib[-2])
    keys = np.repeat(np.arange(len(fib)), fib)
    return np.random.default_rng(24).permutation(keys).astype(dtype)


def _sha(streams, arrays) -> str:
    sha = hashlib.sha256()
    for blob in streams:
        sha.update(len(blob).to_bytes(8, "little"))
        sha.update(blob)
    for arr in arrays:
        sha.update(f"{arr.dtype.str}{arr.shape}".encode("ascii"))
        sha.update(np.ascontiguousarray(arr).tobytes())
    return sha.hexdigest()


def _hufx_bytes(data, **kwargs) -> str:
    """Byte API: single-shot and a batch of two different inputs."""
    codec = HuffmanX(**kwargs)
    other = data[::-1].copy()
    blobs = [codec.compress(data)] + codec.compress_batch([data, other])
    backs = [codec.decompress(blobs[0])] + codec.decompress_batch(blobs[1:])
    assert np.array_equal(backs[0], data)
    return _sha(blobs, backs)


def _hufx_keys(keys, num_symbols: int, **kwargs) -> str:
    """Key API: single-shot and a batch of two different inputs."""
    codec = HuffmanX(**kwargs)
    other = keys[::-1].copy()
    blobs = [codec.compress_keys(keys, num_symbols)]
    blobs += codec.compress_keys_batch([keys, other], num_symbols)
    backs = [codec.decompress_keys(blobs[0])]
    backs += codec.decompress_keys_batch(blobs[1:])
    assert np.array_equal(backs[0], keys)
    return _sha(blobs, backs)


def _hufp(data) -> str:
    """Two independently coded segments (``HUFP``, a container no writer
    produces any more), decoded on both adapters."""
    keys = data.reshape(-1).view(np.uint8)
    half = -(-keys.size // 2 // 1024) * 1024    # chunk-aligned, as written
    parts = [HuffmanX().compress_keys(k, 256) for k in (keys[:half], keys[half:])]
    dts = data.dtype.str.encode("ascii")
    blob = b"".join([
        struct.pack("<BH", len(dts), data.ndim), dts,
        struct.pack(f"<{data.ndim}q", *data.shape),
        b"HUFP", struct.pack("<BI", 1, 2),
        struct.pack("<2Q", *map(len, parts)), *parts,
    ])
    par = HuffmanX(adapter=get_adapter("openmp", num_threads=2))
    return _sha([blob], [par.decompress(blob), HuffmanX().decompress(blob)])


def _mgrx(data, mode: ErrorMode, coords=None) -> str:
    """MGARD-X: single-shot and a batch of two different inputs."""
    eb = 1e-2 if mode is ErrorMode.ABS else 1e-4
    codec = MGARDX(Config(error_bound=eb, error_mode=mode))
    other = (data * 0.5 + 1.0).astype(data.dtype)
    blobs = [codec.compress(data, coords=coords)]
    blobs += codec.compress_batch([data, other], coords=coords)
    backs = [codec.decompress(blobs[0], coords=coords)]
    backs += codec.decompress_batch(blobs[1:], coords=coords)
    return _sha(blobs, backs)


#: ZFP block shapes: 1-D to 4-D, none a multiple of 4 except the
#: benchmark's two (64^3 direct, 32x32 served tiles).
ZFP_SHAPES = {**SHAPES, "tile": (32, 32), "4d": (6, 5, 9, 7)}
#: 10 is the benchmark's rate, 5.3 leaves a partial last plane, 32
#: keeps all but a header's worth of an f4 block's bits.
ZFP_RATES = (2, 5.3, 8, 10, 16, 32)


def _zfp_special(dtype: str) -> np.ndarray:
    """Blocks a narrower working integer gets wrong: values at the top
    of the exponent range, alternating signs just under a power of two,
    denormals, zero blocks and blocks that are zero but for one value."""
    info = np.finfo(dtype)
    sign = np.where(np.indices((8, 8)).sum(axis=0) % 2, -1.0, 1.0)
    tiles = [
        sign * float(info.max),
        sign * np.nextafter(np.array(2.0, dtype), np.array(0.0, dtype)),
        sign * float(info.smallest_subnormal) * 5,
        np.zeros((8, 8)),
        np.pad([[float(info.tiny)]], ((3, 4), (2, 5))),
        sign * np.ldexp(1.0, np.arange(64).reshape(8, 8) - 30),
    ]
    return np.concatenate(tiles, axis=1).astype(dtype)


def _zfpx(data, rates=ZFP_RATES) -> str:
    """Fixed rate at every rate; the openmp adapter must agree."""
    blobs, backs = [], []
    threaded = get_adapter("openmp", num_threads=2)
    for rate in rates:
        blob = ZFPX(rate=rate).compress(data)
        assert ZFPX(rate=rate, adapter=threaded).compress(data) == blob
        blobs.append(blob)
        backs.append(ZFPX().decompress(blob))
        assert np.array_equal(ZFPX(adapter=threaded).decompress(blob), backs[-1])
    return _sha(blobs, backs)


def _zfpx_batch(data) -> str:
    """One launch over three same-shape inputs (the serving path)."""
    codec = ZFPX(rate=8)
    batch = [data, data[::-1].copy(), np.zeros_like(data)]
    blobs = codec.compress_batch(batch)
    assert blobs == [codec.compress(a) for a in batch]
    return _sha(blobs, codec.decompress_batch(blobs))


def _zfp_modes(data) -> str:
    """Fix-accuracy at three tolerances, fix-precision at three depths."""
    top = float(np.abs(data.astype(np.float64)).max()) or 1.0
    codecs = [ZFPAccuracy(tolerance=top * t) for t in (2.0**-4, 2.0**-11, 2.0**-20)]
    codecs += [ZFPPrecision(p) for p in (3, 13, 40)]
    blobs = [c.compress(data) for c in codecs]
    return _sha(blobs, [c.decompress(b) for c, b in zip(codecs, blobs)])


def _zfpe(data) -> str:
    """The embedded (group-testing) coder, a per-block Python loop."""
    blobs = [ZFPEmbedded(rate=r).compress(data) for r in (3, 9.5)]
    return _sha(blobs, [ZFPEmbedded().decompress(b) for b in blobs])


def _lz4x() -> str:
    """LZ4X: no sequence, literal-only, long runs (self-overlapping
    matches, length continuation bytes), short-period matches, an
    incompressible block, and the benchmark's stepped 64x64 tile."""
    rng = np.random.default_rng(44)
    tile = np.round(_field((64, 64), "f4") / 16.0).astype("f4")
    inputs = [
        b"", b"a", b"abcde", bytes(5000), b"abc" * 700,
        rng.integers(0, 256, size=3000).astype(np.uint8).tobytes(),
        rng.integers(0, 4, size=6000).astype(np.uint8).tobytes(),
        tile,
    ]
    codec = LZ4()
    blobs = [codec.compress(x) for x in inputs]
    return _sha(blobs, [codec.decompress(b) for b in blobs])


def _cusz(data) -> str:
    codec = SZ(Config(error_bound=1e-3, error_mode=ErrorMode.REL))
    blob = codec.compress(data)
    return _sha([blob], [codec.decompress(blob)])


def _hpdc(data) -> str:
    """Chunks of 8 rows, the last one short, in the legacy ``HPDC``
    chunk list (a container no writer produces any more)."""
    parts = [ZFPX(rate=8).compress(data[i : i + 8])
             for i in range(0, len(data), 8)]
    blob = b"".join([
        b"HPDC", struct.pack(f"<I{len(parts)}Q", len(parts), *map(len, parts)),
        *parts,
    ])
    return _sha([blob], [StreamingDecompressor(ZFPX(), blob).concatenate()])


def _hpst(data) -> str:
    stream = StreamingCompressor(HuffmanX())
    stream.extend([data[:16], data[16:], data[:1]])
    blob = stream.finalize()
    return _sha([blob], list(StreamingDecompressor(HuffmanX(), blob)))


def _bp5x(data) -> str:
    """One raw and one reduced variable."""
    bp = BPFile()
    bp.put("raw", data[0])
    bp.put("packed", data, operator="huffman-x")
    blob = bp.tobytes()
    back = BPFile.frombytes(blob)
    return _sha([blob], [back.get("raw"), back.get("packed")])


def _hpck(payload: bytes) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        manager = CheckpointManager(tmp)
        manager.write_chunk(3, payload)
        blob = manager.chunk_path(3).read_bytes()
        assert manager.read_chunk(3) == payload
    return _sha([blob], [])


def _hprq(archive: bytes) -> str:
    blobs = [
        make_retrieve_request(archive, eps=2.0**-10),
        make_retrieve_request(archive, resolution=2),
        make_retrieve_request(archive),
    ]
    assert [parse_retrieve_request(b) for b in blobs] == [
        (2.0**-10, None, archive), (None, 2, archive), (None, None, archive)
    ]
    return _sha(blobs, [])


def _hpdr(data) -> str:
    """The CLI's envelope around a ZFP-X stream."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        np.save(tmp / "in.npy", data)
        cli_main(["compress", str(tmp / "in.npy"), str(tmp / "out.hpdr"),
                  "--method", "zfp-x", "--rate", "8"])
        cli_main(["decompress", str(tmp / "out.hpdr"), str(tmp / "back.npy")])
        blob = (tmp / "out.hpdr").read_bytes()
        return _sha([blob], [np.load(tmp / "back.npy")])


def _container_cases() -> dict:
    """One stream per container format around the codecs."""
    f4, f8 = (_field(SHAPES["odd3d"], dtype) for dtype in ("f4", "f8"))
    payload = f4.tobytes()[:999]
    return {
        "cusz-f4-odd3d": (_cusz, (f4,), {}),
        "hpdc-f4-odd3d": (_hpdc, (f4,), {}),
        "hpst-f4-odd3d": (_hpst, (f4,), {}),
        "bp5x-f8-odd3d": (_bp5x, (f8,), {}),
        "hpck-999": (_hpck, (payload,), {}),
        "hprq-999": (_hprq, (payload,), {}),
        "hpdr-f4-odd3d": (_hpdr, (f4,), {}),
    }


def _zfp_cases() -> dict:
    cases = {}
    for dtype in ("f4", "f8"):
        for sname, shape in ZFP_SHAPES.items():
            field = _field(shape, dtype)
            cases[f"zfpx-{dtype}-{sname}"] = (_zfpx, (field,), {})
            if sname != "64c":
                cases[f"zfp-modes-{dtype}-{sname}"] = (_zfp_modes, (field,), {})
        special = _zfp_special(dtype)
        cases[f"zfpx-{dtype}-special"] = (_zfpx, (special,), {})
        cases[f"zfpx-{dtype}-special-1d"] = (_zfpx, (special.ravel(),), {})
        cases[f"zfp-modes-{dtype}-special"] = (_zfp_modes, (special,), {})
        cases[f"zfpe-{dtype}-special"] = (_zfpe, (special[:, 4:28],), {})
        cases[f"zfpx-{dtype}-zero"] = (_zfpx, (np.zeros((9, 6), dtype),), {})
        for sname in ("tile", "odd3d"):
            cases[f"zfpx-batch-{dtype}-{sname}"] = (
                _zfpx_batch, (_field(ZFP_SHAPES[sname], dtype),), {}
            )
        for sname, shape in (("1d", (37,)), ("tiny", (5, 7)), ("3d", (9, 6, 5)),
                             ("4d", (5, 4, 6, 5))):
            cases[f"zfpe-{dtype}-{sname}"] = (_zfpe, (_field(shape, dtype),), {})
    return cases


def _cases() -> dict:
    cases = {**_zfp_cases(), **_container_cases()}
    for dtype in ("f4", "f8"):
        for sname, shape in SHAPES.items():
            field = _field(shape, dtype)
            cases[f"hufx-bytes-{dtype}-{sname}"] = (_hufx_bytes, (field,), {})
            for mode in (ErrorMode.ABS, ErrorMode.REL):
                cases[f"mgrx-{dtype}-{sname}-{mode.value}"] = (
                    _mgrx, (field, mode), {}
                )
            if field.nbytes >= 1 << 20:     # two segments of >= 512 KB
                cases[f"hufp-{dtype}-{sname}"] = (_hufp, (field,), {})
    # Non-uniform node spacing exercises the coordinate-aware weights.
    nonuni = np.cumsum(1 + (np.arange(33) * 7) % 5).astype(np.float64)
    cases["mgrx-f8-nonuniform"] = (
        _mgrx, (_field((33, 16), "f8"), ErrorMode.ABS),
        {"coords": (nonuni, nonuni[:16].copy())},
    )
    # Key API: both dictionary sizes, several key dtypes; n = 100_003 is
    # not a multiple of any chunk, 40 keys fit one short chunk.
    for num_symbols in (256, 4096):
        for kdtype, n in (("i8", 100_003), ("i4", 5000), ("u2", 40)):
            cases[f"hufx-keys-{num_symbols}-{kdtype}-{n}"] = (
                _hufx_keys, (_bell_keys(n, num_symbols, kdtype), num_symbols), {}
            )
    cases["hufx-keys-fib16"] = (_hufx_keys, (_fib_keys("i8"), 256), {})
    cases["hufx-keys-one-symbol"] = (
        _hufx_keys, (np.full(3000, 7, dtype=np.int64), 256), {}
    )
    # chunk_size 300 is not a power of two: 8 codes per group do not
    # divide it, so the packer must fall back to a smaller group.  The
    # uniform draw keeps every code at 8 bits or fewer (largest group).
    uniform = np.random.default_rng(300).integers(0, 256, size=100_003)
    cases["hufx-keys-chunk300-uniform"] = (
        _hufx_keys, (uniform.astype(np.int64), 256), {"chunk_size": 300}
    )
    cases["hufx-keys-chunk300-bell"] = (
        _hufx_keys, (_bell_keys(100_003, 4096, "i8"), 4096), {"chunk_size": 300}
    )
    cases["lz4x-blocks"] = (_lz4x, (), {})
    cases["hufx-bytes-chunk300"] = (
        _hufx_bytes, (_field((40, 41, 7), "f8"),), {"chunk_size": 300}
    )
    return cases


CASES = _cases()


def _digest(name: str) -> str:
    fn, args, kwargs = CASES[name]
    return fn(*args, **kwargs)


# The ZFP "special" blocks sit at the top of the exponent range and
# decode to +-inf: that overflow is part of the pinned behaviour.
@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("name", sorted(CASES))
def test_codec_stream_unchanged(name):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert _digest(name) == want[name]


def test_digest_file_matches_case_matrix():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted(CASES)


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps({n: _digest(n) for n in sorted(CASES)}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(CASES)} digests to {DIGESTS}")
