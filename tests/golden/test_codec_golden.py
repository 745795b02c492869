"""Golden digests for the Huffman-X and MGARD-X streams.

``codec_digests.json`` holds one SHA-256 per case over every stream the
case produces (length-prefixed) and every array decoded back from them.
The key coder and the multilevel operators may be rewritten for speed;
these digests are what "changing no stream byte and no reconstructed
bit" means.  Inputs are built from integers only (no libm), so the
digests do not depend on the platform's ``sin``/``exp``.

Regenerate (only when a stream change is intended, and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/golden/test_codec_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import Config
from repro.adapters import get_adapter
from repro.compressors.huffman import HuffmanX
from repro.compressors.mgard import MGARDX
from repro.core.config import ErrorMode

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
    """Two independently coded segments (``HUFP``), decoded on both adapters."""
    par = HuffmanX(adapter=get_adapter("openmp", num_threads=2))
    blob = par.compress(data)
    assert b"HUFP" in blob[:64]
    assert int.from_bytes(blob[blob.index(b"HUFP") + 5:][:4], "little") == 2
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


def _cases() -> dict:
    cases = {}
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
    cases["hufx-bytes-chunk300"] = (
        _hufx_bytes, (_field((40, 41, 7), "f8"),), {"chunk_size": 300}
    )
    return cases


CASES = _cases()


def _digest(name: str) -> str:
    fn, args, kwargs = CASES[name]
    return fn(*args, **kwargs)


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
