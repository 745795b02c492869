"""Golden digests for the progressive writer and reader.

``progressive_digests.json`` holds one SHA-256 per case over the index
JSON (every recorded ``error_bound``), every segment's bytes and the
reconstruction of **every** prefix.  The writer measures each prefix by
reconstructing it, so any change to how it gets there — a skipped
level, a carried state, a reordered sum — has to leave these digests
alone.  Inputs are built from integers only (no libm), so the digests
do not depend on the platform's ``sin``/``exp``.

Regenerate (only when a stream change is intended, and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/golden/test_progressive_golden.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro import Config, ProgressiveMGARD
from repro.core.config import ErrorMode

DIGESTS = Path(__file__).with_name("progressive_digests.json")

SHAPES = {"1d": (33,), "2d": (14, 18), "3d": (48, 48, 45), "4d": (5, 6, 7, 4)}
PLANES = ((8, 3), (4, 6), (16, 1))


def _field(shape: tuple[int, ...], dtype: str) -> np.ndarray:
    """Integer ramp + integer noise, scaled by a power of two."""
    rng = np.random.default_rng(len(shape))
    ramp = sum(
        (d + 3) * i for d, i in enumerate(np.indices(shape, dtype=np.int64))
    )
    noise = rng.integers(-(1 << 12), 1 << 12, size=shape)
    return ((ramp * 64 + noise) / 256.0).astype(dtype)


def _cases() -> dict[str, tuple[np.ndarray, Config, int, int]]:
    cases = {}
    for dtype, (sname, shape), mode, (bits, planes) in itertools.product(
        ("f4", "f8"), SHAPES.items(), (ErrorMode.ABS, ErrorMode.REL), PLANES
    ):
        eb = 1e-2 if mode is ErrorMode.ABS else 1e-4
        cases[f"{dtype}-{sname}-{mode.value}-b{bits}p{planes}"] = (
            _field(shape, dtype), Config(error_bound=eb, error_mode=mode),
            bits, planes,
        )
    cases["constant"] = (
        np.full((9, 11), 3.25, dtype=np.float32), Config(error_bound=1e-3), 8, 3
    )
    negzero = _field((14, 18), "f8")
    negzero[::3, ::2] = -0.0
    negzero[5:9] = 0.0
    cases["negzero"] = (negzero, Config(error_bound=1e-3), 8, 3)
    return cases


CASES = _cases()


def _digest(data: np.ndarray, config: Config, bits: int, planes: int) -> str:
    codec = ProgressiveMGARD(config, bits_per_plane=bits, max_planes=planes)
    index, segments = codec.refactor(data)
    sha = hashlib.sha256(
        json.dumps(index.to_json(), sort_keys=True).encode("utf-8")
    )
    for seg in segments:
        sha.update(len(seg).to_bytes(8, "little"))
        sha.update(seg)
    for k in range(1, len(segments) + 1):
        sha.update(codec.reconstruct(index, segments[:k]).tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_progressive_stream_unchanged(name):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert _digest(*CASES[name]) == want[name]


def test_digest_file_matches_case_matrix():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted(CASES)


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps({n: _digest(*c) for n, c in sorted(CASES.items())}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(CASES)} digests to {DIGESTS}")
