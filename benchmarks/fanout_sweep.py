"""What a hand-off costs: inline vs fan-out on ``openmp(2)``, by launch size.

The sweep behind ``OpenMPAdapter.FANOUT_FLOOR`` (DESIGN.md section 3.1).
For launch sizes 16 KB … 8 MB it times one ``execute_group_batch`` call
run on the caller's thread (floor above every size) against the same
call split over the two pool threads (floor 0), for a kernel that
releases the GIL — the Huffman encode gather — and one that mostly holds
it — the Thomas sweep.  Run it on two *unpinned* CPUs::

    python benchmarks/fanout_sweep.py

The floor is the smallest power of two per chunk at which fan-out is no
slower for the GIL-releasing kernel; a launch fans out from twice that.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.adapters.openmp import OpenMPAdapter  # noqa: E402
from repro.compressors.huffman.compressor import _EncodeFunctor  # noqa: E402
from repro.compressors.mgard.ops1d import TridiagFactors  # noqa: E402
from repro.core.abstractions import _GroupedIterative  # noqa: E402

SIZES = [16 * 1024 << k for k in range(10)]    # 16 KB … 8 MB
SECONDS_PER_CELL = 0.4


def _kernels(rng):
    lengths = rng.integers(1, 12, size=4096).astype(np.uint8)
    codes = rng.integers(0, 1 << 11, size=4096).astype(np.uint32)
    n = 32
    factors = TridiagFactors.from_coords(np.linspace(0.0, 1.0, n))

    def keys(nbytes):      # (chunks, 1024) int64 symbols
        return rng.integers(0, 4096, size=(nbytes // 8192, 1024))

    def vectors(nbytes):   # (groups, 32 vectors, 32 nodes) float64
        return rng.normal(size=(nbytes // (32 * n * 8), 32, n))

    return (
        ("huffman.encode", _EncodeFunctor(codes, lengths), keys),
        ("mgard.tridiag", _GroupedIterative(factors._sweeps), vectors),
    )


def _time(adapter, functor, batch) -> float:
    t0 = time.perf_counter()
    adapter.execute_group_batch(functor, batch)
    return time.perf_counter() - t0


def main() -> None:
    rng = np.random.default_rng(0)
    inline, fanned = OpenMPAdapter(num_threads=2), OpenMPAdapter(num_threads=2)
    inline.FANOUT_FLOOR = 1 << 62
    fanned.FANOUT_FLOOR = 0
    print("| kernel | launch | inline µs | fan-out µs | fan-out / inline | reps |")
    print("|---|---:|---:|---:|---:|---:|")
    try:
        for name, functor, make in _kernels(rng):
            for nbytes in SIZES:
                batch = make(nbytes)
                a, b = [], []
                sides = [(inline, a), (fanned, b)]
                deadline = time.perf_counter() + 2 * SECONDS_PER_CELL
                while len(a) < 15 or time.perf_counter() < deadline:
                    for adapter, out in sides:
                        out.append(_time(adapter, functor, batch))
                    sides.reverse()     # alternate which side runs first
                ta, tb = median(a) * 1e6, median(b) * 1e6
                print(f"| {name} | {nbytes >> 10} KB | {ta:.0f} | {tb:.0f} "
                      f"| {tb / ta:.2f} | {len(a)} |")
    finally:
        inline.close()
        fanned.close()


if __name__ == "__main__":
    main()
