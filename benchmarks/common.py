"""Shared benchmark helpers: measured compression ratios, result files.

Every bench regenerates one of the paper's tables/figures.  Absolute
numbers come from (a) really compressing scaled synthetic stand-ins of
the Table III datasets and (b) the calibrated discrete-event simulator;
each bench prints a paper-vs-measured table and saves it under
``benchmarks/results/``.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from repro import rate_for_error_bound
from repro.compressors import build_codec
from repro.data import load

RESULTS_DIR = Path(__file__).parent / "results"

#: scaled dataset shapes used throughout the benches (full sizes in the
#: paper; scale factors documented in EXPERIMENTS.md).
BENCH_SHAPES = {
    "nyx": (48, 48, 48),
    "e3sm": (24, 40, 80),
    "xgc": (2, 16, 256, 16),
}


def save_table(name: str, text: str) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


@functools.lru_cache(maxsize=None)
def bench_dataset(name: str, seed: int = 0) -> np.ndarray:
    return load(name, BENCH_SHAPES[name], seed=seed)


@functools.lru_cache(maxsize=None)
def measured_ratio(method: str, dataset: str, error_bound: float = 1e-2) -> float:
    """Real compression ratio of ``method`` (a codec-table name or one of
    the paper's baseline tags) on a scaled dataset; ZFP takes the rate
    that meets ``error_bound``."""
    data = bench_dataset(dataset)
    comp = build_codec(method, {
        "error_bound": error_bound,
        "rate": rate_for_error_bound(error_bound, data.dtype, data.ndim),
    })
    return data.nbytes / len(comp.compress(data))


def fresh_device(processor: str = "V100"):
    from repro.machine.device import SimDevice
    from repro.machine.engine import Simulator

    sim = Simulator()
    return SimDevice(sim, processor), sim
