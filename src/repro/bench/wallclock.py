"""Wall-clock throughput measurement for the real codec hot paths.

Unlike :mod:`repro.bench.methods` (calibrated *simulated* profiles used
to regenerate the paper's figures), this module times the actual Python
implementation: MB/s per codec end to end, plus MGARD-X's per-stage
breakdown (decompose / quantize / encode / serialize) on the scaled
``nyx`` bench dataset.  ``benchmarks/bench_wallclock.py`` writes the
numbers to ``BENCH_wallclock.json`` and ``scripts/perf_gate.py`` fails
CI on wall-clock regressions against that committed record.
"""

from __future__ import annotations

import platform
import time
from typing import Callable

import numpy as np

BENCH_DATASET = "nyx"
BENCH_SHAPE = (48, 48, 48)

#: Pre-refactor throughputs (MB/s) on this harness and dataset, measured
#: at the commit before the zero-alloc/vectorization work.  They are the
#: denominators of the speedup columns reported by the bench script.
BASELINE = {
    "huffman": {"compress_MBps": 6.49, "decompress_MBps": 7.70},
    "mgard": {"compress_MBps": 13.39, "decompress_MBps": 9.94},
    "zfp": {"compress_MBps": 67.49, "decompress_MBps": 23.92},
}


def bench_data() -> np.ndarray:
    from repro.data import load

    return load(BENCH_DATASET, BENCH_SHAPE).astype(np.float32)


def _best_seconds(fn: Callable[[], object], reps: int) -> float:
    """Minimum wall-clock seconds over ``reps`` runs (after the caller's
    warm-up call primed the CMM contexts)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _make_codec(name: str, adapter=None):
    from repro import Config, ErrorMode, HuffmanX, MGARDX, ZFPX

    if name == "huffman":
        return HuffmanX(adapter=adapter)
    if name == "mgard":
        return MGARDX(
            Config(error_bound=1e-3, error_mode=ErrorMode.REL), adapter=adapter
        )
    if name == "zfp":
        return ZFPX(rate=10, adapter=adapter)
    raise KeyError(f"unknown codec {name!r}")


def measure_codec(name: str, data: np.ndarray, reps: int = 3, adapter=None) -> dict:
    """End-to-end MB/s for one codec (warm CMM steady state)."""
    codec = _make_codec(name, adapter)
    blob = codec.compress(data)  # warm-up: populate contexts
    t_comp = _best_seconds(lambda: codec.compress(data), reps)
    codec.decompress(blob)
    t_dec = _best_seconds(lambda: codec.decompress(blob), reps)
    mb = data.nbytes / 1e6
    return {
        "compress_MBps": round(mb / t_comp, 2),
        "decompress_MBps": round(mb / t_dec, 2),
        "ratio": round(data.nbytes / len(blob), 2),
    }


def measure_mgard_stages(data: np.ndarray, reps: int = 3) -> dict:
    """MGARD-X compression stage breakdown (seconds, min over reps)."""
    from repro import Config, ErrorMode, MGARDX
    from repro.compressors.mgard.decompose import decompose
    from repro.compressors.mgard.quantize import (
        level_bins,
        quantize_levels,
        to_symbols,
    )

    c = MGARDX(Config(error_bound=1e-3, error_mode=ErrorMode.REL))
    abs_eb = c.config.absolute_bound(data)
    ctx, hierarchy, factors = c._context(data.shape, data.dtype, None)

    def _decompose():
        return decompose(
            data, hierarchy, adapter=None, factors_per_level=factors, ctx=ctx
        )

    coeffs, coarsest = _decompose()  # warm-up
    groups = coeffs + [coarsest.reshape(-1)]
    bins = level_bins(abs_eb, len(groups), c.kappa, s=c.s)

    def _quantize():
        qgroups = quantize_levels(groups, bins)
        qflat = np.concatenate([q.reshape(-1) for q in qgroups])
        return to_symbols(qflat, c.dict_size)

    symbols, outliers = _quantize()
    keys = symbols.astype(np.int64)

    def _encode():
        return c._huffman.compress_keys(keys, c.dict_size)

    payload = _encode()  # warm-up

    def _serialize():
        return c._serialize_stream(
            data.dtype, data.shape, abs_eb, c.kappa, bins, outliers, payload
        )

    stages = {
        "decompose_s": _best_seconds(_decompose, reps),
        "quantize_s": _best_seconds(_quantize, reps),
        "encode_s": _best_seconds(_encode, reps),
        "serialize_s": _best_seconds(_serialize, reps),
    }
    return {k: round(v, 5) for k, v in stages.items()}


def measure_all(reps: int = 3) -> dict:
    """The full wall-clock record written to ``BENCH_wallclock.json``."""
    data = bench_data()
    current: dict = {}
    for name in ("huffman", "mgard", "zfp"):
        current[name] = measure_codec(name, data, reps=reps)
    current["mgard_stages"] = measure_mgard_stages(data, reps=reps)
    return {
        "dataset": BENCH_DATASET,
        "shape": list(BENCH_SHAPE),
        "dtype": "float32",
        "megabytes": round(data.nbytes / 1e6, 3),
        "reps": reps,
        "python": platform.python_version(),
        "baseline": BASELINE,
        "current": current,
    }


def trace_run(out_path, threads: int | None = None):
    """One traced compress+decompress per codec, exported as Chrome JSON.

    Runs *after* (and separately from) the timed reps so the published
    throughput numbers never include tracing overhead; the artifact it
    writes is what CI archives next to ``BENCH_fresh.json``.  Returns
    the written path.
    """
    import repro.trace as trace
    from repro.adapters import get_adapter

    data = bench_data()
    omp = get_adapter("openmp", num_threads=threads or 4)
    was_enabled = trace.enabled()
    trace.enable(clear=True)
    try:
        for name in ("huffman", "mgard", "zfp"):
            codec = _make_codec(name, adapter=omp)
            codec.decompress(codec.compress(data))
        return trace.export_chrome(out_path)
    finally:
        if not was_enabled:
            trace.disable()


def speedups(record: dict) -> dict:
    """``current / baseline`` ratios for the codecs with baselines."""
    out = {}
    for name, base in record["baseline"].items():
        cur = record["current"].get(name)
        if not cur:
            continue
        out[name] = {
            metric: round(cur[metric] / base[metric], 2)
            for metric in ("compress_MBps", "decompress_MBps")
        }
    return out
