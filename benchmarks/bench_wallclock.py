"""Wall-clock throughput benchmark (real implementation, not simulated).

Times HuffmanX / MGARD-X / ZFP-X end to end on the scaled ``nyx`` bench
dataset and writes ``BENCH_wallclock.json`` at the repo root — the
record ``scripts/perf_gate.py`` gates CI against.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py           # full run
    PYTHONPATH=src python benchmarks/bench_wallclock.py --smoke   # 1 rep, CI
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_wallclock.json"


def main(argv: list[str] | None = None) -> int:
    from repro.bench.wallclock import measure_all, speedups

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="single rep per measurement (fast CI smoke run)")
    ap.add_argument("--reps", type=int, default=5,
                    help="timing repetitions (min is reported)")
    ap.add_argument("--threads", type=int, default=None,
                    help="openmp adapter thread count of the --trace run")
    ap.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                    help=f"output JSON path (default {DEFAULT_OUT})")
    ap.add_argument("--trace", type=pathlib.Path, default=None,
                    metavar="OUT.json",
                    help="after timing, run each codec once traced and "
                         "write Chrome trace-event JSON (the timed reps "
                         "are never traced)")
    args = ap.parse_args(argv)

    reps = 1 if args.smoke else args.reps
    record = measure_all(reps=reps)
    args.out.write_text(json.dumps(record, indent=2) + "\n")

    cur = record["current"]
    print(f"nyx {record['shape']} float32, {record['megabytes']} MB, "
          f"min of {reps} rep(s)\n")
    print(f"{'codec':<16} {'comp MB/s':>10} {'dec MB/s':>10} {'ratio':>7}")
    for name in ("huffman", "mgard", "zfp"):
        r = cur[name]
        print(f"{name:<16} {r['compress_MBps']:>10.2f} "
              f"{r['decompress_MBps']:>10.2f} {r['ratio']:>7.2f}")
    print("\nspeedup vs pre-refactor baseline:")
    for name, s in speedups(record).items():
        print(f"  {name:<10} compress {s['compress_MBps']:.2f}x   "
              f"decompress {s['decompress_MBps']:.2f}x")
    st = cur["mgard_stages"]
    total = sum(st.values()) or 1.0
    print("\nmgard compress stages:")
    for stage, secs in st.items():
        print(f"  {stage:<14} {secs * 1e3:8.2f} ms  ({100 * secs / total:4.1f}%)")
    print(f"\nwrote {args.out}")
    if args.trace is not None:
        from repro.bench.wallclock import trace_run

        path = trace_run(args.trace, threads=args.threads)
        print(f"wrote {path} (chrome://tracing / Perfetto)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
