#!/usr/bin/env python3
"""HPDR end-to-end benchmark driver.

    python3 benchmarks/e2e/run.py [--seed N] [--rounds R] [--trace] [--smoke] [--out FILE]
        the suite: every workload, R interleaved rounds, each round a
        fresh process; prints every metric by name with its unit.
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one round in this process; the last line of stdout is one JSON
        object {correct, attempted, failed, metrics}.

Metric names, units, directions and bounds live in ../../BENCHMARK.json;
README.md says what each means and which layer should move which.
"""

import time

T0 = time.perf_counter()        # process start, for setup_s

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: set-ups per round (this process plus setup-only children); the
#: median is reported so one slow start does not set ``setup_s``.
SETUP_REPS = 3
#: reported by the suite beside the gated end-to-end metrics.
UNGATED = {"max_err_frac": "ratio", "failed_frac": "ratio"}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def hermetic_env() -> None:
    """No inherited tracing, sanitizing or learned tuning, and no heap
    thresholds that depend on allocation history: a round measures the
    code, not the caller's shell or the order of its own ``free`` calls.

    glibc moves its trim and mmap thresholds whenever a large block is
    freed, and where they land decides whether the served path gives
    its heap back to the kernel and faults it in again on every batch:
    the same commit ran ``served_small`` at 3.8 or at 2.9 ms, flipping
    between runs and inside one.  Fixed at their ceilings, every round
    runs in the fast regime; what heap churn costs the program under the
    default thresholds is therefore not measured here.
    """
    libc = ctypes.CDLL(None)
    m_trim_threshold, m_mmap_threshold = -1, -3
    if not (libc.mallopt(m_trim_threshold, 1 << 30)
            and libc.mallopt(m_mmap_threshold, 32 << 20)):
        sys.exit("mallopt refused the heap thresholds")
    os.environ.pop("HPDR_TRACE", None)
    os.environ.pop("HPDR_SAN", None)
    OUT.mkdir(exist_ok=True)
    empty = OUT / "tune-cache-empty.json"
    empty.write_bytes(b"")
    os.environ["HPDR_TUNE_CACHE"] = str(empty)


def child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          capture_output=True, text=True, timeout=170)


class Round:
    """What a workload sees of the driver: how long to measure, whether
    to trace, where to put files, and when set-up ended."""

    def __init__(self, seconds: float, setup_only: bool, scratch: Path,
                 started: float, startup_s: float) -> None:
        self.seconds = seconds
        self.setup_only = setup_only
        self.scratch = scratch
        self._started = started
        self._startup_s = startup_s
        self.setup_s = 0.0

    def ready(self) -> None:
        self.setup_s = self._startup_s + time.perf_counter() - self._started


# ---------------------------------------------------------------------------
def run_round(args, startup_s: float) -> int:
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"unknown workload {args.workload!r}")
    hermetic_env()
    t0 = time.perf_counter()
    from meter import pin_to_fastest_cpu
    cpu = pin_to_fastest_cpu()      # inherited by the set-up children below
    startup_s += time.perf_counter() - t0
    setups = []
    if not (args.setup_only or args.smoke):
        base = ["--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
        for _ in range(SETUP_REPS - 1):
            done = child(base)
            if done.returncode != 0:
                sys.exit(f"set-up child failed:\n{done.stderr}")
            setups.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Recorder
    from workloads import WORKLOADS

    scratch = OUT / f"tmp.{os.getpid()}"
    scratch.mkdir(parents=True)
    rnd = Round(args.seconds, args.setup_only, scratch, started, startup_s)
    rec = Recorder() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, rec)
    try:
        outcome = workload.execute(rnd)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.setup_only:
        print(json.dumps({"setup_s": rnd.setup_s}))
        return 0
    setups.append(rnd.setup_s)

    meter = outcome["meter"]
    ledger = workload.ledger
    host = {"host.calib_ms": meter.pace_ms(),
            "host.calib_drift_frac": meter.pace_drift_frac()}
    values = {
        "setup_s": median(setups),
        "goodput_MBps": meter.goodput_MBps(),
        "lat_p50_ms": meter.lat_ms(50),
        "lat_p90_ms": meter.lat_ms(90),
        "stored_frac": workload.stored_frac(),
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "max_err_frac": ledger.max_err_frac,
        "failed_frac": meter.failed / meter.attempted,
    }
    if args.trace:
        layers = outcome["layers"]
        layers.update(host)
        layers["data.generate_s"] = workload.generate_s
        layers["trace.overhead_frac"] = \
            1.0 - meter.goodput_MBps() / layers.pop("trace.plain_MBps")
        layers["trace.residual_frac"] = \
            1.0 - rec.root_total() / (workload.lanes * meter.wall_s)
        layers["max_err_frac"] = values["max_err_frac"]
        layers["failed_frac"] = values["failed_frac"]
        declared = spec["per_layer"]
        unknown = set(layers) - {m["name"] for m in declared}
        if unknown:
            sys.exit(f"layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # A layer that is not on this workload's path reads 0.
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in declared}
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        rec.write_chrome(trace_path, workload.lanes,
                         {"workload": args.workload, "seed": args.seed})
        print(f"# chrome trace: {trace_path.relative_to(ROOT)}")
        if layers["trace.residual_frac"] > 0.10:
            print(f"# WARNING trace.residual_frac "
                  f"{layers['trace.residual_frac']:.3f} > 0.10", file=sys.stderr)
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    correct = meter.failed == 0
    record = {
        "schema": "hpdr-e2e/1", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": {**environment(), "pinned_cpu": cpu},
        "correct": correct, "attempted": meter.attempted, "failed": meter.failed,
        "samples": len(meter.lat), "first_error": workload.first_error,
        "stream_digest": f"{ledger.digest:016x}",
        "metrics": {**metrics, **{k: {"value": values[k], "unit": u}
                                  for k, u in UNGATED.items()}},
        "host": host, "raw": meter.raw(),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    print(f"# {args.workload} seed={args.seed} ops={meter.attempted} "
          f"failed={meter.failed} digest={record['stream_digest']}")
    for name, m in record["metrics"].items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    print("# uncorrected (wall clock): " + "  ".join(
        f"{k} {v:.6g}" for k, v in record["raw"].items())
        + f"  host pace {host['host.calib_ms']:.3f} ms")
    if not correct:
        print(f"# FAILED: {workload.first_error}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": meter.attempted,
                      "failed": meter.failed, "metrics": metrics}))
    return 0 if correct else 1


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
def run_suite(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    rounds = 1 if args.smoke else args.rounds
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"suite.{os.getpid()}.json"

    def one(name: str, trace: int) -> dict:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(trace), "--out", str(scratch)]
        done = child(argv + (["--smoke"] if args.smoke else []))
        if not scratch.exists():
            sys.exit(f"{name} round crashed:\n{done.stdout}\n{done.stderr}")
        record = json.loads(scratch.read_text())
        scratch.unlink()
        if done.returncode != 0:
            print(f"!! {name}: {record['failed']} of {record['attempted']} ops "
                  f"failed: {record['first_error']}", file=sys.stderr)
        return record

    # Interleaved (A B C D A B C D ...): a slow phase of the shared host
    # lands on every workload, not on one.
    plain: dict[str, list[dict]] = {n: [] for n in names}
    for r in range(rounds):
        for name in names:
            print(f"# round {r + 1}/{rounds} {name}", file=sys.stderr)
            plain[name].append(one(name, 0))
    traced = {name: one(name, 1) for name in names} if args.trace else {}

    suite = {"schema": "hpdr-e2e/1", "seed": args.seed, "seconds": args.seconds,
             "rounds": rounds, "commit": git_commit(),
             "env": plain[names[0]][0]["env"], "workloads": {}}
    ok = True
    for name in names:
        recs = plain[name]
        metrics = {}
        for metric, first in recs[0]["metrics"].items():
            per_round = [r["metrics"][metric]["value"] for r in recs]
            metrics[metric] = {"median": median(per_round), "min": min(per_round),
                               "max": max(per_round), "unit": first["unit"],
                               "rounds": per_round}
        digests = {r["stream_digest"] for r in recs}
        entry = {
            "metrics": metrics,
            "samples": sum(r["samples"] for r in recs),
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "stream_digest": recs[0]["stream_digest"] if len(digests) == 1 else "UNSTABLE",
            "calib_ms": median(r["host"]["host.calib_ms"] for r in recs),
        }
        if name in traced:
            entry["layers"] = traced[name]["metrics"]
            ok &= traced[name]["correct"]
        ok &= entry["failed"] == 0 and len(digests) == 1
        suite["workloads"][name] = entry
    print_suite(suite)
    if args.out:
        Path(args.out).write_text(json.dumps(suite, indent=1))
    return 0 if ok else 1


def print_suite(suite: dict) -> None:
    env = suite["env"]
    print(f"# hpdr e2e  seed={suite['seed']} rounds={suite['rounds']} "
          f"seconds={suite['seconds']} commit={suite['commit'][:12]} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']}")
    for name, entry in suite["workloads"].items():
        print(f"\n## {name}  ops={entry['attempted']} failed={entry['failed']} "
              f"samples={entry['samples']} digest={entry['stream_digest']} "
              f"calib_ms={entry['calib_ms']:.3f}")
        print(f"{'metric':28s} {'median':>14s} {'min':>14s} {'max':>14s} unit")
        for metric, m in entry["metrics"].items():
            print(f"{metric:28s} {m['median']:14.6g} {m['min']:14.6g} "
                  f"{m['max']:14.6g} {m['unit']}")
        for metric, m in entry.get("layers", {}).items():
            if m["value"]:
                print(f"  {metric:26s} {m['value']:14.6g} {m['unit']}")


# ---------------------------------------------------------------------------
def main() -> int:
    startup_s = time.perf_counter() - T0
    spec_seconds = load_spec()["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one round of this workload in-process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec_seconds),
                    help="measured window per round")
    ap.add_argument("--rounds", type=int, default=3, help="suite rounds per workload")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                    help="per-layer metrics and a Chrome trace instead of end-to-end")
    ap.add_argument("--smoke", action="store_true",
                    help="one short round, one set-up: a functional check, not a measurement")
    ap.add_argument("--out", help="write the full record here")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    if args.workload:
        return run_round(args, startup_s)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
