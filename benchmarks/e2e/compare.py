#!/usr/bin/env python3
"""Compare two suite records written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json      (A = parent, B = change)

One row per (end-to-end metric, workload).  Directions and bounds are
read from ``BENCHMARK.json``.

    better      B beats A by more than the bound (or, where the runs are
                too noisy to resolve, every round of B beats every round
                of A)
    within      B is no worse than A by more than the bound
    worse       B is worse than A by more than the bound   (exit code 1)
    unresolved  the rounds of A or of B spread wider than the bound, or,
                for ``setup_s``, which is not corrected for the host's
                pace, the two sets saw different hosts
                (``host.calib_ms`` apart by more than 10 %): neither
                "same" nor "slower" can be read from these runs

A changed ``stream_digest`` is printed: the stored bytes differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: a pace kernel this far apart means the host changed between sets ...
CALIB_TOLERANCE = 0.10
#: ... which leaves unreadable the timings ``meter.Meter`` does not
#: correct for the host's pace.
UNCORRECTED = {"setup_s"}


def spread(entry: dict) -> float:
    """Full range of the rounds as a share of their median."""
    return (entry["max"] - entry["min"]) / entry["median"] if entry["median"] else 0.0


def worsening(a: float, b: float, better: str) -> float:
    """Signed share of A by which B is worse (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / a if better == "lower" else (a - b) / a


def separated(a: dict, b: dict, better: str) -> bool:
    """Every round of B reads better than every round of A."""
    if better == "lower":
        return max(b["rounds"]) < min(a["rounds"])
    return min(b["rounds"]) > max(a["rounds"])


def verdict(metric: dict, a: dict, b: dict, host_moved: bool) -> tuple[str, float]:
    better, bound = metric["better"], metric["bound"]
    change = worsening(a["median"], b["median"], better)
    noisy = max(spread(a), spread(b)) > bound
    if noisy or (host_moved and metric["name"] in UNCORRECTED):
        # Too noisy to call "same" or "slower"; a clean sweep still counts.
        return ("better" if separated(a, b, better) else "unresolved"), change
    if change > bound:
        return "worse", change
    return ("better" if change < -bound else "within"), change


def compare(spec: dict, rec_a: dict, rec_b: dict) -> tuple[list[tuple], list[str]]:
    rows, notes = [], []
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = rec_a["workloads"].get(workload), rec_b["workloads"].get(workload)
        if wa is None or wb is None:
            notes.append(f"{workload}: missing from one record")
            continue
        host_moved = abs(wb["calib_ms"] - wa["calib_ms"]) / wa["calib_ms"] > CALIB_TOLERANCE
        if host_moved:
            notes.append(f"{workload}: host.calib_ms {wa['calib_ms']:.2f} -> "
                         f"{wb['calib_ms']:.2f} ms, setup_s unresolved")
        if wa["stream_digest"] != wb["stream_digest"]:
            notes.append(f"{workload}: stream_digest {wa['stream_digest']} -> "
                         f"{wb['stream_digest']} (stored bytes changed)")
        for metric in spec["end_to_end"]:
            a, b = wa["metrics"][metric["name"]], wb["metrics"][metric["name"]]
            rows.append((workload, metric, a, b, *verdict(metric, a, b, host_moved)))
        # Correctness has no tolerance to calibrate: any new failure, or a
        # bound that no longer holds, is worse.
        failed = (wa["metrics"]["failed_frac"]["median"], wb["metrics"]["failed_frac"]["median"])
        err = (wa["metrics"]["max_err_frac"]["median"], wb["metrics"]["max_err_frac"]["median"])
        if failed[1] > failed[0]:
            notes.append(f"{workload}: WORSE failed_frac {failed[0]:.4g} -> {failed[1]:.4g}")
        if err[1] > 1.0 or err[1] > err[0] + 0.02:
            notes.append(f"{workload}: WORSE max_err_frac {err[0]:.4g} -> {err[1]:.4g}")
    return rows, notes


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rec_a, rec_b = (json.loads(Path(p).read_text()) for p in argv)
    rows, notes = compare(spec, rec_a, rec_b)
    print(f"A: {argv[0]} commit={rec_a.get('commit', '?')[:12]} rounds={rec_a['rounds']}")
    print(f"B: {argv[1]} commit={rec_b.get('commit', '?')[:12]} rounds={rec_b['rounds']}")
    print(f"{'workload':14s} {'metric':14s} {'A':>11s} {'B':>11s} {'worse by':>9s} "
          f"{'bound':>6s} {'spreadA':>8s} {'spreadB':>8s}  verdict")
    for workload, metric, a, b, outcome, change in rows:
        print(f"{workload:14s} {metric['name']:14s} {a['median']:11.5g} "
              f"{b['median']:11.5g} {change:+9.1%} {metric['bound']:6.0%} "
              f"{spread(a):8.1%} {spread(b):8.1%}  {outcome}")
    for note in notes:
        print(f"! {note}")
    bad = any(r[4] == "worse" for r in rows) or any("WORSE" in n for n in notes)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
