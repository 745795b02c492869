"""Perf-regression gate: fail CI when wall-clock throughput regresses.

Re-measures codec throughput and compares against the committed
``BENCH_wallclock.json`` record.  A codec whose compress or decompress
MB/s falls more than ``--tolerance`` (default 20%) below the committed
``current`` numbers fails the gate.

Usage::

    PYTHONPATH=src python scripts/perf_gate.py                # enforce
    PYTHONPATH=src python scripts/perf_gate.py --report-only  # never fail
    PYTHONPATH=src python scripts/perf_gate.py --fresh new.json --smoke

``--fresh`` skips re-measurement and gates a pre-computed record (e.g.
the one the CI smoke run just produced) against the committed one.

``--cluster-fresh`` gates an HPDR-Cluster scaling record (produced by
``benchmarks/bench_cluster.py``) against the committed
``BENCH_cluster.json``: per-cell goodput must stay within tolerance and
the *fresh* 4-shard-over-1-shard scaling must stay >=
``--cluster-scaling-min`` (default 1.6x — the cluster's headline
claim).

A record that is present but missing a gated section or cell (wrong
schema, truncated write, stale generator) exits 2 with a message naming
the missing piece — distinct from exit 1, a real measured regression.

``--serve-fresh`` additionally gates an HPDR-Serve record (produced by
``benchmarks/bench_serve.py``) against the committed ``BENCH_serve.json``:
gated cells' req/s must stay within tolerance, the 64-client
micro-batching speedup over single-shot must stay >= ``--serve-min-speedup``
(default 2x — the repo's headline serving claim), and every codec's
direct batch-vs-single *round-trip* speedup (``codec_batch`` in the
record: one ``compress_batch`` + ``decompress_batch`` pair against 64
single-shot round trips) must stay >= ``--codec-batch-min`` (default
2x).  Per-direction speedups are recorded and reported but not gated —
they differ in how much per-item work the batch path can amortize.

``--tune-fresh`` gates an auto-tuner record (produced by
``benchmarks/bench_tune.py``) against ``BENCH_tune.json``: every cell's
tuned-over-default speedup must stay >= ``--tune-min-speedup`` (default
1.0 — learned configs must never lose to the defaults) and at least
``--tune-min-winning`` cells (default 2) must be strictly faster.

Sanitized runs are exempt: ``HPDR_SAN`` deliberately re-executes every
GEM batch in shadow, so throughput under it measures the sanitizer, not
the codecs — the gate refuses to produce (or judge) such numbers and
exits 0 immediately.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMITTED = REPO_ROOT / "BENCH_wallclock.json"
SERVE_COMMITTED = REPO_ROOT / "BENCH_serve.json"
CLUSTER_COMMITTED = REPO_ROOT / "BENCH_cluster.json"
TUNE_COMMITTED = REPO_ROOT / "BENCH_tune.json"

_CODECS = ("huffman", "mgard", "zfp")
_METRICS = ("compress_MBps", "decompress_MBps")

#: serve-grid cells whose throughput is gated against the committed
#: record (the single-shot baseline, the saturated micro-batch cell and
#: the 8-client sweet spot).
_SERVE_CELLS = ("c1_b1", "c8_b8", "c64_b64")

#: cluster scaling-curve cells (shard counts).
_CLUSTER_CELLS = ("s1", "s2", "s4", "s8")


class MissingBenchCell(Exception):
    """A gated record exists but lacks a required section or cell.

    Raised instead of letting a bare ``KeyError`` escape: the gate's
    job is to say *what* is missing and *which* file to regenerate, and
    to exit 2 (malformed input) rather than 1 (measured regression).
    """


def _section(record: dict, name: str, source: str) -> dict:
    """``record[name]`` as a dict, or a diagnosable MissingBenchCell."""
    value = record.get(name)
    if not isinstance(value, dict):
        raise MissingBenchCell(
            f"{source} has no {name!r} section — regenerate it with the "
            f"matching benchmarks/ script"
        )
    return value


def _cell(section: dict, cell: str, source: str) -> dict:
    value = section.get(cell)
    if not isinstance(value, dict):
        raise MissingBenchCell(
            f"{source} is missing gated cell {cell!r} — regenerate it "
            f"with the matching benchmarks/ script"
        )
    return value


def _fmt(cell: dict, name: str, prec: int = 2) -> str:
    """Display form of a cell value; non-numbers print as-is.

    The diagnostic tables must render even for the malformed records
    the compare functions are about to reject with exit 2 — a ``null``
    in the printout is the evidence, not a crash site.
    """
    value = cell.get(name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    return f"{value:.{prec}f}"


def _metric(cell: dict, name: str, source: str) -> float:
    """``cell[name]`` as a finite number, or a diagnosable MissingBenchCell.

    ``null`` (a generator that recorded a failed measurement), a missing
    key, and a non-numeric value are all schema faults, not regressions:
    they must exit 2 with the offending field named, never surface as a
    raw ``KeyError``/``TypeError`` comparing ``None`` to a float.
    """
    value = cell.get(name)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MissingBenchCell(
            f"{source} has no numeric {name!r} (got {value!r}) — "
            f"regenerate it with the matching benchmarks/ script"
        )
    return float(value)


def compare(committed: dict, fresh: dict, tolerance: float) -> list[str]:
    """Return one failure line per metric below ``(1 - tolerance) * ref``.

    Each line names the exact metric and quantifies the miss two ways:
    the drop relative to the committed record, and the shortfall below
    the tolerance floor — so a red CI run says precisely what regressed
    and by how much, without re-deriving anything from the JSON.
    """
    failures = []
    committed_cur = _section(committed, "current", "committed record")
    fresh_cur = _section(fresh, "current", "fresh record")
    for codec in _CODECS:
        ref = committed_cur.get(codec)
        cur = fresh_cur.get(codec)
        if not isinstance(ref, dict) or not isinstance(cur, dict):
            continue
        for metric in _METRICS:
            ref_v = _metric(ref, metric, f"committed record [{codec}]")
            cur_v = _metric(cur, metric, f"fresh record [{codec}]")
            floor = (1.0 - tolerance) * ref_v
            if cur_v < floor:
                drop = 100.0 * (1.0 - cur_v / ref_v)
                below = 100.0 * (1.0 - cur_v / floor)
                failures.append(
                    f"{codec}.{metric}: {cur_v:.2f} MB/s is "
                    f"{drop:.1f}% below the committed {ref_v:.2f} "
                    f"({below:.1f}% under the {tolerance:.0%}-tolerance "
                    f"floor of {floor:.2f})"
                )
    return failures


def compare_serve(
    committed: dict, fresh: dict, tolerance: float, min_speedup: float,
    codec_batch_min: float = 2.0,
) -> list[str]:
    """Gate the HPDR-Serve record: cell throughput and batching speedups.

    Three checks: (a) each gated cell's req/s must stay within
    ``tolerance`` of the committed record; (b) the headline claim —
    micro-batching (max_batch >= 8) beats the single-shot baseline at 64
    concurrent clients — must hold with at least ``min_speedup`` on the
    *fresh* measurement, not just the committed one; (c) every batched
    codec's direct batch-vs-single speedup must stay >=
    ``codec_batch_min`` in both directions.
    """
    failures = []
    committed_cur = _section(committed, "current", "committed serve record")
    fresh_cur = _section(fresh, "current", "fresh serve record")
    for cell in _SERVE_CELLS:
        ref = _cell(committed_cur, cell, "committed serve record")
        cur = _cell(fresh_cur, cell, "fresh serve record")
        ref_rps = _metric(ref, "rps", f"committed serve record [{cell}]")
        cur_rps = _metric(cur, "rps", f"fresh serve record [{cell}]")
        floor = (1.0 - tolerance) * ref_rps
        if cur_rps < floor:
            drop = 100.0 * (1.0 - cur_rps / ref_rps)
            failures.append(
                f"serve.{cell}.rps: {cur_rps:.1f} req/s is "
                f"{drop:.1f}% below the committed {ref_rps:.1f} "
                f"(floor {floor:.1f} at {tolerance:.0%} tolerance)"
            )
    speedups = fresh.get("speedup_c64", {})
    for name in sorted(speedups):
        speedup = _metric(speedups, name, "fresh serve record [speedup_c64]")
        if speedup < min_speedup:
            failures.append(
                f"serve.speedup_c64.{name}: micro-batching is only "
                f"{speedup:.2f}x over single-shot at 64 clients "
                f"(required >= {min_speedup:.1f}x)"
            )
    for codec, cell in sorted(fresh.get("codec_batch", {}).items()):
        speedup = _metric(cell, "roundtrip_speedup",
                          f"fresh serve record [codec_batch.{codec}]")
        if speedup < codec_batch_min:
            failures.append(
                f"serve.codec_batch.{codec}.roundtrip_speedup: "
                f"batch-{cell.get('batch')} launches are only "
                f"{speedup:.2f}x over single-shot round trips "
                f"(required >= {codec_batch_min:.1f}x)"
            )
    return failures


def compare_cluster(
    committed: dict, fresh: dict, tolerance: float, scaling_min: float,
) -> list[str]:
    """Gate the HPDR-Cluster record: per-cell goodput and scaling.

    Two checks: (a) each shard-count cell's goodput must stay within
    ``tolerance`` of the committed record; (b) the headline claim —
    4 shards beat 1 shard by at least ``scaling_min`` under the fixed
    offered load — must hold on the *fresh* measurement.
    """
    failures = []
    committed_cur = _section(committed, "current", "committed cluster record")
    fresh_cur = _section(fresh, "current", "fresh cluster record")
    for cell in _CLUSTER_CELLS:
        ref = _cell(committed_cur, cell, "committed cluster record")
        cur = _cell(fresh_cur, cell, "fresh cluster record")
        ref_rps = _metric(ref, "rps", f"committed cluster record [{cell}]")
        cur_rps = _metric(cur, "rps", f"fresh cluster record [{cell}]")
        floor = (1.0 - tolerance) * ref_rps
        if cur_rps < floor:
            drop = 100.0 * (1.0 - cur_rps / ref_rps)
            failures.append(
                f"cluster.{cell}.rps: {cur_rps:.1f} req/s is "
                f"{drop:.1f}% below the committed {ref_rps:.1f} "
                f"(floor {floor:.1f} at {tolerance:.0%} tolerance)"
            )
    scaling = _section(fresh, "scaling", "fresh cluster record")
    headline = _metric(scaling, "s4_over_s1",
                       "fresh cluster record [scaling]")
    if headline < scaling_min:
        failures.append(
            f"cluster.scaling.s4_over_s1: 4 shards deliver only "
            f"{headline:.2f}x the 1-shard goodput "
            f"(required >= {scaling_min:.1f}x)"
        )
    return failures


def compare_tune(
    committed: dict, fresh: dict, min_speedup: float = 1.0,
    min_winning_cells: int = 2,
) -> list[str]:
    """Gate the auto-tuner record: tuned must never lose, and must win.

    Two checks on the *fresh* record (produced by
    ``benchmarks/bench_tune.py``): (a) every cell's tuned-over-default
    speedup must be >= ``min_speedup`` (default 1.0 — the tuner's
    fail-open contract: a learned config that cannot beat the defaults
    is discarded at bench time and recorded as exactly 1.0, so anything
    below the floor means the fallback itself broke); (b) at least
    ``min_winning_cells`` cells must be strictly faster than the
    defaults, or the tuner has stopped finding anything at all.  The
    committed record only anchors the cell roster: every committed cell
    must still be measured fresh.
    """
    failures = []
    committed_cur = _section(committed, "current", "committed tune record")
    fresh_cur = _section(fresh, "current", "fresh tune record")
    for cell in sorted(committed_cur):
        _cell(fresh_cur, cell, "fresh tune record")
    winning = 0
    for cell in sorted(fresh_cur):
        speedup = _metric(_cell(fresh_cur, cell, "fresh tune record"),
                          "speedup", f"fresh tune record [{cell}]")
        if speedup >= min_speedup:
            if speedup > 1.0:
                winning += 1
        else:
            failures.append(
                f"tune.{cell}.speedup: tuned config is {speedup:.3f}x the "
                f"defaults (required >= {min_speedup:.2f}x — the tuner must "
                f"fall back to defaults rather than regress)"
            )
    if winning < min_winning_cells:
        failures.append(
            f"tune: only {winning} cell(s) beat the defaults "
            f"(required >= {min_winning_cells} strictly-winning cells)"
        )
    return failures


def write_tune_step_summary(
    fresh: dict, failures: list[str], min_speedup: float
) -> None:
    """Append the tune-gate verdict and per-cell table to the summary."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = ["## Tune gate", ""]
    if failures:
        lines.append(f"**REGRESSION** — {len(failures)} tuning cell(s) "
                     f"out of bounds:")
        lines.append("")
        lines.extend(f"- {f}" for f in failures)
    else:
        winning = sum(
            1 for cell in fresh.get("current", {}).values()
            if isinstance(cell, dict)
            and isinstance(cell.get("speedup"), (int, float))
            and cell["speedup"] > 1.0
        )
        lines.append(f"**OK** — tuned >= {min_speedup:.2f}x defaults on "
                     f"every cell, {winning} cell(s) strictly faster.")
    lines += ["", "| cell | default s | tuned s | speedup | tuned config |",
              "|---|---:|---:|---:|---|"]
    for cell, row in sorted(fresh.get("current", {}).items()):
        if not isinstance(row, dict):
            continue
        knobs = " ".join(f"{k}={v}"
                         for k, v in sorted(row.get("config", {}).items()))
        lines.append(f"| {cell} | {_fmt(row, 'default_s', 4)} "
                     f"| {_fmt(row, 'tuned_s', 4)} "
                     f"| {_fmt(row, 'speedup', 3)}x | {knobs or '-'} |")
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def write_cluster_step_summary(
    committed: dict, fresh: dict, failures: list[str], scaling_min: float,
) -> None:
    """Append the cluster-gate verdict and scaling table to the summary."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = ["## Cluster gate", ""]
    if failures:
        lines.append(f"**REGRESSION** — {len(failures)} cluster metric(s) "
                     f"out of bounds:")
        lines.append("")
        lines.extend(f"- {f}" for f in failures)
    else:
        scalings = ", ".join(
            f"{k}={v:.2f}x" for k, v in sorted(
                fresh.get("scaling", {}).items())
        )
        lines.append(f"**OK** — cells within tolerance; shard scaling "
                     f"{scalings} (s4_over_s1 floor {scaling_min:.1f}x, "
                     f"{fresh.get('cores', '?')} cores).")
    lines += ["", "| shards | committed req/s | fresh req/s | fresh p95 ms "
                  "| fresh rejected attempts |", "|---|---:|---:|---:|---:|"]
    committed_cur = _section(committed, "current", "committed cluster record")
    fresh_cur = _section(fresh, "current", "fresh cluster record")
    for cell in _CLUSTER_CELLS:
        ref = committed_cur.get(cell)
        cur = fresh_cur.get(cell)
        if not ref or not cur:
            continue
        lines.append(f"| {cell} | {ref['rps']:.1f} | {cur['rps']:.1f} "
                     f"| {cur['p95_ms']:.2f} "
                     f"| {cur.get('rejected_attempts', 0)} |")
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def write_serve_step_summary(
    committed: dict, fresh: dict, failures: list[str], min_speedup: float
) -> None:
    """Append the serve-gate verdict to the GitHub Actions job summary."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = ["## Serve gate", ""]
    if failures:
        lines.append(f"**REGRESSION** — {len(failures)} serve metric(s) "
                     f"out of bounds:")
        lines.append("")
        lines.extend(f"- {f}" for f in failures)
    else:
        speedups = ", ".join(
            f"{k}={v:.2f}x" for k, v in sorted(
                fresh.get("speedup_c64", {}).items())
        )
        lines.append(f"**OK** — cells within tolerance; 64-client "
                     f"micro-batch speedup {speedups} "
                     f"(floor {min_speedup:.1f}x).")
    lines += ["", "| cell | committed req/s | fresh req/s | fresh p95 ms |",
              "|---|---:|---:|---:|"]
    for cell in _SERVE_CELLS:
        ref = committed["current"].get(cell)
        cur = fresh["current"].get(cell)
        if not ref or not cur:
            continue
        lines.append(f"| {cell} | {ref['rps']:.1f} | {cur['rps']:.1f} "
                     f"| {cur['p95_ms']:.3f} |")
    if fresh.get("codec_batch"):
        lines += ["", "| codec | batch | compress | decompress | "
                      "roundtrip (gated) |", "|---|---:|---:|---:|---:|"]
        for codec, cell in sorted(fresh["codec_batch"].items()):
            lines.append(f"| {codec} | {cell.get('batch')} "
                         f"| {cell.get('compress_speedup', 0.0):.2f}x "
                         f"| {cell.get('decompress_speedup', 0.0):.2f}x "
                         f"| {cell.get('roundtrip_speedup', 0.0):.2f}x |")
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def write_step_summary(
    committed: dict, fresh: dict, failures: list[str], tolerance: float
) -> None:
    """Append a Markdown verdict to the GitHub Actions job summary.

    No-op outside Actions (``GITHUB_STEP_SUMMARY`` unset), so local runs
    behave identically.
    """
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = ["## Perf gate", ""]
    if failures:
        lines.append(f"**REGRESSION** — {len(failures)} metric(s) below "
                     f"the {tolerance:.0%}-tolerance floor:")
        lines.append("")
        lines.extend(f"- {f}" for f in failures)
    else:
        lines.append(f"**OK** — every codec within {tolerance:.0%} of the "
                     f"committed record.")
    lines += ["", "| codec | metric | committed MB/s | fresh MB/s | delta |",
              "|---|---|---:|---:|---:|"]
    for codec in _CODECS:
        ref, cur = committed["current"].get(codec), fresh["current"].get(codec)
        if not ref or not cur:
            continue
        for metric in _METRICS:
            delta = 100.0 * (cur[metric] / ref[metric] - 1.0)
            lines.append(f"| {codec} | {metric} | {ref[metric]:.2f} "
                         f"| {cur[metric]:.2f} | {delta:+.1f}% |")
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--committed", type=pathlib.Path, default=COMMITTED,
                    help="committed reference record")
    ap.add_argument("--fresh", type=pathlib.Path, default=None,
                    help="pre-computed fresh record (skip re-measurement)")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional slowdown (default 0.20)")
    ap.add_argument("--smoke", action="store_true",
                    help="1 timing rep when re-measuring")
    ap.add_argument("--report-only", action="store_true",
                    help="print the comparison but always exit 0")
    ap.add_argument("--serve-fresh", type=pathlib.Path, default=None,
                    help="fresh BENCH_serve record to gate (from "
                         "benchmarks/bench_serve.py)")
    ap.add_argument("--serve-committed", type=pathlib.Path,
                    default=SERVE_COMMITTED,
                    help="committed serve reference record")
    ap.add_argument("--serve-min-speedup", type=float, default=2.0,
                    help="required 64-client micro-batch speedup over "
                         "single-shot (default 2.0)")
    ap.add_argument("--codec-batch-min", type=float, default=2.0,
                    help="required per-codec direct batch-vs-single "
                         "speedup, both directions (default 2.0)")
    ap.add_argument("--cluster-fresh", type=pathlib.Path, default=None,
                    help="fresh BENCH_cluster record to gate (from "
                         "benchmarks/bench_cluster.py)")
    ap.add_argument("--cluster-committed", type=pathlib.Path,
                    default=CLUSTER_COMMITTED,
                    help="committed cluster reference record")
    ap.add_argument("--cluster-scaling-min", type=float, default=1.6,
                    help="required fresh 4-shard-over-1-shard goodput "
                         "scaling (default 1.6)")
    ap.add_argument("--tune-fresh", type=pathlib.Path, default=None,
                    help="fresh BENCH_tune record to gate (from "
                         "benchmarks/bench_tune.py)")
    ap.add_argument("--tune-committed", type=pathlib.Path,
                    default=TUNE_COMMITTED,
                    help="committed tune reference record")
    ap.add_argument("--tune-min-speedup", type=float, default=1.0,
                    help="required tuned-over-default speedup on every "
                         "tuning cell (default 1.0: never lose)")
    ap.add_argument("--tune-min-winning", type=int, default=2,
                    help="required count of cells strictly faster than "
                         "the defaults (default 2)")
    args = ap.parse_args(argv)

    if os.environ.get("HPDR_SAN", "") not in ("", "0"):
        print("perf_gate: SKIP — HPDR_SAN is set; sanitized runs measure "
              "the sanitizer, not the codecs (unset HPDR_SAN to gate perf)")
        return 0

    if not args.committed.exists():
        print(f"perf_gate: no committed record at {args.committed}; "
              f"run benchmarks/bench_wallclock.py first", file=sys.stderr)
        return 0 if args.report_only else 2

    committed = json.loads(args.committed.read_text())
    if args.fresh is not None:
        fresh = json.loads(args.fresh.read_text())
    else:
        from repro.bench.wallclock import measure_all

        fresh = measure_all(reps=1 if args.smoke else 3)

    try:
        print(f"{'codec':<16} {'metric':<16} {'committed':>10} {'fresh':>10}")
        for codec in _CODECS:
            ref = _section(committed, "current",
                           "committed record").get(codec)
            cur = _section(fresh, "current", "fresh record").get(codec)
            if not ref or not cur:
                continue
            for metric in _METRICS:
                print(f"{codec:<16} {metric:<16} "
                      f"{_fmt(ref, metric):>10} {_fmt(cur, metric):>10}")

        failures = compare(committed, fresh, args.tolerance)
        write_step_summary(committed, fresh, failures, args.tolerance)

        if args.serve_fresh is not None:
            if not args.serve_committed.exists():
                print(f"perf_gate: no committed serve record at "
                      f"{args.serve_committed}; run benchmarks/bench_serve.py "
                      f"first", file=sys.stderr)
                return 0 if args.report_only else 2
            serve_committed = json.loads(args.serve_committed.read_text())
            serve_fresh = json.loads(args.serve_fresh.read_text())
            serve_failures = compare_serve(
                serve_committed, serve_fresh, args.tolerance,
                args.serve_min_speedup, args.codec_batch_min,
            )
            print(f"\n{'serve cell':<16} {'committed rps':>14} "
                  f"{'fresh rps':>10}")
            for cell in _SERVE_CELLS:
                ref = serve_committed["current"].get(cell)
                cur = serve_fresh["current"].get(cell)
                if not ref or not cur:
                    continue
                print(f"{cell:<16} {_fmt(ref, 'rps', 1):>14} "
                      f"{_fmt(cur, 'rps', 1):>10}")
            for name, s in sorted(serve_fresh.get("speedup_c64", {}).items()):
                print(f"speedup_c64.{name:<4} {s:>10.2f}x "
                      f"(floor {args.serve_min_speedup:.1f}x)")
            for codec, cell in sorted(
                    serve_fresh.get("codec_batch", {}).items()):
                print(f"codec_batch.{codec:<12} "
                      f"compress {cell.get('compress_speedup', 0.0):>7.2f}x  "
                      f"decompress "
                      f"{cell.get('decompress_speedup', 0.0):>7.2f}x  "
                      f"roundtrip {cell.get('roundtrip_speedup', 0.0):>7.2f}x "
                      f"(floor {args.codec_batch_min:.1f}x on roundtrip, "
                      f"n={cell.get('batch')})")
            write_serve_step_summary(
                serve_committed, serve_fresh, serve_failures,
                args.serve_min_speedup,
            )
            failures += serve_failures

        if args.cluster_fresh is not None:
            if not args.cluster_committed.exists():
                print(f"perf_gate: no committed cluster record at "
                      f"{args.cluster_committed}; run "
                      f"benchmarks/bench_cluster.py first", file=sys.stderr)
                return 0 if args.report_only else 2
            cluster_committed = json.loads(args.cluster_committed.read_text())
            cluster_fresh = json.loads(args.cluster_fresh.read_text())
            cluster_failures = compare_cluster(
                cluster_committed, cluster_fresh, args.tolerance,
                args.cluster_scaling_min,
            )
            print(f"\n{'cluster cell':<16} {'committed rps':>14} "
                  f"{'fresh rps':>10}")
            for cell in _CLUSTER_CELLS:
                ref = cluster_committed["current"].get(cell)
                cur = cluster_fresh["current"].get(cell)
                if not ref or not cur:
                    continue
                print(f"{cell:<16} {_fmt(ref, 'rps', 1):>14} "
                      f"{_fmt(cur, 'rps', 1):>10}")
            for name, s in sorted(
                    cluster_fresh.get("scaling", {}).items()):
                floor = (f" (floor {args.cluster_scaling_min:.1f}x)"
                         if name == "s4_over_s1" else "")
                print(f"scaling.{name:<12} {s:>8.2f}x{floor}")
            write_cluster_step_summary(
                cluster_committed, cluster_fresh, cluster_failures,
                args.cluster_scaling_min,
            )
            failures += cluster_failures

        if args.tune_fresh is not None:
            if not args.tune_committed.exists():
                print(f"perf_gate: no committed tune record at "
                      f"{args.tune_committed}; run benchmarks/bench_tune.py "
                      f"first", file=sys.stderr)
                return 0 if args.report_only else 2
            tune_committed = json.loads(args.tune_committed.read_text())
            tune_fresh = json.loads(args.tune_fresh.read_text())
            tune_failures = compare_tune(
                tune_committed, tune_fresh, args.tune_min_speedup,
                args.tune_min_winning,
            )
            print(f"\n{'tune cell':<20} {'default s':>10} {'tuned s':>10} "
                  f"{'speedup':>8}")
            for cell, row in sorted(tune_fresh.get("current", {}).items()):
                if not isinstance(row, dict):
                    continue
                print(f"{cell:<20} {_fmt(row, 'default_s', 4):>10} "
                      f"{_fmt(row, 'tuned_s', 4):>10} "
                      f"{_fmt(row, 'speedup', 3):>7}x")
            write_tune_step_summary(
                tune_fresh, tune_failures, args.tune_min_speedup,
            )
            failures += tune_failures
    except MissingBenchCell as exc:
        print(f"perf_gate: MALFORMED RECORD — {exc}", file=sys.stderr)
        return 0 if args.report_only else 2

    if failures:
        print("\nperf_gate: REGRESSION" + (" (report-only)" if args.report_only else ""))
        for line in failures:
            print(f"  {line}")
        return 0 if args.report_only else 1
    print(f"\nperf_gate: OK (within {args.tolerance:.0%} of committed record)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
