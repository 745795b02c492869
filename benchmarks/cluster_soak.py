"""HPDR-Cluster failover soak (real TCP front door, real codecs).

One long mixed-codec run on four shards: wave after wave of closed-loop
verify-blasts (the 16-key mixed roster, so consistent hashing spreads
it across every shard) through the consistent-hash router's TCP front
door, with a shard death injected a third of the way in.  It is a
correctness report, not a measurement: the run fails on any error, any
byte mismatch, or a missing adoption, and archives the failover-window
Chrome trace, the Prometheus metrics dump and a wave-by-wave report
into ``--outdir``.  Throughput is measured by ``benchmarks/e2e/``
(``cluster_mixed``), nowhere else.

Usage::

    python benchmarks/cluster_soak.py --soak 300 --outdir soak/
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SHAPE = (64, 64)
SOAK_SHARDS = 4
SOAK_CLIENTS = 16
SOAK_WAVE_REQUESTS = 25


async def _blast_front_door(cluster, specs, payloads) -> dict:
    """One verified closed-loop wave through a TCP front door."""
    from repro.serve import BlastClient, run_blast, serve_tcp

    server = await serve_tcp(cluster, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    try:
        return await run_blast(
            lambda i: BlastClient.connect(host, port),
            clients=SOAK_CLIENTS,
            requests_per_client=SOAK_WAVE_REQUESTS,
            specs=specs,
            payloads=payloads,
            roundtrip=True,
            verify=True,
        )
    finally:
        server.close()
        await server.wait_closed()


def run_soak(seconds: float, outdir: pathlib.Path, *, shards: int,
             backend: str) -> int:
    """The nightly soak: long mixed run, one injected shard death.

    Runs wave after wave of closed-loop blasts against one long-lived
    cluster for ``seconds``; a third of the way in, the shard owning
    the first spec's traffic is killed mid-wave.  Tracing covers the
    kill wave only (the interesting window — a full-length trace would
    dwarf the artifact budget), and the final Prometheus dump carries
    the cumulative counters.  Exits non-zero on any error, mismatch, or
    missing adoption.
    """
    import repro.trace as trace
    from repro.cluster import ClusterConfig, ClusterService, mixed_specs
    from repro.serve import (
        BatchLimits,
        ServiceConfig,
        default_payloads,
    )

    outdir.mkdir(parents=True, exist_ok=True)
    specs = mixed_specs()
    payloads = default_payloads(specs, shape=SHAPE, seed=11)
    cfg = ClusterConfig(
        shards=shards,
        backend=backend,
        service=ServiceConfig(
            limits=BatchLimits(max_batch=16, max_latency_s=0.002),
            max_pending=256,
        ),
    )

    async def run() -> dict:
        start = time.monotonic()
        kill_at = start + seconds / 3.0
        killed: dict = {}
        waves = []
        async with ClusterService(cfg) as cluster:
            while time.monotonic() - start < seconds:
                inject = not killed and time.monotonic() >= kill_at
                kill_task = None
                if inject:
                    target = cluster.owner("compress", specs[0],
                                           payloads[specs[0]])
                    trace.enable(clear=True)

                    async def killer() -> None:
                        await asyncio.sleep(0.2)
                        print(f"  killing shard {target} mid-wave",
                              flush=True)
                        cluster.kill_shard(target)

                    kill_task = asyncio.get_running_loop().create_task(
                        killer()
                    )
                try:
                    report = await _blast_front_door(cluster, specs,
                                                     payloads)
                finally:
                    if kill_task is not None:
                        kill_task.cancel()
                        try:
                            await kill_task
                        except asyncio.CancelledError:
                            pass
                if inject:
                    path = trace.export_chrome(
                        str(outdir / "failover_trace.json")
                    )
                    trace.disable()
                    killed = {
                        "shard": target,
                        "wave": len(waves),
                        "trace": str(path),
                        "spans": len(trace.events()),
                    }
                waves.append({
                    "completed": report["completed"],
                    "rps": report["rps"],
                    "p95_ms": report["p95_ms"],
                    "rejected": report["rejected"],
                    "errors": report["errors"],
                    "mismatches": report["mismatches"],
                })
                print(f"  wave {len(waves):>3}: {report['rps']:>8.1f} req/s "
                      f"p95={report['p95_ms']:.2f}ms "
                      f"errors={report['errors']} "
                      f"mismatches={report['mismatches']}", flush=True)
            snap = cluster.stats.snapshot()
        (outdir / "metrics.prom").write_text(trace.render_prometheus())
        return {
            "seconds": round(time.monotonic() - start, 1),
            "shards": shards,
            "backend": backend,
            "workload": "mixed16",
            "waves": len(waves),
            "kill": killed,
            "totals": {
                "completed": sum(w["completed"] for w in waves),
                "errors": sum(w["errors"] for w in waves),
                "mismatches": sum(w["mismatches"] for w in waves),
            },
            "cluster": snap,
            "wave_reports": waves,
        }

    report = asyncio.run(run())
    (outdir / "soak_report.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    totals = report["totals"]
    ok = (
        totals["errors"] == 0
        and totals["mismatches"] == 0
        and report["cluster"]["adoptions"] == 1
        and bool(report["kill"])
    )
    print(f"\nsoak: {report['waves']} waves, "
          f"{totals['completed']} round-trips, "
          f"errors={totals['errors']} mismatches={totals['mismatches']} "
          f"failovers={report['cluster']['failovers']} "
          f"adoptions={report['cluster']['adoptions']} "
          f"-> {'OK' if ok else 'FAIL'}")
    print(f"artifacts in {outdir}/")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--soak", type=float, required=True, metavar="SECONDS",
                    help="how long to keep sending waves")
    ap.add_argument("--outdir", type=pathlib.Path,
                    default=REPO_ROOT / "soak_out",
                    help="soak artifact directory")
    ap.add_argument("--backend", default="task",
                    choices=["task", "process"],
                    help="shard backend")
    args = ap.parse_args(argv)
    return run_soak(args.soak, args.outdir, shards=SOAK_SHARDS,
                    backend=args.backend)


if __name__ == "__main__":
    sys.exit(main())
