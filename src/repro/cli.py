"""Command-line interface: ``python -m repro <command>``.

Operates on ``.npy`` arrays so any NumPy-producing workflow can use HPDR
from the shell:

.. code-block:: bash

    python -m repro compress field.npy field.hpdr --method mgard-x --eb 1e-3
    python -m repro decompress field.hpdr restored.npy
    python -m repro info field.hpdr
    python -m repro refactor field.npy field.hpgx --eb 1e-4
    python -m repro retrieve field.hpgx coarse.npy --error-bound 1e-2
    python -m repro faultplan plan.json --system frontier --nodes 1024
    python -m repro campaign field.npy out/ --ranks 8 --faults plan.json
    python -m repro campaign field.npy out/ --ranks 8 --resume
    python -m repro cluster --shards 4 --replicas 1 --backend process
    python -m repro blast --cluster --shards 4 --codec mixed --kill-one --verify
    python -m repro datasets
"""

from __future__ import annotations

import argparse
import struct
import sys

import numpy as np

from repro.util import atomic_write_bytes

_ENVELOPE_MAGIC = b"HPDR"


def _envelope(method: str, payload: bytes) -> bytes:
    m = method.encode("ascii")
    return _ENVELOPE_MAGIC + struct.pack("<B", len(m)) + m + payload


def _open_envelope(blob: bytes) -> tuple[str, bytes]:
    if blob[:4] != _ENVELOPE_MAGIC:
        raise ValueError("not an HPDR container (bad magic)")
    (mlen,) = struct.unpack_from("<B", blob, 4)
    method = blob[5 : 5 + mlen].decode("ascii")
    return method, blob[5 + mlen :]


def _build_compressor(method: str, args, adapter=None):
    """Build the compressor ``args`` describe.

    ``adapter`` overrides the CLI-selected device adapter — the campaign
    runner uses this to hand each rank its own resilient adapter chain
    while reusing all method/bound plumbing.
    """
    from repro import Config, ErrorMode, LZ4, MGARDX, SZ, ZFPX, get_adapter

    sanitize = bool(getattr(args, "sanitize", False))
    if adapter is not None:
        sanitize = False  # explicit override wins; no sanitizer re-wrap
    elif getattr(args, "adapter", None):
        kwargs = {}
        threads = getattr(args, "threads", None)
        if threads is not None:
            if args.adapter != "openmp":
                raise SystemExit("--threads only applies to --adapter openmp")
            kwargs["num_threads"] = threads
        adapter = get_adapter(args.adapter, **kwargs)
    elif sanitize:
        adapter = get_adapter("serial")
    if sanitize:
        from repro.check import SANITIZABLE_FAMILIES, SanitizingAdapter

        if adapter.family not in SANITIZABLE_FAMILIES:
            raise SystemExit(
                f"--sanitize supports {'/'.join(SANITIZABLE_FAMILIES)} "
                f"adapters, not {adapter.family!r}"
            )
        if not isinstance(adapter, SanitizingAdapter):
            adapter = SanitizingAdapter(adapter)
    mode = ErrorMode.ABS if getattr(args, "mode", "rel") == "abs" else ErrorMode.REL
    eb = getattr(args, "eb", 1e-3)
    cfg = Config(error_bound=eb, error_mode=mode)
    if method == "mgard-x":
        return MGARDX(cfg, adapter=adapter)
    if method == "sz":
        return SZ(cfg, adapter=adapter)
    if method == "zfp-x":
        rate = getattr(args, "rate", None)
        if rate is None:
            rate = 16.0
        return ZFPX(rate=rate, adapter=adapter)
    if method == "zfp-accuracy":
        from repro import ZFPAccuracy

        return ZFPAccuracy(tolerance=getattr(args, "tolerance", 1e-3) or 1e-3)
    if method == "huffman-x":
        from repro import HuffmanX

        return HuffmanX(adapter=adapter)
    if method == "lz4":
        return LZ4()
    raise SystemExit(f"unknown method {method!r}")


def cmd_compress(args) -> int:
    data = np.load(args.input)
    comp = _build_compressor(args.method, args)
    payload = comp.compress(data)
    blob = _envelope(args.method, payload)
    atomic_write_bytes(args.output, blob)
    print(
        f"{args.input}: {data.nbytes/1e6:.2f} MB -> {len(blob)/1e6:.2f} MB "
        f"({data.nbytes/len(blob):.2f}x) via {args.method}"
    )
    return 0


def cmd_decompress(args) -> int:
    with open(args.input, "rb") as f:
        blob = f.read()
    method, payload = _open_envelope(blob)
    comp = _build_compressor(method, args)
    data = comp.decompress(payload)
    np.save(args.output, np.asarray(data))
    print(f"{args.input} ({method}) -> {args.output} "
          f"{np.asarray(data).shape} {np.asarray(data).dtype}")
    return 0


def cmd_info(args) -> int:
    with open(args.input, "rb") as f:
        blob = f.read()
    method, payload = _open_envelope(blob)
    print(f"container: HPDR envelope, method={method}, "
          f"payload={len(payload)} bytes")
    return 0


def cmd_refactor(args) -> int:
    """Write an HPGX archive or BP store of progressive segments."""
    from repro import Config, ErrorMode
    from repro.progressive import ProgressiveMGARD, archive_bytes, write_store

    data = np.load(args.input)
    mode = ErrorMode.ABS if args.mode == "abs" else ErrorMode.REL
    codec = ProgressiveMGARD(
        Config(error_bound=args.eb, error_mode=mode),
        bits_per_plane=args.bits_per_plane,
        max_planes=args.max_planes,
    )
    index, segments = codec.refactor(data)
    if args.store == "bp":
        write_store(args.output, index, segments,
                    num_aggregators=args.aggregators)
        where = f"BP store {args.output} ({args.aggregators} aggregators)"
    else:
        atomic_write_bytes(args.output, archive_bytes(index, segments))
        where = f"HPGX archive {args.output}"
    print(f"{args.input}: {data.nbytes} B -> {index.total_bytes} B "
          f"segment stream in {len(index.records)} segments "
          f"({index.ngroups} groups) -> {where}")
    print(f"  abs bound {index.abs_eb:.6e}, floor {index.floor:.6e}")
    print("  retrievable frontier (cumulative bytes -> achieved error):")
    for rec in index.frontier():
        prefix = sum(r.nbytes for r in index.records[: rec.seq + 1])
        print(f"    seg {rec.seq:3d} (group {rec.group}): "
              f"{prefix:8d} B -> {rec.error_bound:.6e}")
    return 0


def cmd_retrieve(args) -> int:
    """Bounded retrieval from an HPGX archive / BP store."""
    from pathlib import Path

    from repro.progressive import ProgressiveError, ProgressiveRetriever

    src = Path(args.input)
    if src.is_dir() and not (src / "index.json").exists():
        raise SystemExit(f"retrieve: {src} is a directory without "
                         f"index.json, not a BP store")
    if src.is_file():
        with open(src, "rb") as f:
            if f.read(4) == b"MGRF":
                raise SystemExit(
                    "retrieve: MGRF streams are no longer readable; "
                    "re-run `repro refactor` on the source array")
    try:
        data, report = ProgressiveRetriever().retrieve(
            args.input, eps=args.error_bound, resolution=args.resolution
        )
    except ProgressiveError as exc:
        raise SystemExit(f"retrieve: {exc}")
    np.save(args.output, data)
    want = (f"eps={report.eps:g}" if report.eps is not None
            else f"resolution={report.resolution}"
            if report.resolution is not None else "full prefix")
    print(f"retrieved {data.shape} {data.dtype} ({want}) from "
          f"{report.source}: {report.segments_fetched}/"
          f"{report.total_segments} segments, {report.bytes_fetched}/"
          f"{report.total_bytes} B ({report.fraction_fetched:.1%}), "
          f"achieved error {report.error_bound:.6e}")
    return 0


def cmd_campaign(args) -> int:
    """Fault-tolerant chunked campaign with checkpoint/restart."""
    from repro.resilience import CampaignKilled, CampaignRunner, FaultPlan

    data = np.load(args.input)
    plan = FaultPlan.load(args.faults) if args.faults else None
    runner = CampaignRunner(
        data,
        args.outdir,
        make_compressor=lambda ad: _build_compressor(args.method, args, adapter=ad),
        method=args.method,
        ranks=args.ranks,
        chunk_elems=args.chunk_elems,
        adapter_family=args.adapter or "serial",
        plan=plan,
        checkpoint_every=args.checkpoint_every,
    )
    try:
        result = runner.run(resume=args.resume)
    except CampaignKilled as exc:
        print(f"campaign killed: {exc.completed_chunks} chunks checkpointed "
              f"in {args.outdir}; rerun with --resume to continue")
        return 3
    print(
        f"{args.input}: {result.total_chunks} chunks on {args.ranks} ranks "
        f"({result.resumed_chunks} resumed, "
        f"{len(result.dropped_ranks)} ranks dropped, "
        f"{result.faults_injected} faults, {result.retries} retries)"
    )
    print(f"output: {result.output_path}  sha256={result.output_digest[:16]}…")
    return 0


def cmd_faultplan(args) -> int:
    """Generate a fault-plan JSON, from rates or from a system's MTBF."""
    from repro.resilience import FaultPlan, plan_for_system

    if args.system:
        from repro.machine.topology import get_system

        plan = plan_for_system(
            get_system(args.system), args.nodes, args.hours, seed=args.seed
        )
    else:
        plan = FaultPlan(
            seed=args.seed,
            device_batch_rate=args.device_batch_rate,
            timeout_rate=args.timeout_rate,
            corrupt_rate=args.corrupt_rate,
            transport_rate=args.transport_rate,
            drop_ranks=tuple(args.drop_rank or ()),
            drop_after_chunks=args.drop_after_chunks,
            kill_after_chunks=args.kill_after_chunks,
        )
    plan.save(args.output)
    rates = ", ".join(
        f"{k}={plan.rate(k):g}"
        for k in ("device_batch", "timeout", "corrupt", "transport")
    )
    print(f"{args.output}: seed={plan.seed}, {rates}, "
          f"drop_ranks={list(plan.drop_ranks)}, "
          f"kill_after={plan.kill_after_chunks}")
    return 0


def _service_config(args, *, pool: bool = False, **fields):
    """The ``ServiceConfig`` the service flags of serve/cluster/blast describe.

    ``pool`` honours ``--processes`` (worker processes instead of
    threads); ``fields`` are the settings only some commands expose.
    """
    from repro.serve import BatchLimits, ServiceConfig

    limits = {"max_batch": args.max_batch,
              "max_latency_s": args.max_latency_ms / 1e3}
    if hasattr(args, "max_bytes"):
        limits["max_bytes"] = args.max_bytes
    processes = args.processes if pool else None
    return ServiceConfig(
        limits=BatchLimits(**limits),
        workers=processes or args.workers,
        adapter=args.adapter or "serial",
        threads=args.threads,
        process=bool(processes),
        tune=args.tune,
        tuning_cache=args.tuning_cache,
        **fields,
    )


def _cluster_config(args, **fields):
    """The ``ClusterConfig`` the cluster flags of cluster/blast describe."""
    from repro.cluster import ClusterConfig

    return ClusterConfig(
        shards=args.shards,
        replicas=args.replicas,
        backend=args.backend,
        shard_max_pending=args.shard_max_pending,
        **fields,
    )


def _serve_until_signal(args, make_service, banner) -> dict:
    """Serve on ``--host``/``--port`` until SIGINT/SIGTERM, then drain.

    ``make_service`` builds the (unstarted) service inside the loop;
    ``banner(svc, host, port)`` is the startup line.  Returns the
    drained service's stats snapshot.
    """
    import asyncio
    import signal

    from repro.serve import serve_tcp

    async def run() -> dict:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGINT, stop.set)
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except NotImplementedError:  # pragma: no cover - non-Unix loops
            pass
        async with make_service() as svc:
            server = await serve_tcp(svc, args.host, args.port)
            host, port = server.sockets[0].getsockname()[:2]
            print(f"{banner(svc, host, port)}; Ctrl-C drains and exits",
                  flush=True)
            await stop.wait()
            print("draining…", flush=True)
            server.close()
            await server.wait_closed()
        return svc.stats.snapshot()

    return asyncio.run(run())


def cmd_serve(args) -> int:
    """Run the HPDR-Serve micro-batching service on a TCP socket."""
    from repro.serve import ReductionService

    cfg = _service_config(args, pool=True, max_pending=args.max_pending)

    def banner(svc, host, port) -> str:
        tuned = svc.config
        if tuned is not cfg:
            print(f"tuned ({cfg.tune}): adapter={tuned.adapter} "
                  f"max_batch={tuned.limits.max_batch} "
                  f"deadline={tuned.limits.max_latency_s * 1e3:g}ms",
                  flush=True)
        return (
            f"serving on {host}:{port} adapter={cfg.adapter} "
            f"workers={cfg.workers}{' (processes)' if cfg.process else ''} "
            f"max_batch={cfg.limits.max_batch} "
            f"deadline={cfg.limits.max_latency_s * 1e3:g}ms "
            f"max_pending={cfg.max_pending}"
        )

    snapshot = _serve_until_signal(args, lambda: ReductionService(cfg), banner)
    print("drained: " + " ".join(f"{k}={v}" for k, v in snapshot.items()))
    return 0


def cmd_cluster(args) -> int:
    """Run the sharded cluster behind its consistent-hash router (TCP)."""
    from repro.cluster import ClusterService

    cfg = _cluster_config(
        args, vnodes=args.vnodes,
        service=_service_config(args, max_pending=args.max_pending),
    )
    snapshot = _serve_until_signal(
        args, lambda: ClusterService(cfg), lambda _svc, host, port: (
            f"cluster on {host}:{port} shards={cfg.shards} "
            f"replicas={cfg.replicas} backend={cfg.backend} "
            f"per-shard-limit={cfg.per_shard_limit}"))
    per_shard = snapshot.pop("per_shard", {})
    print("drained: " + " ".join(f"{k}={v}" for k, v in snapshot.items()))
    if per_shard:
        print("per-shard: "
              + " ".join(f"{k}={v}" for k, v in sorted(per_shard.items())))
    return 0


def cmd_blast(args) -> int:
    """Closed-loop load generator against a served reduction service."""
    import asyncio
    import contextlib

    from repro.serve import (
        BlastClient,
        CodecSpec,
        ReductionService,
        default_payloads,
        run_blast,
        serve_tcp,
    )

    if not (args.selfhost or args.cluster) and args.port is None:
        raise SystemExit("--port is required (or use --selfhost/--cluster)")
    if args.kill_one and not args.cluster:
        raise SystemExit("--kill-one requires --cluster (the failover drill)")
    if args.codec == "mixed":
        from repro.cluster import mixed_specs

        specs = mixed_specs()
    else:
        specs = [CodecSpec(args.codec, error_bound=args.eb, rate=args.rate)]
    try:
        shape = tuple(int(s) for s in args.shape.split("x"))
    except ValueError:
        raise SystemExit(f"--shape must look like 16x16, got {args.shape!r}")
    payloads = default_payloads(specs, shape=shape, seed=args.seed)

    async def run() -> dict:
        server = None
        svc = None
        cluster = None
        kill_task = None
        host, port = args.host, args.port
        if args.cluster:
            from repro.cluster import ClusterService

            svc = cluster = await ClusterService(
                _cluster_config(args, service=_service_config(args))).start()
        elif args.selfhost:
            svc = await ReductionService(
                _service_config(args, pool=True)).start()
        if svc is not None:
            server = await serve_tcp(svc, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
        if args.kill_one and cluster is not None:
            # The drill targets the shard that actually owns the first
            # spec's traffic, so the kill always hits live requests.
            target = cluster.owner("compress", specs[0], payloads[specs[0]])

            async def killer() -> None:
                await asyncio.sleep(args.kill_after_ms / 1e3)
                print(f"killing shard {target} mid-run", flush=True)
                cluster.kill_shard(target)

            kill_task = asyncio.get_running_loop().create_task(killer())
        try:
            report = await run_blast(
                lambda i: BlastClient.connect(host, port, use_shm=args.shm),
                clients=args.clients,
                requests_per_client=args.requests,
                specs=specs,
                payloads=payloads,
                roundtrip=not args.compress_only,
                verify=args.verify,
            )
        finally:
            if kill_task is not None:
                kill_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await kill_task
            if server is not None:
                server.close()
                await server.wait_closed()
            if svc is not None:
                await svc.close()
        if cluster is not None:
            snap = cluster.stats.snapshot()
            report["failovers"] = snap["failovers"]
            report["adoptions"] = snap["adoptions"]
            report["per_shard"] = snap["per_shard"]
        return report

    report = asyncio.run(run())
    print(
        f"{report['completed']} requests ({args.codec}, "
        f"{args.clients} clients): {report['rps']:.0f} req/s  "
        f"p50={report['p50_ms']:.2f}ms p95={report['p95_ms']:.2f}ms "
        f"p99={report['p99_ms']:.2f}ms  rejected={report['rejected']} "
        f"errors={report['errors']} mismatches={report['mismatches']}"
    )
    if "per_shard" in report:
        shares = " ".join(
            f"{k}={v}" for k, v in sorted(report["per_shard"].items())
        )
        print(f"cluster: failovers={report['failovers']} "
              f"adoptions={report['adoptions']}  {shares}")
    return 1 if (report["errors"] or report["mismatches"]) else 0


def cmd_tune(args) -> int:
    """Learn (and persist) the service micro-batch entry under load."""
    from repro.tune import TuningCache, tune_service

    cache = TuningCache(args.tuning_cache)
    print(f"tuning cache: {cache.path}")
    report = tune_service(cache, seed=args.seed, budget=args.budget,
                          clients=args.clients)
    print(f"  service: {report.speedup:.2f}x ({report.evaluations} evals, "
          f"{report.rejected} rejected by the byte guard)")
    print("\nlearned table:")
    print(cache.table())
    print(f"\nthe service entry "
          f"{'beat' if report.improved else 'kept'} the hand-tuned defaults; "
          f"every persisted config is byte-identical to them")
    return 0


def cmd_datasets(_args) -> int:
    from repro.data.registry import DATASETS

    print(f"{'name':<6} {'field':<8} {'paper dims':<24} {'dtype':<8} size")
    for spec in DATASETS.values():
        dims = "x".join(map(str, spec.full_shape))
        print(f"{spec.name:<6} {spec.field:<8} {dims:<24} "
              f"{spec.dtype:<8} {spec.full_size_label}")
    return 0


def _add_tune_flags(sp, what: str) -> None:
    """``--tune``/``--tuning-cache`` on the commands that start a service."""
    sp.add_argument("--tune", default="off", choices=["auto", "off", "force"],
                    help=f"consult the tuning cache for {what}: auto uses a "
                         f"cached entry, force re-tunes first, off (default) "
                         f"uses hand-tuned defaults; tuned runs are "
                         f"byte-identical to defaults")
    _add_tuning_cache_flag(sp)


def _add_tuning_cache_flag(sp) -> None:
    sp.add_argument("--tuning-cache", default=None, metavar="PATH",
                    help="tuning-cache file (default: $HPDR_TUNE_CACHE or "
                         "~/.cache/hpdr/tuning.json)")


def _observe_parent(after: str, viewer: str = "") -> argparse.ArgumentParser:
    """Parent parser for ``--trace``/``--metrics``.

    ``after`` says when the summary prints (the run, draining, …).
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="record spans and write Chrome trace-event JSON"
                        + viewer)
    p.add_argument("--metrics", action="store_true",
                   help=f"print the stage/metrics summary after {after}")
    return p


def _device_parent(adapter: str | None = None, threads: str | None = None,
                   sanitize: str | None = None) -> argparse.ArgumentParser:
    """Parent parser for ``--adapter`` [``--threads`` [``--sanitize``]].

    Each argument is that flag's help text; a flag without one is left
    off (``--adapter`` is always present).
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--adapter", default=None,
                   choices=["serial", "openmp", "cuda", "hip"], help=adapter)
    if threads is not None:
        p.add_argument("--threads", type=int, default=None, help=threads)
    if sanitize is not None:
        p.add_argument("--sanitize", action="store_true", help=sanitize)
    return p


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="HPDR portable scientific data reduction",
    )
    sub = p.add_subparsers(dest="command", required=True)
    after_run = _observe_parent("the run")
    after_drain = _observe_parent("draining")
    omp_threads = "worker threads (openmp adapter)"

    c = sub.add_parser("compress", help="compress a .npy array", parents=[
        _device_parent(
            threads=omp_threads,
            sanitize="run under the HPDR-San shadow sanitizer (serial/openmp; "
                     "slower, catches races and context misuse)"),
        _observe_parent("the run", " (chrome://tracing / Perfetto)"),
    ])
    c.add_argument("input")
    c.add_argument("output")
    c.add_argument("--method", default="mgard-x",
                   choices=["mgard-x", "zfp-x", "zfp-accuracy", "sz",
                            "huffman-x", "lz4"])
    c.add_argument("--eb", type=float, default=1e-3,
                   help="error bound (lossy methods)")
    c.add_argument("--mode", default="rel", choices=["rel", "abs"])
    c.add_argument("--rate", type=float, default=None,
                   help="bits/value (zfp-x)")
    c.add_argument("--tolerance", type=float, default=None,
                   help="absolute tolerance (zfp-accuracy)")
    c.set_defaults(func=cmd_compress)

    d = sub.add_parser("decompress", help="decompress an .hpdr container",
                       parents=[
        _device_parent(threads=omp_threads,
                       sanitize="run under the HPDR-San shadow sanitizer"),
        after_run,
    ])
    d.add_argument("input")
    d.add_argument("output")
    d.set_defaults(func=cmd_decompress, eb=1e-3, mode="rel", rate=None, tolerance=None)

    i = sub.add_parser("info", help="describe an .hpdr container")
    i.add_argument("input")
    i.set_defaults(func=cmd_info)

    r = sub.add_parser("refactor", help="refactor into progressive substreams",
                       parents=[after_run])
    r.add_argument("input")
    r.add_argument("output")
    r.add_argument("--eb", type=float, default=1e-3,
                   help="error bound of the full stream")
    r.add_argument("--mode", default="rel", choices=["rel", "abs"],
                   help="error-bound mode")
    r.add_argument("--bits-per-plane", type=int, default=8,
                   help="residual bitplane width")
    r.add_argument("--max-planes", type=int, default=3,
                   help="max bitplanes per group")
    r.add_argument("--store", default="blob", choices=["blob", "bp"],
                   help="output form: single HPGX file or BP store directory")
    r.add_argument("--aggregators", type=int, default=1,
                   help="(--store bp) aggregator subfiles")
    r.set_defaults(func=cmd_refactor)

    g = sub.add_parser("retrieve", help="retrieve a refactored prefix",
                       parents=[after_run])
    g.add_argument("input", help="HPGX archive or BP store directory")
    g.add_argument("output")
    g.add_argument("--error-bound", type=float, default=None, metavar="EPS",
                   help="fetch the minimal prefix achieving this absolute error")
    g.add_argument("--resolution", type=int, default=None, metavar="L",
                   help="fetch the first L resolution groups")
    g.set_defaults(func=cmd_retrieve)

    cp = sub.add_parser(
        "campaign",
        help="fault-tolerant chunked campaign with checkpoint/restart",
        parents=[_device_parent(), after_run],
    )
    cp.add_argument("input", help="input .npy array (chunked along axis 0)")
    cp.add_argument("outdir", help="campaign directory (checkpoints + output)")
    cp.add_argument("--method", default="mgard-x",
                    choices=["mgard-x", "zfp-x", "sz", "huffman-x", "lz4"])
    cp.add_argument("--eb", type=float, default=1e-3)
    cp.add_argument("--mode", default="rel", choices=["rel", "abs"])
    cp.add_argument("--rate", type=float, default=None,
                    help="bits/value (zfp-x)")
    cp.add_argument("--ranks", type=int, default=4,
                    help="simulated MPI ranks (threads)")
    cp.add_argument("--chunk-elems", type=int, default=64,
                    help="elements along axis 0 per chunk")
    cp.add_argument("--faults", default=None, metavar="PLAN.json",
                    help="fault-plan JSON (see the faultplan command)")
    cp.add_argument("--resume", action="store_true",
                    help="resume from the directory's checkpoint")
    cp.add_argument("--checkpoint-every", type=int, default=4,
                    help="manifest save cadence in chunks")
    cp.set_defaults(func=cmd_campaign, tolerance=None)

    fp = sub.add_parser("faultplan", help="write a fault-plan JSON")
    fp.add_argument("output")
    fp.add_argument("--seed", type=int, default=0)
    fp.add_argument("--system", default=None,
                    choices=["summit", "frontier", "jetstream2", "workstation"],
                    help="derive rates/drop-outs from this system's MTBF")
    fp.add_argument("--nodes", type=int, default=1024,
                    help="campaign size for --system")
    fp.add_argument("--hours", type=float, default=12.0,
                    help="campaign wall time for --system")
    for kind in ("device-batch", "timeout", "corrupt", "transport"):
        fp.add_argument(f"--{kind}-rate", type=float, default=0.0)
    fp.add_argument("--drop-rank", type=int, action="append",
                    help="rank to drop mid-run (repeatable)")
    fp.add_argument("--drop-after-chunks", type=int, default=1)
    fp.add_argument("--kill-after-chunks", type=int, default=None,
                    help="hard-kill the campaign after N chunks (restart drill)")
    fp.set_defaults(func=cmd_faultplan)

    sv = sub.add_parser(
        "serve", help="run the micro-batching reduction service (TCP)",
        parents=[_device_parent(threads=omp_threads), after_drain],
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=0,
                    help="TCP port (0 = ephemeral, printed at startup)")
    sv.add_argument("--workers", type=int, default=1,
                    help="batch-execution workers (each with its own CMM cache)")
    sv.add_argument("--processes", type=int, default=None, metavar="N",
                    help="run N worker *processes* instead of threads "
                         "(escapes the GIL for CPU-bound codec stages)")
    sv.add_argument("--max-batch", type=int, default=16,
                    help="flush a batch at this many requests")
    sv.add_argument("--max-bytes", type=int, default=4 << 20,
                    help="flush a batch at this many payload bytes")
    sv.add_argument("--max-latency-ms", type=float, default=2.0,
                    help="flush a batch this long after its first request")
    sv.add_argument("--max-pending", type=int, default=256,
                    help="admission limit (beyond it requests are rejected)")
    _add_tune_flags(sv, "service batch limits and adapter")
    sv.set_defaults(func=cmd_serve)

    cl = sub.add_parser(
        "cluster",
        help="run N service shards behind the consistent-hash router (TCP)",
        parents=[
            _device_parent(threads="worker threads per shard (openmp adapter)"),
            after_drain,
        ],
    )
    cl.add_argument("--host", default="127.0.0.1")
    cl.add_argument("--port", type=int, default=0,
                    help="TCP port (0 = ephemeral, printed at startup)")
    cl.add_argument("--shards", type=int, default=2,
                    help="shard count (hash-range owners)")
    cl.add_argument("--replicas", type=int, default=1,
                    help="replicas per shard (least-backlog balanced)")
    cl.add_argument("--backend", default="process",
                    choices=["task", "process"],
                    help="shard backend: in-loop tasks or real subprocesses")
    cl.add_argument("--workers", type=int, default=1,
                    help="batch-execution workers per shard")
    cl.add_argument("--max-batch", type=int, default=16,
                    help="per-shard batch flush size")
    cl.add_argument("--max-latency-ms", type=float, default=2.0,
                    help="per-shard batch flush deadline")
    cl.add_argument("--max-pending", type=int, default=256,
                    help="per-shard service admission limit")
    cl.add_argument("--shard-max-pending", type=int, default=None,
                    help="router-side admission slice per shard "
                         "(default: --max-pending)")
    cl.add_argument("--vnodes", type=int, default=64,
                    help="virtual nodes per shard on the hash ring")
    _add_tune_flags(cl, "per-shard batch limits and adapter")
    cl.set_defaults(func=cmd_cluster)

    bl = sub.add_parser(
        "blast", help="closed-loop load generator for a served service",
        parents=[_device_parent(adapter="(selfhost) service adapter",
                                threads="(selfhost) openmp worker threads")],
    )
    bl.add_argument("--host", default="127.0.0.1")
    bl.add_argument("--port", type=int, default=None,
                    help="port of a running `repro serve`")
    bl.add_argument("--selfhost", action="store_true",
                    help="start an in-process service on an ephemeral port "
                         "and blast it (single-command demo)")
    bl.add_argument("--clients", type=int, default=8,
                    help="concurrent closed-loop clients (connections)")
    bl.add_argument("--requests", type=int, default=50,
                    help="round-trips per client")
    bl.add_argument("--codec", default="zfp-x",
                    choices=["mgard-x", "zfp-x", "huffman-x", "lz4", "sz",
                             "mixed"],
                    help="codec under load; 'mixed' drives the full "
                         "mixed-spec roster (spreads over cluster shards)")
    bl.add_argument("--rate", type=float, default=8.0,
                    help="bits/value (zfp-x)")
    bl.add_argument("--eb", type=float, default=1e-3,
                    help="error bound (lossy codecs)")
    bl.add_argument("--shape", default="16x16",
                    help="payload array shape, e.g. 64x64")
    bl.add_argument("--seed", type=int, default=7)
    bl.add_argument("--verify", action="store_true",
                    help="check lossless round-trips for exact equality")
    bl.add_argument("--compress-only", action="store_true",
                    help="skip the decompress half of each round-trip")
    bl.add_argument("--workers", type=int, default=1,
                    help="(selfhost) service workers")
    bl.add_argument("--processes", type=int, default=None, metavar="N",
                    help="(selfhost) run N worker *processes* instead of "
                         "threads")
    bl.add_argument("--shm", action="store_true",
                    help="stage request payloads in shared memory instead "
                         "of the socket (local servers only)")
    bl.add_argument("--max-batch", type=int, default=16,
                    help="(selfhost) service flush size")
    bl.add_argument("--max-latency-ms", type=float, default=2.0,
                    help="(selfhost) service flush deadline")
    bl.add_argument("--cluster", action="store_true",
                    help="selfhost a sharded cluster front door and blast it")
    bl.add_argument("--shards", type=int, default=4,
                    help="(cluster) shard count")
    bl.add_argument("--replicas", type=int, default=1,
                    help="(cluster) replicas per shard")
    bl.add_argument("--backend", default="task",
                    choices=["task", "process"],
                    help="(cluster) shard backend")
    bl.add_argument("--shard-max-pending", type=int, default=None,
                    help="(cluster) router-side admission slice per shard")
    bl.add_argument("--kill-one", action="store_true",
                    help="(cluster) kill one shard mid-run — the failover "
                         "drill; the blast must still finish error-free")
    bl.add_argument("--kill-after-ms", type=float, default=150.0,
                    help="(cluster) delay before the --kill-one kill")
    _add_tune_flags(bl, "(selfhost) service batch limits and adapter")
    bl.set_defaults(func=cmd_blast)

    tn = sub.add_parser(
        "tune",
        help="tune the service micro-batch limits under load and persist "
             "the learned entry",
        parents=[_observe_parent("the campaign")],
    )
    _add_tuning_cache_flag(tn)
    tn.add_argument("--seed", type=int, default=0,
                    help="search seed (same seed => same proposal sequence)")
    tn.add_argument("--budget", type=int, default=None,
                    help="max configurations evaluated")
    tn.add_argument("--clients", type=int, default=16,
                    help="closed-loop clients in the probe blast")
    tn.set_defaults(func=cmd_tune)

    ds = sub.add_parser("datasets", help="print the Table III inventory")
    ds.set_defaults(func=cmd_datasets)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", False)
    if not (out or metrics):
        return args.func(args)
    # --trace/--metrics bracket the whole command, whichever it is.
    import repro.trace as trace

    trace.enable(clear=True)
    status = args.func(args)
    if out:
        path = trace.export_chrome(out)
        print(f"trace: {len(trace.events())} spans -> {path} "
              f"(load in chrome://tracing or Perfetto)")
    if metrics:
        print(trace.summary())
    return status


if __name__ == "__main__":
    sys.exit(main())
