"""Router behaviour: routing, backpressure, replicas, lifecycle, metrics."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro.trace as trace
from repro.cluster import (
    ClusterConfig,
    ClusterService,
    NoHealthyShards,
    ShardDied,
    ShardOverloaded,
    mixed_specs,
)
from repro.cluster.router import _Replica, _ShardGroup
from repro.resilience.policy import RetryPolicy
from repro.serve import (
    BatchLimits,
    CodecSpec,
    ServiceConfig,
    ServiceClosed,
    ServiceOverloaded,
)


def _run(coro):
    return asyncio.run(coro)


def _quick_config(**kw) -> ClusterConfig:
    kw.setdefault("service", ServiceConfig(
        limits=BatchLimits(max_batch=8, max_latency_s=0.002)
    ))
    kw.setdefault("health_interval_s", 0.0)  # request-path failover only
    return ClusterConfig(**kw)


SPEC = CodecSpec("zfp-x", rate=8.0)
DATA = np.arange(256, dtype=np.float32).reshape(16, 16)


# -- config validation ------------------------------------------------------
@pytest.mark.parametrize("kw", [
    {"shards": 0},
    {"replicas": 0},
    {"backend": "thread"},
    {"shard_max_pending": 0},
    {"connections_per_shard": 0},
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        ClusterConfig(**kw)


def test_per_shard_limit_defaults_to_service_max_pending():
    cfg = ClusterConfig(service=ServiceConfig(max_pending=77))
    assert cfg.per_shard_limit == 77
    assert ClusterConfig(shard_max_pending=5).per_shard_limit == 5


# -- routing ----------------------------------------------------------------
def test_requests_land_on_the_owning_shard():
    async def run():
        async with ClusterService(_quick_config(shards=4)) as cs:
            for spec in mixed_specs(6):
                owner = cs.owner("compress", spec, DATA)
                before = cs.stats.per_shard.get(owner, 0)
                await cs.compress(spec, DATA)
                assert cs.stats.per_shard[owner] == before + 1

    _run(run())


def test_traffic_spreads_across_shards():
    async def run():
        async with ClusterService(_quick_config(shards=4)) as cs:
            for spec in mixed_specs():
                await cs.compress(spec, DATA)
            return cs.stats.snapshot()

    snap = _run(run())
    assert snap["completed"] == 16
    assert len(snap["per_shard"]) >= 2, (
        f"16 distinct route keys all landed on {snap['per_shard']}"
    )


def test_roundtrip_byte_identity_through_cluster():
    async def run():
        reference = SPEC.build()
        want = reference.compress(DATA)
        async with ClusterService(_quick_config(shards=3)) as cs:
            got = await cs.compress(SPEC, DATA)
            back = await cs.decompress(SPEC, got)
        assert bytes(got) == bytes(want)
        assert np.array_equal(np.asarray(back), reference.decompress(want))

    _run(run())


def test_mixed_roster_tiles_match_the_direct_codec_under_the_sanitizer(monkeypatch):
    """The benchmark's ``cluster_mixed`` in miniature: every roster entry
    on a 64x64 tile through a 4-shard cluster, each stream and each
    decoded array equal to the serial codec's, shadow-checked."""
    from repro.adapters import get_adapter
    from repro.data import gaussian_random_field

    smooth = gaussian_random_field((64, 64), -2.0, seed=19, dtype=np.float32)
    stepped = np.round(smooth * 4).astype(np.float32)
    want = []
    for spec in mixed_specs(16):
        data = stepped if spec.name in ("huffman-x", "lz4") else smooth
        codec = spec.build(adapter=get_adapter("serial"))
        blob = codec.compress(data)
        want.append((spec, data, blob, codec.decompress(blob)))
    monkeypatch.setenv("HPDR_SAN", "1")

    async def run():
        config = ClusterConfig(
            shards=4, backend="task", shard_max_pending=64,
            service=ServiceConfig(
                limits=BatchLimits(max_batch=16, max_latency_s=0.002),
                workers=1, adapter="serial", tune="off"),
        )
        async with ClusterService(config) as cs:
            for spec, data, blob, back in want:
                for _ in range(2):      # cold context, then warm
                    got = await cs.compress(spec, data)
                    assert bytes(got) == blob, spec
                    decoded = np.asarray(await cs.decompress(spec, got))
                    assert decoded.dtype == back.dtype, spec
                    assert decoded.tobytes() == back.tobytes(), spec

    _run(run())


# -- backpressure -----------------------------------------------------------
def test_shard_overloaded_is_typed_and_counted():
    async def run():
        cfg = _quick_config(
            shards=1, shard_max_pending=1,
            service=ServiceConfig(
                limits=BatchLimits(max_batch=1, max_latency_s=0.02)
            ),
        )
        async with ClusterService(cfg) as cs:
            results = await asyncio.gather(
                *(cs.submit("compress", SPEC, DATA) for _ in range(8)),
                return_exceptions=True,
            )
            rejected = [r for r in results
                        if isinstance(r, ShardOverloaded)]
            completed = [r for r in results
                         if not isinstance(r, BaseException)]
            assert completed, "every request was shed"
            assert rejected, "no request was shed at cap 1"
            exc = rejected[0]
            assert exc.shard == "s0"
            assert exc.limit == 1
            # The typed error IS a ServiceOverloaded: every existing
            # client backoff path handles it unchanged.
            assert isinstance(exc, ServiceOverloaded)
            assert cs.stats.rejected == len(rejected)

    _run(run())


# -- replicas ---------------------------------------------------------------
def test_pick_prefers_least_backlog_healthy_replica():
    r0 = _Replica("s0r0", object(), threshold=2)
    r1 = _Replica("s0r1", object(), threshold=2)
    r0.inflight, r1.inflight = 3, 1
    group = _ShardGroup("s0", [r0, r1])
    assert group.pick() is r1
    r1.breaker.record_failure()
    r1.breaker.record_failure()
    assert not r1.healthy
    assert group.pick() is r0
    r0.breaker.record_failure()
    r0.breaker.record_failure()
    with pytest.raises(ShardDied):
        group.pick()
    assert not group.alive


def test_replicated_shards_serve_and_survive_one_replica_kill():
    async def run():
        cfg = _quick_config(shards=2, replicas=2, breaker_threshold=1,
                            retry=RetryPolicy(max_attempts=3,
                                              base_delay_s=0.0))
        async with ClusterService(cfg) as cs:
            owner = cs.owner("compress", SPEC, DATA)
            # Kill ONE replica of the owning shard: the group stays
            # alive, the other replica absorbs the range, no adoption.
            cs._groups[owner].replicas[0].shard.kill()
            for _ in range(4):
                await cs.compress(SPEC, DATA)
            assert cs.stats.adoptions == 0
            assert owner in cs.alive_shards

    _run(run())


# -- failover / no-healthy-shards ------------------------------------------
def test_all_shards_dead_raises_no_healthy_shards():
    async def run():
        cfg = _quick_config(shards=1, breaker_threshold=1,
                            retry=RetryPolicy(max_attempts=3,
                                              base_delay_s=0.0))
        async with ClusterService(cfg) as cs:
            cs.kill_shard("s0")
            with pytest.raises(NoHealthyShards):
                await cs.submit("compress", SPEC, DATA)
            assert cs.stats.adoptions == 1
            assert not cs.alive_shards

    _run(run())


def test_health_loop_adopts_dead_shard_without_traffic():
    async def run():
        cfg = _quick_config(shards=2, breaker_threshold=1,
                            health_interval_s=0.01)
        async with ClusterService(cfg) as cs:
            victim = cs.owner("compress", SPEC, DATA)
            cs.kill_shard(victim)

            async def adopted() -> None:
                while victim in cs.alive_shards:
                    await asyncio.sleep(0.01)

            # A cap, not a budget: the prober runs every 10 ms, but a
            # loaded host may take seconds to schedule it.
            await asyncio.wait_for(adopted(), timeout=30)
            # The survivor now owns the range; traffic flows on.
            blob = await cs.compress(SPEC, DATA)
            assert bytes(blob) == bytes(SPEC.build().compress(DATA))

    _run(run())


# -- lifecycle --------------------------------------------------------------
def test_submit_before_start_and_after_close_raises_closed():
    cs = ClusterService(_quick_config())
    with pytest.raises(ServiceClosed):
        _run(cs.submit("compress", SPEC, DATA))

    async def run():
        svc = await ClusterService(_quick_config()).start()
        await svc.close()
        await svc.close()  # idempotent
        with pytest.raises(ServiceClosed):
            await svc.submit("compress", SPEC, DATA)

    _run(run())


def test_drain_waits_for_inflight():
    async def run():
        async with ClusterService(_quick_config(shards=2)) as cs:
            tasks = [asyncio.ensure_future(cs.compress(s, DATA))
                     for s in mixed_specs(4)]
            await asyncio.sleep(0)
            await cs.drain()
            assert cs.inflight == 0
            assert all(t.done() for t in tasks)
            await asyncio.gather(*tasks)

    _run(run())


# -- observability ----------------------------------------------------------
def test_cluster_metrics_exported():
    async def run():
        async with ClusterService(_quick_config(shards=2,
                                                breaker_threshold=1)) as cs:
            for spec in mixed_specs(4):
                await cs.compress(spec, DATA)

    _run(run())
    prom = trace.render_prometheus()
    assert "hpdr_cluster_requests_total" in prom
    assert "hpdr_cluster_shards_alive" in prom


def test_failover_spans_emitted_when_tracing():
    async def run():
        cfg = _quick_config(shards=2, breaker_threshold=1,
                            retry=RetryPolicy(max_attempts=3,
                                              base_delay_s=0.0))
        async with ClusterService(cfg) as cs:
            cs.kill_shard(cs.owner("compress", SPEC, DATA))
            await cs.compress(SPEC, DATA)

    trace.enable(clear=True)
    try:
        _run(run())
        names = {e.name for e in trace.events()}
    finally:
        trace.disable()
    assert "cluster.failover" in names
    assert "resilience.retry" in names
    assert "cluster.adopt" in names
