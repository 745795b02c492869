"""Process-backend smoke: real subprocess shards over loopback TCP.

One small end-to-end pass — spawn is expensive, so the heavy failover
coverage lives in the (deterministic, in-loop) task-backend suites and
the blast CLI drill; this file pins that the subprocess plumbing
(spawn, port handshake, connection pool, SIGTERM drain) actually works.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterService, mixed_specs
from repro.serve import BatchLimits, ServiceConfig

DATA = np.arange(1024, dtype=np.float32).reshape(32, 32)


def test_process_backend_roundtrips_and_drains():
    async def run():
        cfg = ClusterConfig(
            shards=2,
            backend="process",
            service=ServiceConfig(
                limits=BatchLimits(max_batch=8, max_latency_s=0.002)
            ),
        )
        async with ClusterService(cfg) as cs:
            for spec in mixed_specs(4):
                want = spec.build().compress(DATA)
                blob = await cs.compress(spec, DATA)
                assert bytes(blob) == bytes(want)
                back = await cs.decompress(spec, bytes(blob))
                assert np.array_equal(
                    np.asarray(back), spec.build().decompress(want)
                )
            assert cs.stats.completed == 8
            assert len(cs.stats.per_shard) == 2

    asyncio.run(run())


def test_process_shard_rejects_unpicklable_retry_sleep():
    from repro.cluster.shard import ProcessShard

    cfg = ServiceConfig(retry_sleep=lambda s: None)
    with pytest.raises(ValueError):
        ProcessShard("p0", cfg)
