"""Soak/stress: >=1k mixed-codec requests, zero-alloc steady state.

The claims are exactly-once delivery and the CMM's zero-alloc steady
state, not a wall-clock budget (throughput is the benchmark's job).
Compatible with ``HPDR_SAN=1``: the service builds its adapters through
``get_adapter``, so the sanitizer wraps them automatically.  After
warm-up waves, the worker's ContextCache accounting must not move —
pinned serve contexts, codec buffers and the batch-staging scratch are
all at their high-water marks.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.check import assert_steady_state
from repro.serve import BatchLimits, CodecSpec, ReductionService, ServiceConfig

#: requests per wave (compress + decompress halves).
_WAVE = 48
#: requests the soak serves at least.
_MIN_REQUESTS = 1000

SPECS = [CodecSpec("zfp-x", rate=8.0), CodecSpec("huffman-x"),
         CodecSpec("lz4")]


def test_soak_mixed_traffic_zero_alloc_steady_state():
    rng = np.random.default_rng(5)
    payloads = {
        s.key(): np.ascontiguousarray(
            rng.standard_normal((16, 16)).astype(np.float32)
        )
        for s in SPECS
    }
    loop = asyncio.new_event_loop()
    requests = 0
    try:
        cfg = ServiceConfig(
            limits=BatchLimits(max_batch=16, max_latency_s=0.002),
            max_pending=4 * _WAVE,
            cache_capacity=128,
        )
        svc = loop.run_until_complete(ReductionService(cfg).start())

        async def wave() -> int:
            specs = [SPECS[i % len(SPECS)] for i in range(_WAVE)]
            blobs = await asyncio.gather(
                *(svc.compress(s, payloads[s.key()]) for s in specs)
            )
            backs = await asyncio.gather(
                *(svc.decompress(s, b) for s, b in zip(specs, blobs))
            )
            assert len(backs) == len(blobs) == _WAVE
            return 2 * _WAVE

        def run_wave() -> None:
            nonlocal requests
            requests += loop.run_until_complete(wave())

        # Zero-alloc steady state on the worker's CMM cache: warm-up
        # waves may allocate (context creation, scratch ramp); after
        # them the accounting must freeze.
        worker_cache = svc.workers[0].cache
        assert_steady_state(run_wave, worker_cache, warmup=3, reps=3)

        # Soak to the request floor.
        while requests < _MIN_REQUESTS:
            run_wave()

        stats = svc.stats
        # Exactly-once bookkeeping over the whole soak.
        assert stats.submitted == requests
        assert stats.completed == requests
        assert stats.errors == 0
        assert stats.cancelled == 0
        assert stats.rejected == 0
        assert svc.inflight == 0
        assert stats.batches > 0
        assert stats.mean_batch_size > 1.0, (
            "mixed concurrent traffic must actually batch"
        )
        # The pinned-context design keeps the cache hot: after warm-up
        # every serve context lookup is a hit.
        assert worker_cache.hit_rate > 0.9

        loop.run_until_complete(svc.close())
    finally:
        loop.close()
    assert requests >= _MIN_REQUESTS
