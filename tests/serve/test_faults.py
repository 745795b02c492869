"""Fault injection under load: retries accounted, bytes unchanged.

The acceptance check is the same metrics query the campaign runner
uses — every injected fault must surface as exactly one retry on
``hpdr_retries_total`` — plus the stronger serving guarantee: responses
under a fault storm are byte-identical to a fault-free run (a worker
recovers through its ``ResilientAdapter``: a retry re-executes the
launch on intact state, and exhaustion demotes the worker to the serial
fallback, which is byte-identical by portability).
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.adapters import get_adapter
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import RetryPolicy
from repro.serve import BatchLimits, CodecSpec, ReductionService, ServiceConfig
from repro.serve.worker import ERR, OK, Worker
from repro.trace.metrics import REGISTRY as METRICS

SPECS = [CodecSpec("zfp-x", rate=8.0), CodecSpec("mgard-x"),
         CodecSpec("huffman-x")]


def _payloads():
    rng = np.random.default_rng(11)
    return [
        np.ascontiguousarray(rng.standard_normal((16, 16)).astype(np.float32))
        for _ in range(30)
    ]


def _run_workload(fault_plan):
    payloads = _payloads()

    async def run():
        cfg = ServiceConfig(
            limits=BatchLimits(max_batch=8, max_latency_s=0.002),
            fault_plan=fault_plan,
            # Deep budget: no request may exhaust (exhaustion would break
            # the 1 fault : 1 retry accounting this test pins).
            retry=RetryPolicy(max_attempts=10),
            retry_sleep=lambda s: None,  # backoff costs no wall-clock
        )
        async with ReductionService(cfg) as svc:
            specs = [SPECS[i % len(SPECS)] for i in range(len(payloads))]
            blobs = await asyncio.gather(
                *(svc.compress(s, p) for s, p in zip(specs, payloads))
            )
            backs = await asyncio.gather(
                *(svc.decompress(s, b) for s, b in zip(specs, blobs))
            )
            stats = svc.stats
        assert stats.errors == 0
        assert stats.completed == 2 * len(payloads)
        return blobs, [np.asarray(b) for b in backs]

    return asyncio.run(run())


def test_faults_under_load_are_counted_and_byte_identical():
    faults0 = METRICS.counter("hpdr_faults_injected_total").total()
    retries0 = METRICS.counter("hpdr_retries_total").total()

    plan = FaultPlan(seed=3, device_batch_rate=0.05, timeout_rate=0.03)
    got_blobs, got_backs = _run_workload(plan)

    faults = METRICS.counter("hpdr_faults_injected_total").total() - faults0
    retries = METRICS.counter("hpdr_retries_total").total() - retries0
    assert faults > 0, "the plan injected nothing; the test is vacuous"
    assert faults == retries, (
        f"every injected fault must cause exactly one retry "
        f"(faults={faults}, retries={retries})"
    )

    # Fault-free reference run: identical bytes, identical arrays.
    want_blobs, want_backs = _run_workload(None)
    assert got_blobs == want_blobs
    for got, want in zip(got_backs, want_backs):
        assert np.array_equal(got, want)


def test_fault_free_run_injects_nothing():
    faults0 = METRICS.counter("hpdr_faults_injected_total").total()
    _run_workload(None)
    assert METRICS.counter("hpdr_faults_injected_total").total() == faults0


def test_poisoned_request_degrades_not_fails():
    """A launch whose retry budget dies demotes the worker to its serial
    fallback; every request still gets the right answer."""
    data = np.ones((16, 16), dtype=np.float32)
    spec = CodecSpec("zfp-x", rate=8.0)
    want = spec.build().compress(data)

    async def run():
        cfg = ServiceConfig(
            limits=BatchLimits(max_batch=8, max_latency_s=0.002),
            # Every GEM call faults: the primary adapter is unusable.
            fault_plan=FaultPlan(seed=0, device_batch_rate=1.0),
            retry=RetryPolicy(max_attempts=2),
            retry_sleep=lambda s: None,
        )
        async with ReductionService(cfg) as svc:
            blobs = await asyncio.gather(
                *(svc.compress(spec, data) for _ in range(4))
            )
            demoted = [w.adapter.degraded for w in svc.workers]
            stats = svc.stats
        return blobs, demoted, stats

    degr0 = METRICS.counter("hpdr_degradations_total").total()
    blobs, demoted, stats = asyncio.run(run())
    assert all(b == want for b in blobs), (
        "degraded responses must be byte-identical (portability)"
    )
    assert stats.errors == 0
    assert all(demoted)
    assert METRICS.counter("hpdr_degradations_total").total() > degr0


def test_corrupt_stream_is_the_clients_error_not_a_device_fault():
    """A truncated stream fails while it is parsed, outside any launch:
    it is answered at once with its own error, sleeps through no
    backoff, and neither demotes the worker nor fails its batchmates."""
    spec = CodecSpec("zfp-x", rate=8.0)
    good = [spec.build().compress(p) for p in _payloads()[:7]]
    bad = good[0][: len(good[0]) // 2]
    sleeps: list[float] = []
    worker = Worker(0, get_adapter("serial"), get_adapter("serial"),
                    sleep=sleeps.append)
    degr0 = METRICS.counter("hpdr_degradations_total").total()
    try:
        alone = worker.run_payloads("decompress", spec, [bad])
        batch = worker.run_payloads("decompress", spec,
                                    good[:3] + [bad] + good[3:])
    finally:
        worker.close()
    assert sleeps == []
    assert [tag for tag, _ in alone] == [ERR]
    assert [tag for tag, _ in batch] == [OK] * 3 + [ERR] + [OK] * 4
    assert METRICS.counter("hpdr_degradations_total").total() == degr0
    assert not worker.adapter.degraded
