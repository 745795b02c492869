"""FaultyAdapter / ResilientAdapter: retries, degradation, bit-equality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adapters.base import _DelegatingAdapter, get_adapter
from repro.compressors.zfp.compressor import ZFPX
from repro.resilience.adapter import (
    FaultyAdapter,
    ResilientAdapter,
    resilient_adapter,
)
from repro.resilience.errors import (
    AdapterTimeoutFault,
    DeviceBatchFault,
    ResilienceExhausted,
)
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.policy import CircuitBreaker, RetryPolicy
from repro.trace.metrics import REGISTRY


class _Square:
    name = "square"

    def apply(self, groups):
        return groups * groups


def _field():
    return np.linspace(0, 1, 32 * 16, dtype=np.float32).reshape(32, 16)


def test_faulty_adapter_injects_deterministically():
    base = get_adapter("serial")
    batch = np.arange(8, dtype=np.float32).reshape(2, 2, 2)

    def run_once():
        fa = FaultyAdapter(base, FaultPlan(seed=2, device_batch_rate=0.5))
        kinds = []
        for _ in range(12):
            try:
                out = fa.execute_group_batch(_Square(), batch)
                np.testing.assert_array_equal(out, batch * batch)
                kinds.append("ok")
            except DeviceBatchFault:
                kinds.append("fault")
        return kinds

    seq = run_once()
    assert seq == run_once()
    assert "fault" in seq and "ok" in seq


def test_faulty_adapter_timeout_drawn_before_device_batch():
    fa = FaultyAdapter(
        get_adapter("serial"),
        FaultPlan(seed=0, timeout_rate=1.0, device_batch_rate=1.0),
    )
    with pytest.raises(AdapterTimeoutFault):
        fa.execute_group_batch(_Square(), np.ones((1, 2, 2), np.float32))


def test_resilient_adapter_retries_through_faults():
    # A lenient breaker isolates the retry path: with a 50% fault rate a
    # default threshold-3 breaker would legitimately open and demote.
    chain = resilient_adapter(
        plan=FaultPlan(seed=2, device_batch_rate=0.5),
        policy=RetryPolicy(max_attempts=8),
        breaker=CircuitBreaker(threshold=100),
        sleep=lambda s: None,
    )
    batch = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    for _ in range(10):
        np.testing.assert_array_equal(
            chain.execute_group_batch(_Square(), batch), batch * batch
        )
    assert not chain.degraded


def test_degradation_on_exhaustion_keeps_bytes_identical():
    counter = REGISTRY.counter("hpdr_degradations_total")
    before = counter.total()
    # Every attempt faults: the budget exhausts, then the fallback
    # serial adapter runs the call once — output must be correct.
    chain = resilient_adapter(
        plan=FaultPlan(seed=0, device_batch_rate=1.0),
        policy=RetryPolicy(max_attempts=3),
        sleep=lambda s: None,
    )
    batch = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    out = chain.execute_group_batch(_Square(), batch)
    np.testing.assert_array_equal(out, batch * batch)
    assert chain.degraded
    assert counter.total() == before + 1
    # Degraded: further calls go straight to the fallback, no faults.
    np.testing.assert_array_equal(
        chain.execute_group_batch(_Square(), batch), batch * batch
    )


def test_exhaustion_propagates_without_fallback():
    chain = resilient_adapter(
        plan=FaultPlan(seed=0, device_batch_rate=1.0),
        policy=RetryPolicy(max_attempts=2),
        fallback=None,
        sleep=lambda s: None,
    )
    with pytest.raises(ResilienceExhausted):
        chain.execute_group_batch(_Square(), np.ones((1, 2, 2), np.float32))


def test_open_breaker_pre_demotes():
    breaker = CircuitBreaker(threshold=1)
    breaker.record_failure()
    assert breaker.is_open
    inner = FaultyAdapter(
        get_adapter("serial"), FaultPlan(seed=0, device_batch_rate=1.0)
    )
    chain = ResilientAdapter(inner, breaker=breaker, sleep=lambda s: None)
    batch = np.ones((1, 2, 2), np.float32)
    # Breaker already open: the faulty primary is never consulted.
    np.testing.assert_array_equal(
        chain.execute_group_batch(_Square(), batch), batch
    )
    assert chain.degraded
    assert inner.injector.count() == 0


def test_wrappers_satisfy_adapter_contract():
    chain = resilient_adapter(plan=FaultPlan(seed=1), sleep=lambda s: None)
    assert chain.map_tasks(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
    assert "resilient" in chain.name


def test_compressed_stream_identical_under_faults():
    """The portability guarantee under fire: a heavily faulted, retried,
    possibly degraded chain produces byte-identical streams."""
    data = _field()
    clean = ZFPX(rate=8.0, adapter=get_adapter("serial")).compress(data)
    for seed in (0, 1, 2):
        chain = resilient_adapter(
            plan=FaultPlan(seed=seed, device_batch_rate=0.6, timeout_rate=0.3),
            policy=RetryPolicy(max_attempts=6),
            sleep=lambda s: None,
        )
        assert ZFPX(rate=8.0, adapter=chain).compress(data) == clean


def test_close_releases_primary_and_fallback():
    closed = []

    class _Closing(_DelegatingAdapter):
        family = "closing"

        def close(self):
            closed.append(self)

    primary, fallback = (_Closing(get_adapter("serial")) for _ in range(2))
    ResilientAdapter(primary, fallback=fallback).close()
    assert closed == [primary, fallback]
