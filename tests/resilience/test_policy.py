"""RetryPolicy, retry_call, CircuitBreaker."""

from __future__ import annotations

import pytest

from repro.resilience.errors import (
    AdapterTimeoutFault,
    CampaignKilled,
    DeviceBatchFault,
    ResilienceExhausted,
)
from repro.resilience.policy import (
    CircuitBreaker,
    RetryPolicy,
    retry_call,
    retry_step,
)
from repro.trace.metrics import REGISTRY


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=-1)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy().delay(0)


def test_backoff_is_exponential_capped_and_jitter_free():
    p = RetryPolicy(max_attempts=6, base_delay_s=0.01, multiplier=2.0,
                    max_delay_s=0.05)
    assert p.delays() == [0.01, 0.02, 0.04, 0.05, 0.05]
    assert p.delays() == p.delays()  # deterministic: no jitter


def test_retry_call_success_no_retries():
    calls = []
    out = retry_call(lambda: calls.append(1) or "ok", RetryPolicy())
    assert out == "ok" and len(calls) == 1


def test_retry_call_recovers_and_counts_retries():
    counter = REGISTRY.counter("hpdr_retries_total")
    before = counter.total()
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise DeviceBatchFault("gem.q", "boom")
        return 42

    slept = []
    out = retry_call(flaky, RetryPolicy(max_attempts=4, base_delay_s=0.01),
                     site="gem.q", sleep=slept.append)
    assert out == 42
    assert len(attempts) == 3
    assert slept == [0.01, 0.02]
    # Exactly the actual re-attempts are counted, not the first try.
    assert counter.total() == before + 2


def test_retry_budget_exhaustion_is_typed():
    def always_fail():
        raise AdapterTimeoutFault("dem.z", "wedged")

    with pytest.raises(ResilienceExhausted) as ei:
        retry_call(always_fail, RetryPolicy(max_attempts=3),
                   site="dem.z", sleep=lambda s: None)
    exc = ei.value
    assert exc.site == "dem.z"
    assert exc.attempts == 3
    assert isinstance(exc.last_error, AdapterTimeoutFault)
    assert isinstance(exc.__cause__, AdapterTimeoutFault)


def test_exhausting_failure_not_counted_as_retry():
    counter = REGISTRY.counter("hpdr_retries_total")
    before = counter.total()

    def always_fail():
        raise DeviceBatchFault("s", "no")

    with pytest.raises(ResilienceExhausted):
        retry_call(always_fail, RetryPolicy(max_attempts=3),
                   site="s", sleep=lambda s: None)
    # 3 attempts -> 2 re-attempts; the final failure is not a retry.
    assert counter.total() == before + 2


def test_non_transient_errors_propagate_immediately():
    calls = []

    def fatal():
        calls.append(1)
        raise CampaignKilled(7)

    with pytest.raises(CampaignKilled):
        retry_call(fatal, RetryPolicy(max_attempts=5), sleep=lambda s: None)
    assert len(calls) == 1

    def bug():
        calls.append(1)
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        retry_call(bug, RetryPolicy(max_attempts=5), sleep=lambda s: None)


def test_retry_on_is_configurable():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 2:
            raise KeyError("transient-for-this-caller")
        return "ok"

    out = retry_call(flaky, RetryPolicy(max_attempts=3),
                     retry_on=(KeyError,), sleep=lambda s: None)
    assert out == "ok" and len(calls) == 2


def test_retry_step_counts_and_returns_the_delay_until_the_budget_is_spent():
    counter = REGISTRY.counter("hpdr_retries_total")
    before = counter.value(site="s.step")
    policy = RetryPolicy(max_attempts=3, base_delay_s=0.01)
    fault = DeviceBatchFault("s.step")
    assert [retry_step(policy, a, "s.step", fault) for a in (1, 2)] == \
        [0.01, 0.02]
    assert counter.value(site="s.step") == before + 2
    with pytest.raises(ResilienceExhausted) as ei:
        retry_step(policy, 3, "s.step", fault)
    assert ei.value.__cause__ is fault
    assert counter.value(site="s.step") == before + 2


def test_callbacks_feed_the_breaker():
    breaker = CircuitBreaker(threshold=2)
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 2:
            raise DeviceBatchFault("s")
        return 1

    retry_call(
        flaky, RetryPolicy(max_attempts=3), sleep=lambda s: None,
        on_failure=lambda exc: breaker.record_failure(),
        on_success=breaker.record_success,
    )
    assert breaker.consecutive_failures == 0
    assert breaker.total_failures == 1
    assert not breaker.is_open


def test_circuit_breaker_opens_and_resets():
    b = CircuitBreaker(threshold=3)
    for _ in range(2):
        b.record_failure()
    assert not b.is_open
    b.record_success()
    for _ in range(2):
        b.record_failure()
    assert not b.is_open  # success reset the consecutive count
    b.record_failure()
    assert b.is_open
    assert b.total_failures == 5
    b.reset()
    assert not b.is_open and b.consecutive_failures == 0
    with pytest.raises(ValueError):
        CircuitBreaker(threshold=0)
