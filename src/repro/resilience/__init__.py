"""HPDR-Resilience: fault injection, recovery and campaign restart.

The paper's evaluation runs on 1,024 nodes (§VII); at that scale,
device faults, driver timeouts, corrupted payloads and node losses are
routine, and a reduction campaign that cannot absorb them cannot
finish.  This package makes HPDR campaigns survivable — and makes the
failure regime *testable* by injecting every fault class from a seeded,
deterministic schedule.

Modules
-------
``faults``
    :class:`FaultPlan` (seeded, serializable schedule) and
    :class:`FaultInjector` (deterministic per-site draws);
    :func:`plan_for_system` derives rates from a machine model's MTBF.
``policy``
    :class:`RetryPolicy` (jitter-free exponential backoff),
    :class:`CircuitBreaker`, :func:`retry_step` (one failed attempt's
    accounting and backoff) and :func:`retry_call` with typed
    :class:`ResilienceExhausted` on a dry budget.
``adapter``
    :class:`FaultyAdapter` (injects device faults) and
    :class:`ResilientAdapter` (retry + breaker + demotion to serial).
``campaign``
    :class:`CampaignRunner` — the integrated fault-tolerant scale-out
    runner.  Its BP output is its only durable store: chunks are
    appended in id order, each verified by read-back, and
    ``run(resume=True)`` continues after the last good record,
    byte-identical to an uninterrupted run.  :class:`CampaignManifest`
    holds the campaign's identity and per-rank progress.

Observability: injections, retries and degradations surface as
``hpdr_faults_injected_total``, ``hpdr_retries_total`` and
``hpdr_degradations_total`` in :mod:`repro.trace.metrics`, plus spans
when tracing is enabled.
"""

from repro.resilience.adapter import (
    FaultyAdapter,
    ResilientAdapter,
    resilient_adapter,
)
from repro.resilience.campaign import (
    CampaignManifest,
    CampaignResult,
    CampaignRunner,
    cmm_digest,
    output_digest,
    reconstruct,
)
from repro.resilience.errors import (
    AdapterTimeoutFault,
    CampaignKilled,
    CorruptPayloadFault,
    DeviceBatchFault,
    InjectedFault,
    RankDropout,
    ResilienceExhausted,
    TransportFault,
)
from repro.resilience.faults import FaultInjector, FaultPlan, plan_for_system
from repro.resilience.policy import CircuitBreaker, RetryPolicy, retry_call, retry_step

__all__ = [
    "AdapterTimeoutFault",
    "CampaignKilled",
    "CampaignManifest",
    "CampaignResult",
    "CampaignRunner",
    "CircuitBreaker",
    "CorruptPayloadFault",
    "DeviceBatchFault",
    "FaultInjector",
    "FaultPlan",
    "FaultyAdapter",
    "InjectedFault",
    "RankDropout",
    "ResilienceExhausted",
    "ResilientAdapter",
    "RetryPolicy",
    "TransportFault",
    "cmm_digest",
    "output_digest",
    "plan_for_system",
    "reconstruct",
    "resilient_adapter",
    "retry_call",
    "retry_step",
]
