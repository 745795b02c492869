"""Fault-injecting and self-healing device-adapter wrappers.

Layering (innermost first)::

    real adapter  →  FaultyAdapter(plan)  →  ResilientAdapter(policy)

:class:`FaultyAdapter` raises scheduled
:class:`~repro.resilience.errors.DeviceBatchFault` /
:class:`~repro.resilience.errors.AdapterTimeoutFault` *before*
delegating, so a retried call re-executes the whole batch on intact
state.  :class:`ResilientAdapter` retries per the policy and, when a
call's budget is exhausted or its circuit breaker opens, *demotes* the
device: all further work routes to the fallback adapter (serial by
default — the "most compatible processor" of §II-B) for the wrapper's
lifetime.  Portability makes demotion safe: every backend produces
bit-identical streams, so a campaign rank or a serve worker that lost
its device finishes with identical bytes, only slower.

Both wrappers satisfy the full :class:`~repro.adapters.base.DeviceAdapter`
contract (both execution models, ``map_tasks``, ``close``), so any
compressor runs on them unmodified.
"""

from __future__ import annotations

import numpy as np

from repro.adapters.base import DeviceAdapter, _DelegatingAdapter
from repro.resilience.errors import (
    AdapterTimeoutFault,
    DeviceBatchFault,
    ResilienceExhausted,
)
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.policy import CircuitBreaker, RetryPolicy, retry_call
from repro.trace.metrics import REGISTRY as _METRICS
from repro.trace.tracer import Span, TRACER as _TRACER


class FaultyAdapter(_DelegatingAdapter):
    """Injects scheduled device faults in front of any adapter."""

    family = "faulty"

    def __init__(self, inner: DeviceAdapter,
                 injector: FaultInjector | FaultPlan) -> None:
        super().__init__(inner)
        if isinstance(injector, FaultPlan):
            injector = FaultInjector(injector)
        self.injector = injector

    def _maybe_fail(self, site: str) -> None:
        if self.injector.draw("timeout", site):
            raise AdapterTimeoutFault(site, "simulated driver timeout")
        if self.injector.draw("device_batch", site):
            raise DeviceBatchFault(site, "simulated device batch failure")

    def execute_group_batch(self, functor, batch: np.ndarray) -> np.ndarray:
        self._maybe_fail(f"gem.{functor.name}")
        return self.inner.execute_group_batch(functor, batch)

    def execute_domain(self, functor, data):
        self._maybe_fail(f"dem.{functor.name}")
        return self.inner.execute_domain(functor, data)


class ResilientAdapter(_DelegatingAdapter):
    """Retry + circuit-breaker + graceful degradation around an adapter.

    Parameters
    ----------
    inner:
        The (possibly faulty) primary adapter.
    fallback:
        Adapter to demote to when the primary is given up on.  Defaults
        to a fresh serial adapter; pass ``None`` to disable demotion
        (exhaustion then propagates).
    policy / breaker:
        Retry budget and consecutive-failure threshold.
    sleep:
        Backoff sleeper (injectable so tests pay no wall-clock).
    """

    family = "resilient"

    def __init__(
        self,
        inner: DeviceAdapter,
        fallback: DeviceAdapter | None = "serial",
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        sleep=None,
    ) -> None:
        super().__init__(inner)
        if fallback == "serial":
            from repro.adapters.serial import SerialAdapter

            fallback = SerialAdapter(spec=inner.spec)
        self.fallback = fallback
        self.policy = policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self._sleep = sleep
        self.degraded = False

    # -- degradation -------------------------------------------------------
    def _active(self) -> DeviceAdapter:
        return self.fallback if self.degraded else self.inner

    def _degrade(self, site: str, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        _METRICS.counter(
            "hpdr_degradations_total",
            "devices demoted to their fallback adapter",
        ).inc(family=self.inner.family)
        if _TRACER.enabled:
            with Span(_TRACER, "resilience.degrade", "resilience",
                      {"site": site, "from": self.inner.family,
                       "to": self.fallback.family, "reason": reason}):
                pass

    # -- guarded execution -------------------------------------------------
    def _guarded(self, site: str, call):
        """Run ``call`` against the active adapter with retry + demotion."""
        if (not self.degraded and self.breaker.is_open
                and self.fallback is not None):
            self._degrade(site, "circuit breaker open")
        try:
            return retry_call(
                lambda: call(self._active()),
                self.policy,
                site=site,
                sleep=self._sleep,
                on_failure=lambda exc: self.breaker.record_failure(),
                on_success=self.breaker.record_success,
            )
        except ResilienceExhausted:
            if self.degraded or self.fallback is None:
                raise
            self._degrade(site, "retry budget exhausted")
            return call(self.fallback)

    def execute_group_batch(self, functor, batch: np.ndarray) -> np.ndarray:
        return self._guarded(
            f"gem.{functor.name}",
            lambda a: a.execute_group_batch(functor, batch),
        )

    def execute_domain(self, functor, data):
        return self._guarded(
            f"dem.{functor.name}",
            lambda a: a.execute_domain(functor, data),
        )

    # Route task mapping through the *active* adapter so a demoted
    # device also stops fanning tasks out to a dead pool.
    def map_tasks(self, fn, items) -> list:
        return self._active().map_tasks(fn, items)

    def close(self) -> None:
        """Release the primary and the fallback adapter."""
        self.inner.close()
        if self.fallback is not None:
            self.fallback.close()


def resilient_adapter(
    family: str = "serial",
    plan: FaultPlan | None = None,
    injector: FaultInjector | None = None,
    policy: RetryPolicy | None = None,
    breaker: CircuitBreaker | None = None,
    fallback: DeviceAdapter | None = "serial",
    sleep=None,
    **adapter_kwargs,
) -> ResilientAdapter:
    """Build the standard chain: ``get_adapter → FaultyAdapter → ResilientAdapter``.

    With no plan/injector the chain omits the faulty layer and simply
    hardens a real adapter (useful against genuinely flaky backends).
    """
    from repro.adapters.base import get_adapter

    base: DeviceAdapter = get_adapter(family, **adapter_kwargs)
    if injector is None and plan is not None:
        injector = FaultInjector(plan)
    inner = FaultyAdapter(base, injector) if injector is not None else base
    return ResilientAdapter(
        inner, fallback=fallback, policy=policy, breaker=breaker, sleep=sleep
    )
