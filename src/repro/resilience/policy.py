"""Retry/backoff policy engine and circuit breaker.

Design points, all in service of *deterministic* recovery:

* **No jitter.**  Backoff delays are a pure function of the attempt
  number (``base · multiplier^(attempt-1)``, capped).  Jitter exists to
  decorrelate thundering herds against shared services; here the shared
  "service" is a simulated device, and determinism — the same fault
  plan producing the same recovery sequence — is worth more.
* **Typed exhaustion.**  When the budget runs dry the caller gets
  :class:`~repro.resilience.errors.ResilienceExhausted` carrying the
  site, attempt count and last underlying error, never a bare re-raise
  of attempt N's exception.
* **Observable.**  Every re-attempt increments ``hpdr_retries_total``
  (labelled by site) unconditionally, and records a
  ``resilience.retry`` span when tracing is on — so the acceptance
  check "faults injected == retries performed" is a metrics query.

The :class:`CircuitBreaker` implements graceful degradation: after N
*consecutive* failures it opens, and the
:class:`~repro.resilience.adapter.ResilientAdapter` responds by demoting
the failing device to its fallback (the serial adapter).  Because every
HPDR backend produces bit-identical streams (the portability
guarantee), demotion changes throughput, never bytes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.resilience.errors import InjectedFault, ResilienceExhausted
from repro.trace.metrics import REGISTRY as _METRICS
from repro.trace.tracer import Span, TRACER as _TRACER
from repro.util import CorruptStreamError

#: exception types a retry loop treats as transient by default.
DEFAULT_RETRY_ON: tuple[type[BaseException], ...] = (
    InjectedFault,
    CorruptStreamError,
    TimeoutError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a hard attempt budget.

    ``max_attempts`` counts *total* tries: 4 means one initial attempt
    plus up to three retries.  Delays are deterministic (no jitter, see
    module docstring); tests pass ``sleep=lambda s: None`` to
    :func:`retry_call` so backoff costs no wall-clock.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.001
    multiplier: float = 2.0
    max_delay_s: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt N (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(
            self.base_delay_s * self.multiplier ** (attempt - 1),
            self.max_delay_s,
        )

    def delays(self) -> list[float]:
        """The full deterministic backoff schedule (len = budget - 1)."""
        return [self.delay(a) for a in range(1, self.max_attempts)]


class CircuitBreaker:
    """Opens after ``threshold`` consecutive failures.

    Not thread-safe by design: each :class:`ResilientAdapter` owns one
    breaker per device, and a device's operations are serialized by the
    adapter contract.
    """

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.consecutive_failures = 0
        self.total_failures = 0
        self._open = False

    @property
    def is_open(self) -> bool:
        return self._open

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        self.total_failures += 1
        if self.consecutive_failures >= self.threshold:
            self._open = True

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def reset(self) -> None:
        self.consecutive_failures = 0
        self._open = False


def retry_step(
    policy: RetryPolicy, attempt: int, site: str, exc: BaseException
) -> float:
    """Account for failed attempt ``attempt`` at ``site``; return the
    backoff to wait before the next one.

    Raises :class:`ResilienceExhausted` when the budget is spent.
    Otherwise counts the retry on ``hpdr_retries_total`` and records a
    ``resilience.retry`` span.  The one retry step of :func:`retry_call`
    (which sleeps on the delay) and of the cluster router (which awaits
    it).
    """
    if attempt >= policy.max_attempts:
        raise ResilienceExhausted(site, attempt, exc) from exc
    _METRICS.counter(
        "hpdr_retries_total", "recovery re-attempts performed"
    ).inc(site=site)
    if _TRACER.enabled:
        with Span(_TRACER, "resilience.retry", "resilience",
                  {"site": site, "attempt": attempt}):
            pass
    return policy.delay(attempt)


def retry_call(
    fn: Callable[[], object],
    policy: RetryPolicy | None = None,
    *,
    site: str = "",
    retry_on: Iterable[type[BaseException]] = DEFAULT_RETRY_ON,
    sleep: Callable[[float], None] | None = None,
    on_failure: Callable[[BaseException], None] | None = None,
    on_success: Callable[[], None] | None = None,
):
    """Run ``fn`` under ``policy``; raise ``ResilienceExhausted`` on dry budget.

    Only exceptions matching ``retry_on`` are retried — anything else
    (a real bug, ``CampaignKilled``) propagates immediately.
    ``on_failure`` fires per caught failure (circuit-breaker feed),
    ``on_success`` once on the successful attempt.
    """
    policy = policy or RetryPolicy()
    retry_on = tuple(retry_on)
    sleep = sleep if sleep is not None else time.sleep
    last: BaseException | None = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            result = fn()
        except retry_on as exc:
            last = exc
            if on_failure is not None:
                on_failure(exc)
            sleep(retry_step(policy, attempt, site, exc))
        else:
            if on_success is not None:
                on_success()
            return result
    raise ResilienceExhausted(site, policy.max_attempts, last)  # pragma: no cover
