"""The auto-tuner: search orchestration + the byte-identity guard.

:class:`AutoTuner` wires a :class:`~repro.tune.search.TuningStrategy`
to a *runner* — any callable mapping a configuration dict to a
:class:`~repro.tune.measure.Measurement` — and enforces the one rule a
learning component must never break: **tuning never changes bytes**.
The default configuration is measured first; every candidate whose
output digest differs from the default's is rejected (told an infinite
cost, counted in ``hpdr_tune_rejected_total``) no matter how fast it
ran.  Only byte-identical winners are persisted.

:func:`tune_service` is the campaign behind ``repro tune``: it searches
the service knob space under closed-loop load and persists the winner.
:func:`apply_service_tuning` is the serve/cluster startup hook: it
resolves a service-level entry (micro-batch limits + worker device)
from the cache and rewrites the :class:`~repro.serve.service.ServiceConfig`
before any worker is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.trace.metrics import REGISTRY as _METRICS
from repro.tune.cache import TuneEntry, TuningCache
from repro.tune.knobs import KnobSpace, TuningKey, service_knob_space
from repro.tune.measure import Measurement, digest_bytes
from repro.tune.search import CoordinateDescent, config_key

@dataclass
class TuneReport:
    """Everything one tuning run learned (and proved)."""

    key: TuningKey
    space: KnobSpace
    best_config: dict[str, Any]
    best_cost: float
    default_cost: float
    digest: str
    evaluations: int = 0
    rejected: int = 0
    history: list[Measurement] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        return (config_key(self.best_config)
                != config_key(self.space.default_config())
                and self.best_cost < self.default_cost)

    @property
    def speedup(self) -> float:
        if self.best_cost <= 0 or self.default_cost <= 0:
            return 1.0
        return self.default_cost / self.best_cost

    def entry(self, source: str = "") -> TuneEntry:
        return TuneEntry(
            config=dict(self.best_config),
            cost_s=self.best_cost,
            default_cost_s=self.default_cost,
            digest=self.digest,
            source=source,
        )


class AutoTuner:
    """Searches one key's knob space under the byte-identity guard."""

    def __init__(
        self,
        space: KnobSpace,
        *,
        seed: int = 0,
        epsilon: float = 0.1,
        max_rounds: int = 4,
        budget: int | None = 16,
        strategy_factory: Callable[..., Any] = CoordinateDescent,
    ) -> None:
        self.space = space
        self.seed = seed
        self.epsilon = epsilon
        self.max_rounds = max_rounds
        self.budget = budget
        self.strategy_factory = strategy_factory
        self._ctr_rejected = _METRICS.counter(
            "hpdr_tune_rejected_total",
            "candidate configs rejected by the byte-identity guard",
        )

    def tune(
        self,
        key: TuningKey,
        runner: Callable[[dict[str, Any]], Measurement],
        *,
        cache: TuningCache | None = None,
        source: str = "",
    ) -> TuneReport:
        """Search the space for ``key``; optionally persist the winner.

        ``runner`` executes one configuration and reports its cost and
        output digest.  The default configuration anchors both the
        speedup baseline and the byte-identity digest every candidate
        must match.
        """
        default_config = self.space.default_config()
        baseline = runner(dict(default_config))
        if not baseline.digest:
            raise ValueError(
                "runner returned no digest for the default config — the "
                "byte-identity guard cannot operate without one"
            )
        report = TuneReport(
            key=key,
            space=self.space,
            best_config=dict(default_config),
            best_cost=baseline.seconds,
            default_cost=baseline.seconds,
            digest=baseline.digest,
        )
        report.history.append(baseline)
        strategy = self.strategy_factory(
            self.space, seed=self.seed, epsilon=self.epsilon,
            max_rounds=self.max_rounds,
        )
        evaluations = 0
        while self.budget is None or evaluations < self.budget:
            config = strategy.ask()
            if config is None:
                break
            self.space.validate(config)
            if config_key(config) == config_key(default_config):
                strategy.tell(config, baseline.seconds)
                evaluations += 1
                continue
            m = runner(dict(config))
            report.history.append(m)
            evaluations += 1
            if m.digest != baseline.digest:
                # The guard: a faster config that changes even one
                # output byte is worthless — reduction streams are
                # archival artifacts.
                report.rejected += 1
                self._ctr_rejected.inc(codec=key.codec)
                strategy.tell(config, math.inf)
                continue
            strategy.tell(config, m.seconds)
        best_config, best_cost = strategy.best()
        if math.isfinite(best_cost) and best_cost < report.best_cost:
            report.best_config = best_config
            report.best_cost = best_cost
        report.evaluations = evaluations
        if cache is not None:
            entry = report.entry(source=source)
            # Belt and braces for the persistence invariant the
            # hypothesis suite pins: an entry only ever records the
            # default-config digest.
            assert entry.digest == baseline.digest
            cache.put(key, entry)
        return report


# ---------------------------------------------------------------------------
# Serve/cluster startup hook
# ---------------------------------------------------------------------------
def apply_service_tuning(cfg: Any) -> Any:
    """Rewrite a :class:`ServiceConfig` from its cached tuned entry.

    Called by ``ReductionService.start()`` (and therefore by every
    cluster shard) before any worker is built, when ``cfg.tune`` is
    ``auto``/``force``.  A hit rewrites the micro-batch limits and the
    worker device; a miss — including a stale-schema or corrupt cache
    file, which loads as empty — leaves the config untouched.  Metrics:
    ``hpdr_tune_cache_hits_total`` / ``hpdr_tune_cache_misses_total``
    with ``codec=__service__``.
    """
    import dataclasses

    from repro.serve.batcher import BatchLimits
    from repro.tune.knobs import SERVICE_CODEC

    if getattr(cfg, "tune", "off") == "off":
        return cfg
    cache = TuningCache(cfg.tuning_cache)
    key = TuningKey.for_service()
    entry = cache.get(key)
    space = service_knob_space()
    if entry is None or not space.contains(entry.config):
        _METRICS.counter(
            "hpdr_tune_cache_misses_total", "tuning-cache lookups that missed"
        ).inc(codec=SERVICE_CODEC)
        return cfg
    _METRICS.counter(
        "hpdr_tune_cache_hits_total", "tuning-cache lookups that hit"
    ).inc(codec=SERVICE_CODEC)
    c = entry.config
    return dataclasses.replace(
        cfg,
        limits=BatchLimits(
            max_batch=int(c["max_batch"]),
            max_bytes=int(c["max_bytes"]),
            max_latency_s=float(c["max_latency_ms"]) / 1e3,
        ),
        adapter=str(c["adapter"]),
        threads=int(c["threads"]) if c["adapter"] == "openmp" else None,
    )


def service_runner(
    *,
    clients: int = 16,
    requests_per_client: int = 8,
    shape: tuple[int, int] = (16, 16),
    codec: str = "zfp-x",
) -> Callable[[dict[str, Any]], Measurement]:
    """A runner measuring one service configuration under closed-loop load.

    Cost is the blast wall time for a fixed request count; the digest
    covers one compressed answer (byte-stability means every config
    must produce the identical stream — the guard re-proves it).
    """

    def run(config: dict[str, Any]) -> Measurement:
        import asyncio

        from repro.serve import (
            BatchLimits,
            CodecSpec,
            ReductionService,
            ServiceConfig,
            default_payloads,
            run_blast,
        )
        from repro.serve.loadgen import ServiceClient

        spec = CodecSpec(codec)
        payloads = default_payloads([spec], shape=shape)

        async def drive() -> tuple[float, bytes]:
            svc_cfg = ServiceConfig(
                limits=BatchLimits(
                    max_batch=int(config["max_batch"]),
                    max_bytes=int(config["max_bytes"]),
                    max_latency_s=float(config["max_latency_ms"]) / 1e3,
                ),
                adapter=str(config["adapter"]),
                threads=(int(config["threads"])
                         if config["adapter"] == "openmp" else None),
                max_pending=4 * clients,
            )
            async with ReductionService(svc_cfg) as svc:
                blob = await svc.compress(spec, payloads[spec])
                report = await run_blast(
                    lambda i: _aclient(svc),
                    clients=clients,
                    requests_per_client=requests_per_client,
                    specs=[spec],
                    payloads=payloads,
                )
                return report["wall_s"], bytes(blob)

        async def _aclient(svc: Any) -> Any:
            return ServiceClient(svc)

        wall_s, blob = asyncio.run(drive())
        return Measurement(config=dict(config), seconds=wall_s,
                           digest=digest_bytes(blob))

    return run


def tune_service(
    cache: TuningCache,
    *,
    seed: int = 0,
    budget: int | None = 8,
    clients: int = 16,
    requests_per_client: int = 8,
) -> TuneReport:
    """Learn (and persist) the service-level micro-batch entry."""
    space = service_knob_space()
    tuner = AutoTuner(space, seed=seed, budget=budget)
    key = TuningKey.for_service()
    return tuner.tune(
        key,
        service_runner(clients=clients,
                       requests_per_client=requests_per_client),
        cache=cache,
        source="repro tune",
    )
