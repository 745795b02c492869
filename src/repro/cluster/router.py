"""HPDR-Cluster: the consistent-hash router fronting N service shards.

:class:`ClusterService` exposes the exact request surface of a single
:class:`~repro.serve.service.ReductionService` (``submit`` /
``compress`` / ``decompress`` / ``drain`` / ``close``, async context
manager, and the transport's ``admit``) — so
:func:`repro.serve.net.serve_tcp` serves it unchanged and
:func:`repro.testing.check_service` passes byte-identically against the
cluster front door.  Behind that surface:

* **sharding** — each request's :func:`~repro.cluster.hashring.route_key`
  (``codec, dtype, shape-class``) resolves through a consistent-hash
  ring with virtual nodes; all traffic of one reduction configuration
  lands on one shard, where the serve layer's micro-batcher and pinned
  CMM contexts do their work;
* **replicas** — a shard may run ``replicas`` identical backends;
  requests go to the least-backlog healthy replica (the same policy the
  service applies to its workers, one level up);
* **backpressure** — the router tracks in-flight requests per shard
  and sheds load with a typed
  :class:`~repro.serve.errors.ShardOverloaded` *before* forwarding, so
  a saturated shard costs no transport round-trip (and clients reuse
  their existing :class:`~repro.serve.errors.ServiceOverloaded` backoff
  path);
* **failover** — every shard failure feeds a per-replica
  :class:`~repro.resilience.policy.CircuitBreaker`; when a shard's last
  replica opens, its hash range is *adopted* by the survivors
  (``ring.remove`` — the ULFM-style shrink the campaign runner applies
  to ranks, applied to shards) and the failed request retries on the
  new owner under the cluster's
  :class:`~repro.resilience.policy.RetryPolicy`.  Determinism makes
  the retry loss-free: the survivor produces byte-identical streams.

Observability: always-on ``hpdr_cluster_requests_total`` (per shard),
``hpdr_cluster_rejected_total``, ``hpdr_cluster_failovers_total``,
``hpdr_cluster_adoptions_total`` counters and the
``hpdr_cluster_shards_alive`` gauge, plus ``cluster.failover`` /
``cluster.adopt`` spans when tracing is enabled.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro.cluster.errors import NoHealthyShards, ShardDied
from repro.cluster.hashring import DEFAULT_VNODES, HashRing, route_key
from repro.cluster.shard import InProcShard, ProcessShard
from repro.resilience.errors import ResilienceExhausted
from repro.resilience.policy import CircuitBreaker, RetryPolicy, retry_step
from repro.serve.errors import (
    ServiceClosed,
    ServiceOverloaded,
    ShardOverloaded,
)
from repro.serve.service import Reply, ServiceConfig
from repro.serve.spec import CodecSpec
from repro.serve.worker import ERR, OK
from repro.trace.metrics import REGISTRY as _METRICS
from repro.trace.tracer import Span, TRACER as _TRACER

#: shard backend families.
BACKENDS = ("task", "process")


@dataclass
class ClusterConfig:
    """Knobs of one :class:`ClusterService`.

    ``service`` is the per-shard :class:`ServiceConfig` — every shard
    replica runs an identical service built from it.  ``backend`` picks
    in-loop shards (``"task"``, deterministic, zero spawn cost) or real
    subprocesses (``"process"``, true parallelism, genuine SIGKILL
    failure drills).  ``shard_max_pending`` is the router-side
    admission slice per shard (defaults to the shard service's own
    ``max_pending``, so the router sheds load the shard would have
    shed, without the round-trip).
    """

    shards: int = 2
    replicas: int = 1
    backend: str = "task"
    service: ServiceConfig = field(default_factory=ServiceConfig)
    shard_max_pending: int | None = None
    vnodes: int = DEFAULT_VNODES
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_threshold: int = 2
    health_interval_s: float = 0.25
    connections_per_shard: int = 8

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.shard_max_pending is not None and self.shard_max_pending < 1:
            raise ValueError("shard_max_pending must be >= 1")
        if self.connections_per_shard < 1:
            raise ValueError("connections_per_shard must be >= 1")

    @property
    def per_shard_limit(self) -> int:
        limit = self.shard_max_pending
        return limit if limit is not None else self.service.max_pending


class ClusterStats:
    """Always-on operational counters of the router."""

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.errors = 0
        self.failovers = 0
        self.adoptions = 0
        self.peak_inflight = 0
        self.per_shard: dict[str, int] = {}

    def snapshot(self) -> dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors": self.errors,
            "failovers": self.failovers,
            "adoptions": self.adoptions,
            "peak_inflight": self.peak_inflight,
            "per_shard": dict(sorted(self.per_shard.items())),
        }


class _Replica:
    """One shard backend plus its health state (router-side view)."""

    def __init__(self, name: str, shard: Any, threshold: int) -> None:
        self.name = name
        self.shard = shard
        self.breaker = CircuitBreaker(threshold=threshold)
        self.inflight = 0

    @property
    def healthy(self) -> bool:
        return not self.breaker.is_open


class _ShardGroup:
    """A hash-range owner: ``replicas`` identical backends."""

    def __init__(self, sid: str, replicas: list[_Replica]) -> None:
        self.sid = sid
        self.replicas = replicas

    @property
    def alive(self) -> bool:
        return any(r.healthy for r in self.replicas)

    @property
    def inflight(self) -> int:
        return sum(r.inflight for r in self.replicas)

    def pick(self) -> _Replica:
        """Least-backlog healthy replica (raises if none)."""
        healthy = [r for r in self.replicas if r.healthy]
        if not healthy:
            raise ShardDied(self.sid, "has no healthy replicas")
        return min(healthy, key=lambda r: r.inflight)


class ClusterService:
    """Sharded multi-service front door (ReductionService-compatible)."""

    def __init__(self, config: ClusterConfig | None = None,
                 **overrides: Any) -> None:
        if config is None:
            config = ClusterConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        self.config = config
        self.stats = ClusterStats()
        self._groups: dict[str, _ShardGroup] = {}
        self._ring = HashRing(vnodes=config.vnodes)
        self._health_task: asyncio.Task[None] | None = None
        self._admitted: set[asyncio.Task[Any]] = set()  # admit()'s tasks
        self._inflight = 0
        self._idle: asyncio.Event | None = None
        self._started = False
        self._closing = False
        self._closed = False
        self._ctr_requests = _METRICS.counter(
            "hpdr_cluster_requests_total", "requests routed by the cluster"
        )
        self._ctr_rejected = _METRICS.counter(
            "hpdr_cluster_rejected_total",
            "requests shed by per-shard backpressure",
        ).child(reason="backpressure")
        self._ctr_failovers = _METRICS.counter(
            "hpdr_cluster_failovers_total",
            "requests re-routed after a shard failure",
        )
        self._ctr_adoptions = _METRICS.counter(
            "hpdr_cluster_adoptions_total",
            "hash ranges adopted from dead shards",
        )
        self._gauge_alive = _METRICS.gauge(
            "hpdr_cluster_shards_alive", "shards currently on the ring"
        )
        self._req_children: dict[str, Any] = {}

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "ClusterService":
        if self._started:
            return self
        cfg = self.config
        self._idle = asyncio.Event()
        self._idle.set()
        shards: list[Any] = []
        for s in range(cfg.shards):
            sid = f"s{s}"
            replicas = []
            for r in range(cfg.replicas):
                name = f"{sid}r{r}"
                backend: Any
                if cfg.backend == "process":
                    backend = ProcessShard(
                        name, cfg.service,
                        connections=cfg.connections_per_shard,
                    )
                else:
                    backend = InProcShard(name, cfg.service)
                shards.append(backend)
                replicas.append(
                    _Replica(name, backend, cfg.breaker_threshold)
                )
            self._groups[sid] = _ShardGroup(sid, replicas)
            self._ring.add(sid)
        await asyncio.gather(*(b.start() for b in shards))
        self._gauge_alive.set(len(self._ring))
        if cfg.health_interval_s > 0:
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop()
            )
        self._started = True
        return self

    async def __aenter__(self) -> "ClusterService":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    # -- introspection --------------------------------------------------
    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def alive_shards(self) -> frozenset[str]:
        return self._ring.nodes

    def owner(self, op: str, spec: CodecSpec, payload: Any) -> str:
        """Shard currently owning this request's hash range."""
        return self._ring.lookup(route_key(spec, op, payload))

    # -- health / failover ----------------------------------------------
    async def _health_loop(self) -> None:
        """Background prober: dead shards are adopted without traffic."""
        while True:
            await asyncio.sleep(self.config.health_interval_s)
            for group in self._groups.values():
                if group.sid not in self._ring:
                    continue
                for replica in group.replicas:
                    if not replica.healthy:
                        continue
                    try:
                        await replica.shard.ping()
                    except asyncio.CancelledError:
                        raise
                    except Exception:
                        replica.breaker.record_failure()
                        if replica.breaker.is_open:
                            self._adopt_if_dead(group)
                    else:
                        replica.breaker.record_success()

    def _adopt_if_dead(self, group: _ShardGroup) -> None:
        """Remove a fully-dead shard from the ring (survivors adopt)."""
        if group.alive or group.sid not in self._ring:
            return
        self._ring.remove(group.sid)
        self.stats.adoptions += 1
        self._ctr_adoptions.inc()
        self._gauge_alive.set(len(self._ring))
        if _TRACER.enabled:
            with Span(_TRACER, "cluster.adopt", "cluster",
                      {"shard": group.sid,
                       "survivors": len(self._ring)}):
                pass

    def kill_shard(self, sid: str) -> None:
        """Abruptly kill every replica of ``sid`` (failover drill).

        Only the backends die here — the router *discovers* the death
        through failed requests and health probes, exactly as it would
        a real crash, then adopts the hash range.
        """
        for replica in self._groups[sid].replicas:
            replica.shard.kill()

    # -- submission -----------------------------------------------------
    async def submit(self, op: str, spec: CodecSpec, payload: Any) -> Any:
        """Route one request; failover-retry until the budget runs dry.

        Raises :class:`ShardOverloaded` when the owner shard's
        admission slice is full (shed load, never forwarded),
        :class:`NoHealthyShards` when the whole cluster is down, and
        :class:`~repro.resilience.errors.ResilienceExhausted` when
        every retry attempt died under it.
        """
        if not self._started or self._closed or self._closing:
            raise ServiceClosed("submit")
        key = route_key(spec, op, payload)
        policy = self.config.retry
        limit = self.config.per_shard_limit
        self._inflight += 1
        assert self._idle is not None
        self._idle.clear()
        self.stats.submitted += 1
        self.stats.peak_inflight = max(self.stats.peak_inflight,
                                       self._inflight)
        last: BaseException | None = None
        try:
            for attempt in range(1, policy.max_attempts + 1):
                try:
                    sid = self._ring.lookup(key)
                except LookupError:
                    raise NoHealthyShards(self.config.shards) from None
                group = self._groups[sid]
                if group.inflight >= limit:
                    self.stats.rejected += 1
                    self._ctr_rejected.inc()
                    raise ShardOverloaded(sid, group.inflight, limit)
                replica = group.pick()
                replica.inflight += 1
                try:
                    value = await replica.shard.submit(op, spec, payload)
                except ShardDied as exc:
                    last = exc
                    replica.breaker.record_failure()
                    if replica.breaker.is_open:
                        self._adopt_if_dead(group)
                    self.stats.failovers += 1
                    self._ctr_failovers.inc(shard=sid)
                    if _TRACER.enabled:
                        with Span(_TRACER, "cluster.failover", "cluster",
                                  {"shard": sid, "attempt": attempt}):
                            pass
                    try:
                        delay = retry_step(policy, attempt,
                                           "cluster.forward", exc)
                    except ResilienceExhausted:
                        self.stats.errors += 1
                        raise
                    await asyncio.sleep(delay)
                except ServiceOverloaded as exc:
                    # The shard's own admission control fired (shared
                    # shard, or raced slots): surface as typed
                    # per-shard backpressure, breaker untouched.
                    self.stats.rejected += 1
                    self._ctr_rejected.inc()
                    if isinstance(exc, ShardOverloaded):
                        raise
                    raise ShardOverloaded(sid, exc.depth, exc.limit) from exc
                except Exception:
                    # A request-level failure (codec error): the shard
                    # answered, so it is healthy — propagate untouched.
                    replica.breaker.record_success()
                    self.stats.errors += 1
                    raise
                else:
                    replica.breaker.record_success()
                    self.stats.completed += 1
                    self.stats.per_shard[sid] = \
                        self.stats.per_shard.get(sid, 0) + 1
                    ctr = self._req_children.get(sid)
                    if ctr is None:
                        ctr = self._req_children[sid] = \
                            self._ctr_requests.child(shard=sid)
                    ctr.inc()
                    return value
                finally:
                    replica.inflight -= 1
            raise ResilienceExhausted(  # pragma: no cover - loop exits above
                "cluster.forward", policy.max_attempts, last
            )
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    def admit(self, op: str, spec: CodecSpec, payload: Any, reply: Reply) -> None:
        """The transport's door: :meth:`submit`, failover included, run
        as a task whose outcome ``reply(tag, value)`` receives.  Raises
        :class:`ServiceClosed` at once after :meth:`close` began."""
        if not self._started or self._closed or self._closing:
            raise ServiceClosed("submit")
        task = asyncio.get_running_loop().create_task(self.submit(op, spec, payload))
        self._admitted.add(task)
        task.add_done_callback(partial(self._answer, reply))

    def _answer(self, reply: Reply, task: asyncio.Task[Any]) -> None:
        self._admitted.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None:
            reply(OK, task.result())
        else:
            reply(ERR, exc)

    async def compress(self, spec: CodecSpec, data: np.ndarray) -> bytes:
        out = await self.submit("compress", spec, data)
        return bytes(out) if isinstance(out, (bytearray, memoryview)) else out

    async def decompress(self, spec: CodecSpec, blob: bytes) -> np.ndarray:
        return np.asarray(await self.submit("decompress", spec, blob))

    async def retrieve(
        self,
        spec: CodecSpec,
        archive: bytes,
        *,
        eps: float | None = None,
        resolution: int | None = None,
    ) -> np.ndarray:
        """Bounded retrieval from an ``HPGX`` progressive archive."""
        from repro.progressive import make_retrieve_request

        payload = make_retrieve_request(archive, eps=eps, resolution=resolution)
        return np.asarray(await self.submit("retrieve", spec, payload))

    # -- drain / shutdown -----------------------------------------------
    async def drain(self) -> None:
        """Wait until no request is in flight at the router."""
        if not self._started:
            return
        if self._inflight:
            assert self._idle is not None
            await self._idle.wait()

    async def close(self) -> None:
        """Stop admission, drain, stop probing, close every shard."""
        if not self._started or self._closed:
            self._closed = True
            return
        self._closing = True
        await self.drain()
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
            self._health_task = None
        backends = [
            replica.shard
            for group in self._groups.values()
            for replica in group.replicas
        ]
        await asyncio.gather(*(b.close() for b in backends))
        self._closed = True
