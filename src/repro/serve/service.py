"""HPDR-Serve: the asyncio micro-batching reduction service.

:class:`ReductionService` is the concurrent front end over the HPDR
codecs: callers ``await submit(...)`` individual compress/decompress
requests (the TCP transport calls :meth:`~ReductionService.admit` with
a reply callback instead); the service groups them by :meth:`CodecSpec.batch_key
<repro.serve.spec.CodecSpec.batch_key>` with a deadline-based
micro-batcher and executes whole batches on a pool of workers that
keep pinned CMM contexts per ``(codec, dtype, shape-class)`` — the
paper's 3-queue/2-buffer philosophy (amortize per-call costs across
chunks) applied to request traffic.

Guarantees:

* **exactly-once** — every admitted request is answered exactly once:
  with its result, with the exception its execution raised, or not at
  all if the caller withdrew it first (the batcher then drops it);
* **byte-stability** — a batched response is byte-for-byte identical
  to the single-shot codec call (the property/conformance suites pin
  this against every codec and adapter);
* **admission control** — at most ``max_pending`` requests in flight;
  beyond it :meth:`admit` (and so :meth:`submit`) raises a typed
  :class:`~repro.serve.errors.ServiceOverloaded` *before* queueing, so
  shed load costs no worker time (backpressure, not collapse);
* **fault isolation** — each worker recovers through its
  :class:`~repro.resilience.adapter.ResilientAdapter` (per-launch retry,
  circuit breaker, demotion to the serial adapter), and a batch that
  raises is re-run one request at a time: one poisoned request never
  fails its batch;
* **graceful drain** — :meth:`close` stops admission, flushes every
  open batch, waits for in-flight work, then releases worker pools.

Observability: always-on operational counters
(``hpdr_serve_requests_total``, ``hpdr_serve_rejected_total``,
``hpdr_serve_batches_total``) plus — when :mod:`repro.trace` is
enabled — ``serve.batch``/``serve.flush``/``serve.drain`` spans and
queue-depth / batch-size / latency histograms.  :attr:`stats` keeps an
always-on latency reservoir for p50/p95/p99 reporting regardless of
tracing.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Collection

import numpy as np

from repro.resilience.policy import RetryPolicy
from repro.serve.batcher import (ADMISSION_LIMIT, BatchLimits, Flush,
                                 MicroBatchPlanner)
from repro.serve.errors import ServiceClosed, ServiceOverloaded
from repro.serve.spec import CodecSpec, payload_nbytes
from repro.serve.worker import OK, Worker
from repro.trace.metrics import REGISTRY as _METRICS
from repro.trace.tracer import TRACER as _TRACER, span

#: histogram buckets for batch sizes (requests per flush).
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
#: histogram buckets for request latency (seconds).
_LATENCY_BUCKETS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0)


@dataclass
class ServiceConfig:
    """Knobs of one :class:`ReductionService` instance.

    ``workers`` is the number of worker threads, each with its own
    adapter and CMM cache.  ``adapter``/``threads`` pick the worker
    device (``threads`` only with ``openmp``).  ``retry``,
    ``retry_sleep`` and ``fault_plan`` feed each worker's adapter chain,
    ``FaultyAdapter(plan) → ResilientAdapter(retry, fallback=serial)``:
    ``retry`` is the per-launch budget, ``retry_sleep`` the backoff
    sleeper (injectable so tests pay no wall-clock), and ``fault_plan``
    (a :class:`~repro.resilience.faults.FaultPlan`) the fault injector —
    the hook the fault-under-load suite drives.  A worker demoted to
    serial stays there until the service restarts.
    """

    limits: BatchLimits = field(default_factory=BatchLimits)
    max_pending: int = ADMISSION_LIMIT
    workers: int = 1
    adapter: str = "serial"
    threads: int | None = None
    cache_capacity: int = 64
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    retry_sleep: Any = None
    fault_plan: Any = None
    #: only ``"off"``: the service tuner was replaced by the default
    #: flush count (:data:`~repro.serve.batcher.ADMISSION_LIMIT`).  Kept
    #: so callers that still pass ``tune="off"`` run unchanged.
    tune: str = "off"

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.threads is not None and self.adapter != "openmp":
            raise ValueError("--threads only applies to --adapter openmp")
        if self.tune != "off":
            raise ValueError(
                f"tune={self.tune!r}: the service tuner was removed; "
                f"the flush count defaults to the admission limit"
            )


def percentile(values: Collection[float], pct: float) -> float:
    """Nearest-rank percentile (0..100) over ``values``; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1))))
    return ordered[idx]


class ServiceStats:
    """Always-on operational counters + latency reservoir."""

    def __init__(self, reservoir: int = 8192) -> None:
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.cancelled = 0
        self.errors = 0
        self.batches = 0
        self.batched_requests = 0
        self.peak_queue_depth = 0
        self._latencies: deque[float] = deque(maxlen=reservoir)

    def observe_latency(self, seconds: float) -> None:
        self._latencies.append(seconds)

    def latency_percentile(self, pct: float) -> float:
        """Percentile (0..100) over the retained latency reservoir."""
        return percentile(self._latencies, pct)

    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0

    def snapshot(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "errors": self.errors,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "peak_queue_depth": self.peak_queue_depth,
            "p50_ms": round(self.latency_percentile(50) * 1e3, 3),
            "p95_ms": round(self.latency_percentile(95) * 1e3, 3),
            "p99_ms": round(self.latency_percentile(99) * 1e3, 3),
        }


#: how an admitted request is answered: ``reply(tag, value)`` with
#: ``tag`` :data:`~repro.serve.worker.OK` and the result, or
#: :data:`~repro.serve.worker.ERR` and the exception.
Reply = Callable[[str, Any], None]


def _settle(future: asyncio.Future[Any], tag: str, value: Any) -> None:
    """The reply of a :meth:`ReductionService.submit` awaiting ``future``."""
    if not future.done():
        if tag == OK:
            future.set_result(value)
        else:
            future.set_exception(value)


@dataclass(slots=True)
class _Request:
    """One admitted request travelling through batcher and worker;
    ``reply`` is None once it has been answered or withdrawn."""

    op: str
    spec: CodecSpec
    payload: Any
    nbytes: int
    reply: Reply | None
    submitted_at: float
    key: Any


class ReductionService:
    """Async micro-batching front end over the HPDR codecs.

    Use as an async context manager::

        async with ReductionService(config) as svc:
            blob = await svc.compress(CodecSpec("zfp-x", rate=8), data)
            back = await svc.decompress(CodecSpec("zfp-x", rate=8), blob)
    """

    def __init__(self, config: ServiceConfig | None = None, **overrides) -> None:
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            config = dataclasses.replace(config, **overrides)
        self.config = config
        self.stats = ServiceStats()
        self._planner = MicroBatchPlanner(self.config.limits)
        self._workers: list[Worker] = []
        self._executors: list[ThreadPoolExecutor] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._timer: asyncio.TimerHandle | None = None
        self._timer_when: float | None = None
        self._idle_check_scheduled = False
        self._inflight = 0
        self._idle: asyncio.Event | None = None
        self._started = False
        self._closing = False
        self._closed = False
        # Prebound metric counters: the submit/dispatch hot path pays
        # one dict update per event — never a registry lookup, never a
        # label-key sort (label combinations are cached as children).
        self._ctr_requests = _METRICS.counter(
            "hpdr_serve_requests_total", "requests admitted by the service"
        )
        self._ctr_rejected = _METRICS.counter(
            "hpdr_serve_rejected_total", "requests shed by admission control"
        ).child(reason="overload")
        self._ctr_batches = _METRICS.counter(
            "hpdr_serve_batches_total", "batches flushed to workers"
        )
        self._req_children: dict[tuple[str, str], Any] = {}
        self._batch_children: dict[str, Any] = {}

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "ReductionService":
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        cfg = self.config
        from repro.adapters import get_adapter

        for wid in range(cfg.workers):
            kwargs = {}
            if cfg.threads is not None:
                kwargs["num_threads"] = cfg.threads
            adapter = get_adapter(cfg.adapter, **kwargs)
            if cfg.fault_plan is not None:
                from repro.resilience.adapter import FaultyAdapter

                adapter = FaultyAdapter(adapter, cfg.fault_plan)
            worker = Worker(
                wid,
                adapter,
                get_adapter("serial"),
                cache_capacity=cfg.cache_capacity,
                policy=cfg.retry,
                sleep=cfg.retry_sleep,
            )
            self._workers.append(worker)
            self._executors.append(
                ThreadPoolExecutor(1, thread_name_prefix=f"hpdr-serve-w{wid}")
            )
        self._started = True
        return self

    async def __aenter__(self) -> "ReductionService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    @property
    def workers(self) -> list[Worker]:
        return self._workers

    @property
    def inflight(self) -> int:
        return self._inflight

    # -- submission -----------------------------------------------------
    def admit(self, op: str, spec: CodecSpec, payload: Any, reply: Reply) -> _Request:
        """Admit one request; ``reply(tag, value)`` answers it later.

        Raises :class:`ServiceOverloaded` when the bounded queue is
        full and :class:`ServiceClosed` after :meth:`close` began, both
        before anything is queued.  Otherwise the request is answered
        exactly once, from the event loop, by one call of ``reply`` —
        with the result, or with the exception its execution
        ultimately produced — unless it is withdrawn first.  ``payload``
        must stay valid until then.  Returns the admitted request (what
        :meth:`submit` withdraws on cancellation).
        """
        if not self._started or self._closing or self._closed:
            raise ServiceClosed("submit")
        if self._inflight >= self.config.max_pending:
            self.stats.rejected += 1
            self._ctr_rejected.inc()
            raise ServiceOverloaded(self._inflight, self.config.max_pending)

        loop = self._loop
        now = loop.time()
        nbytes = payload_nbytes(payload)
        key = spec.batch_key(op, payload)
        req = _Request(
            op=op,
            spec=spec,
            payload=payload,
            nbytes=nbytes,
            reply=reply,
            submitted_at=now,
            key=key,
        )
        self._inflight += 1
        self._idle.clear()
        self.stats.submitted += 1
        self.stats.peak_queue_depth = max(self.stats.peak_queue_depth,
                                          self._inflight)
        ctr = self._req_children.get((op, spec.name))
        if ctr is None:
            ctr = self._req_children[(op, spec.name)] = \
                self._ctr_requests.child(op=op, codec=spec.name)
        ctr.inc()
        if _TRACER.enabled:
            _METRICS.histogram(
                "hpdr_serve_queue_depth",
                "requests in flight at admission",
                buckets=_BATCH_BUCKETS,
            ).observe(self._inflight)
        flushes = self._planner.add(key, req, nbytes, now)
        for flush in flushes:
            self._dispatch(flush)
        if not flushes and not self._idle_check_scheduled:
            # Idle-flush check, deferred to the end of this event-loop
            # tick so every submission of a same-tick burst lands first
            # (checking at admission would flush the burst's first
            # request alone and desynchronize the rest).
            self._idle_check_scheduled = True
            loop.call_soon(self._idle_check)
        self._arm_timer()
        return req

    async def submit(self, op: str, spec: CodecSpec, payload: Any) -> Any:
        """Admit one request and await its answer.

        Raises what :meth:`admit` raises, or the exception the
        request's execution ultimately produced.  Cancelling the
        awaiting task withdraws the request: if it has not been flushed
        to a worker yet it is dropped entirely.
        """
        if self._loop is None:
            raise ServiceClosed("submit")
        future = self._loop.create_future()
        req = self.admit(op, spec, payload, partial(_settle, future))
        try:
            return await future
        finally:
            if future.cancelled():
                self._withdraw(req)

    def _withdraw(self, req: _Request) -> None:
        """Release a cancelled request's slot and drop it from its open
        batch; a request already answered is left alone."""
        if req.reply is None:
            return
        req.reply = None
        self._inflight -= 1
        self.stats.cancelled += 1
        if self._planner.discard(req.key, req):
            self._arm_timer()
        if self._inflight == 0:
            self._idle.set()

    async def compress(self, spec: CodecSpec, data: np.ndarray) -> bytes:
        return await self.submit("compress", spec, data)

    async def decompress(self, spec: CodecSpec, blob: bytes) -> np.ndarray:
        return await self.submit("decompress", spec, blob)

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
        return await self.submit("retrieve", spec, payload)

    # -- batching machinery ---------------------------------------------
    def _arm_timer(self) -> None:
        deadline = self._planner.next_deadline()
        if deadline == self._timer_when and self._timer is not None:
            return  # earliest deadline unchanged: keep the armed timer
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._timer_when = deadline
        if deadline is not None:
            self._timer = self._loop.call_at(deadline, self._on_deadline)

    def _on_deadline(self) -> None:
        self._timer = None
        self._timer_when = None
        for flush in self._planner.due(self._loop.time()):
            self._dispatch(flush)
        self._arm_timer()

    def _idle_check(self) -> None:
        """Flush every open batch when the system is idle-but-waiting.

        Runs after all submissions scheduled in the same loop tick.  If
        every in-flight request is sitting in an open batch — nothing is
        executing on a worker — then no response is coming, and in
        closed-loop traffic no new request can arrive before one does:
        holding the batches to the deadline would add ``max_latency_s``
        of pure latency per round and collapse throughput (the
        c1_b64-vs-c1_b1 pathology).  Flushing costs nothing we could
        have gained by waiting.
        """
        self._idle_check_scheduled = False
        if self._inflight and self._planner.pending() == self._inflight:
            for flush in self._planner.flush_all(reason="idle"):
                self._dispatch(flush)
            self._arm_timer()

    def _dispatch(self, flush: Flush) -> None:
        """Hand one closed batch to the least-loaded worker."""
        flush.items = [r for r in flush.items if r.reply is not None]
        if not flush.items:
            return
        self.stats.batches += 1
        self.stats.batched_requests += len(flush.items)
        ctr = self._batch_children.get(flush.reason)
        if ctr is None:
            ctr = self._batch_children[flush.reason] = \
                self._ctr_batches.child(reason=flush.reason)
        ctr.inc()
        if _TRACER.enabled:
            _METRICS.histogram(
                "hpdr_serve_batch_size",
                "requests per flushed batch",
                buckets=_BATCH_BUCKETS,
            ).observe(len(flush.items), reason=flush.reason)
            with span("serve.flush", cat="serve", reason=flush.reason,
                      n=len(flush.items), nbytes=flush.nbytes):
                pass
        idx = min(range(len(self._workers)),
                  key=lambda i: self._workers[i].backlog)
        worker = self._workers[idx]
        worker.backlog += 1
        fut = self._loop.run_in_executor(
            self._executors[idx], worker.run_batch, flush
        )
        fut.add_done_callback(partial(self._deliver, worker))

    def _deliver(self, worker: Worker, fut: asyncio.Future) -> None:
        """Answer every request of a completed batch (event-loop thread)."""
        worker.backlog -= 1
        try:
            results = fut.result()
        except Exception:  # pragma: no cover - worker.run_batch never raises
            results = []
        now = self._loop.time()
        for req, tag, value in results:
            reply = req.reply
            if reply is None:
                continue  # withdrawn mid-execution
            req.reply = None
            self._inflight -= 1
            latency = now - req.submitted_at
            self.stats.observe_latency(latency)
            if _TRACER.enabled:
                _METRICS.histogram(
                    "hpdr_serve_latency_seconds",
                    "request latency (admission to answer)",
                    buckets=_LATENCY_BUCKETS,
                ).observe(latency, op=req.op, codec=req.spec.name)
            if tag == OK:
                self.stats.completed += 1
            else:
                self.stats.errors += 1
            try:
                reply(tag, value)
            except Exception as exc:  # a broken reply must not cost the rest
                self._loop.call_exception_handler({
                    "message": "reply callback of a served request failed",
                    "exception": exc,
                })
        if self._inflight == 0:
            self._idle.set()

    # -- drain / shutdown -----------------------------------------------
    async def drain(self) -> None:
        """Flush every open batch and wait until nothing is in flight."""
        if not self._started:
            return
        for flush in self._planner.flush_all():
            self._dispatch(flush)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            self._timer_when = None
        if self._inflight:
            await self._idle.wait()

    async def close(self) -> None:
        """Graceful shutdown: stop admission, drain, release workers."""
        if not self._started or self._closed:
            self._closed = True
            return
        self._closing = True
        t0 = time.perf_counter()
        await self.drain()
        for executor in self._executors:
            executor.shutdown(wait=True)
        for worker in self._workers:
            worker.close()
        self._closed = True
        if _TRACER.enabled:
            with span("serve.drain", cat="serve",
                      answered=self.stats.completed + self.stats.errors,
                      seconds=round(time.perf_counter() - t0, 6)):
                pass
