"""Batch execution workers: pinned CMM contexts, retry, degradation.

Each :class:`Worker` owns

* one device adapter (optionally wrapped in a
  :class:`~repro.resilience.adapter.FaultyAdapter` when the service is
  configured with a fault plan — the chaos hook the fault-under-load
  tests use);
* one serial **fallback** adapter, never fault-wrapped: the "most
  compatible processor" requests degrade to when their retry budget is
  exhausted;
* one :class:`~repro.core.context.ContextCache` shared by every codec
  instance the worker builds, so the steady state under load performs
  zero runtime memory management (paper III-B applied to traffic);
* one single-thread executor (owned by the service): a worker's batches
  are serialized, which is what makes sharing its cache and codec
  instances safe without per-call locking.

Execution of one flush:

1. pin the serve context for the batch's ``(codec, dtype,
   shape-class)`` key — the codec objects it holds survive cache
   pressure for the duration of the batch;
2. try the codec's **vectorized batch entry point**
   (``compress_batch``/``decompress_batch``) under the retry policy —
   one launch for the whole batch (this is where micro-batching beats
   single-shot throughput);
3. on any batch-path failure, fall back to per-request execution:
   each request runs under its own
   :func:`~repro.resilience.policy.retry_call`, and a request whose
   budget is exhausted **degrades to the serial fallback codec**
   instead of failing its batch.  Only a request that fails on the
   fallback too is answered with its error — every other request in
   the batch is unaffected.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.context import ContextCache
from repro.resilience.errors import ResilienceExhausted
from repro.resilience.policy import RetryPolicy, retry_call
from repro.serve.batcher import Flush
from repro.trace.metrics import REGISTRY as _METRICS
from repro.trace.tracer import span

#: outcome tags a worker attaches to each request of a batch.
OK, ERR = "ok", "err"


def _apply(codec: Any, op: str, payload: Any) -> Any:
    if op == "compress":
        return codec.compress(payload)
    if op == "retrieve":
        # Progressive bounded retrieval: the payload is a self-contained
        # HPRQ envelope (parameters + HPGX archive), so the codec only
        # contributes its adapter + CMM cache; codecs without either
        # still serve the request on the defaults.
        from repro.progressive import retrieve_request

        return retrieve_request(
            payload,
            adapter=getattr(codec, "adapter", None),
            context_cache=getattr(codec, "cache", None),
        )
    return codec.decompress(payload)


def _apply_batch(codec: Any, op: str, payloads: list[Any]) -> Any:
    """Vectorized batch entry point, or None when the codec lacks one."""
    fn = getattr(codec, f"{op}_batch", None)
    if fn is None:
        return None
    return fn(payloads)


class Worker:
    """Executes flushed batches on one adapter with one CMM cache."""

    def __init__(
        self,
        wid: int,
        adapter,
        fallback_adapter,
        *,
        cache_capacity: int = 64,
        policy: RetryPolicy | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.wid = wid
        self.adapter = adapter
        self.fallback_adapter = fallback_adapter
        self.cache = ContextCache(capacity=cache_capacity)
        self.policy = policy if policy is not None else RetryPolicy()
        self._sleep = sleep if sleep is not None else time.sleep
        #: batches currently dispatched to this worker (service-side
        #: least-loaded routing; mutated only from the event loop).
        self.backlog = 0
        self.batches_run = 0
        self.requests_run = 0
        self.degradations = 0

    # ------------------------------------------------------------------
    def run_batch(self, flush: Flush) -> list[tuple[Any, str, Any]]:
        """Execute one flush; return ``(request, tag, value)`` triples.

        Runs on the worker's executor thread.  Never raises: a failure
        is attached to the request(s) it belongs to so the service can
        answer every future individually.
        """
        items = flush.items
        if not items:
            return []
        first = items[0]
        with span(
            "serve.batch",
            cat="serve",
            worker=self.wid,
            codec=first.spec.name,
            op=first.op,
            n=len(items),
            nbytes=flush.nbytes,
            reason=flush.reason,
        ):
            outs = self.run_payloads(
                first.op, first.spec, [r.payload for r in items]
            )
        return [(r, tag, value) for r, (tag, value) in zip(items, outs)]

    def run_payloads(self, op: str, spec, payloads: list) -> list[tuple[str, Any]]:
        """Execute one homogeneous batch of payloads; ``(tag, value)``
        per payload, in order.  The request-free core of
        :meth:`run_batch` — also the unit of work shipped to process
        pools, where ``_Request`` objects (holding asyncio futures)
        cannot cross the pickle boundary.
        """
        if not payloads:
            return []
        self.batches_run += 1
        self.requests_run += len(payloads)
        ctx = self.cache.get(spec.context_key(op, payloads[0]), pin=True)
        try:
            codec = ctx.object(
                "codec",
                lambda: spec.build(adapter=self.adapter,
                                   context_cache=self.cache),
            )
            if len(payloads) > 1:
                values = self._try_batch_path(codec, op, spec, payloads)
                if values is not None:
                    return [(OK, v) for v in values]
            return [self._run_one(ctx, codec, spec, op, p) for p in payloads]
        finally:
            self.cache.release(ctx)

    # ------------------------------------------------------------------
    def _try_batch_path(self, codec, op: str, spec, payloads) -> list | None:
        """One vectorized launch for the whole batch, under retry.

        Returns None when the codec has no batch entry point or the
        batch path failed (injected fault schedules that outlast the
        retry budget, or a poisoned request) — the caller then degrades
        to per-request execution, which isolates the failure.
        """
        try:
            values = retry_call(
                lambda: _apply_batch(codec, op, payloads),
                self.policy,
                site=f"serve.{spec.name}.batch",
                sleep=self._sleep,
            )
        except Exception:
            return None
        if values is not None and len(values) != len(payloads):
            # A batch entry point that loses answers violates the
            # exactly-once contract; treat as no fast path.
            return None
        return values

    def _run_one(self, ctx, codec, spec, op: str, payload) -> tuple[str, Any]:
        """Per-request execution: retry, then degrade to serial fallback."""
        site = f"serve.{spec.name}"
        try:
            return (OK, retry_call(
                lambda: _apply(codec, op, payload),
                self.policy,
                site=site,
                sleep=self._sleep,
            ))
        except ResilienceExhausted:
            return self._degraded(ctx, spec, op, payload, site)
        except Exception as exc:
            return (ERR, exc)

    def _degraded(self, ctx, spec, op: str, payload, site: str) -> tuple[str, Any]:
        """Serial-fallback execution for one exhausted request.

        Portability makes this loss-free: every HPDR backend produces
        bit-identical streams, so the degraded answer matches what the
        primary device would have produced.
        """
        self.degradations += 1
        _METRICS.counter(
            "hpdr_degradations_total",
            "devices demoted to their fallback adapter",
        ).inc(family="serve")
        with span("serve.degrade", cat="serve", worker=self.wid, site=site):
            try:
                fallback = ctx.object(
                    "fallback_codec",
                    lambda: spec.build(adapter=self.fallback_adapter,
                                       context_cache=self.cache),
                )
                return (OK, _apply(fallback, op, payload))
            except Exception as exc:
                return (ERR, exc)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release adapter resources (thread pools) and poison the cache."""
        self.adapter.close()
        self.fallback_adapter.close()
        self.cache.clear()


# ---------------------------------------------------------------------------
# Process-pool execution (GIL escape for CPU-bound codec stages)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessWorkerConfig:
    """Picklable recipe for one pool process's :class:`Worker`.

    Carried through the pool initializer so every process builds the
    same stack the in-process workers get — adapter, optional fault
    injector, retry policy, degradation fallback, and a private CMM
    cache (processes share nothing, so no locking is ever needed).
    ``retry_sleep`` has no process-mode equivalent: callables do not
    pickle, and backoff in a pool process is real wall-clock anyway.
    """

    adapter: str = "serial"
    threads: int | None = None
    cache_capacity: int = 64
    policy: RetryPolicy = RetryPolicy()
    fault_plan: Any = None


#: the process-local Worker, created once per pool process.
_PROCESS_WORKER: Worker | None = None


def _init_process_worker(cfg: ProcessWorkerConfig) -> None:
    """Pool initializer: build this process's Worker from the recipe."""
    global _PROCESS_WORKER
    import os

    from repro.adapters import get_adapter

    kwargs = {}
    if cfg.adapter == "openmp" and cfg.threads is not None:
        kwargs["num_threads"] = cfg.threads
    adapter = get_adapter(cfg.adapter, **kwargs)
    if cfg.fault_plan is not None:
        from repro.resilience.adapter import FaultyAdapter

        adapter = FaultyAdapter(adapter, cfg.fault_plan)
    _PROCESS_WORKER = Worker(
        os.getpid(),
        adapter,
        get_adapter("serial"),
        cache_capacity=cfg.cache_capacity,
        policy=cfg.policy,
    )


def _run_payloads_in_process(op: str, spec, payloads: list) -> list[tuple[str, Any]]:
    """Pool job: run one batch on the process-local Worker.

    Error values must survive the return pickle; an exception whose
    state does not round-trip is replaced by a ``RuntimeError`` carrying
    its type and message (the request still fails with a useful error
    instead of poisoning the whole pool future).
    """
    outs = _PROCESS_WORKER.run_payloads(op, spec, payloads)
    safe = []
    for tag, value in outs:
        if tag == ERR:
            try:
                pickle.loads(pickle.dumps(value))
            except Exception:
                value = RuntimeError(f"{type(value).__name__}: {value}")
        safe.append((tag, value))
    return safe
