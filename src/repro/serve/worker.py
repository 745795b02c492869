"""Batch execution workers: pinned CMM contexts, fault isolation.

Each :class:`Worker` owns

* one device adapter wrapped once in a
  :class:`~repro.resilience.adapter.ResilientAdapter` (over a
  :class:`~repro.resilience.adapter.FaultyAdapter` when the service is
  configured with a fault plan — the chaos hook the fault-under-load
  tests use), with the serial **fallback** adapter, never fault-wrapped,
  as its demotion target: the "most compatible processor";
* one :class:`~repro.core.context.ContextCache` shared by every codec
  instance the worker builds, so the steady state under load performs
  zero runtime memory management (paper III-B applied to traffic);
* one single-thread executor (owned by the service): a worker's batches
  are serialized, which is what makes sharing its cache and codec
  instances safe without per-call locking.

Recovery is the adapter's, per launch, exactly as for a campaign rank:
a faulted launch is retried under the policy, and an exhausted launch
or an open circuit breaker demotes the worker to its fallback until the
service restarts.  An error raised outside a launch (stream parsing,
input validation) is the request's own and is answered at once.

Execution of one flush:

1. pin the serve context for the batch's ``(codec, dtype,
   shape-class)`` key — the codec objects it holds survive cache
   pressure for the duration of the batch;
2. try the codec's **vectorized batch entry point**
   (``compress_batch``/``decompress_batch``) — one launch for the whole
   batch (this is where micro-batching beats single-shot throughput);
3. if that raises, run each request once on its own and answer each
   failure as that request's error: a poisoned request never fails its
   batchmates.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.context import ContextCache
from repro.resilience.adapter import ResilientAdapter
from repro.resilience.policy import RetryPolicy
from repro.serve.batcher import Flush
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


def _apply_batch(codec: Any, op: str, payloads: list[Any]) -> list | None:
    """All answers of the vectorized batch entry point, or None when the
    codec lacks one, the call raised, or it lost answers (the
    exactly-once contract)."""
    fn = getattr(codec, f"{op}_batch", None)
    if fn is None:
        return None
    try:
        values = fn(payloads)
    except Exception:
        return None
    return values if len(values) == len(payloads) else None


def _apply_one(codec: Any, op: str, payload: Any) -> tuple[str, Any]:
    try:
        return (OK, _apply(codec, op, payload))
    except Exception as exc:
        return (ERR, exc)


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
        self.adapter = ResilientAdapter(
            adapter, fallback=fallback_adapter, policy=policy, sleep=sleep
        )
        self.cache = ContextCache(capacity=cache_capacity)
        #: batches currently dispatched to this worker (service-side
        #: least-loaded routing; mutated only from the event loop).
        self.backlog = 0
        self.batches_run = 0
        self.requests_run = 0

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
        :meth:`run_batch`.
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
                values = _apply_batch(codec, op, payloads)
                if values is not None:
                    return [(OK, v) for v in values]
            return [_apply_one(codec, op, p) for p in payloads]
        finally:
            self.cache.release(ctx)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release both adapters (thread pools) and poison the cache."""
        self.adapter.close()
        self.cache.clear()
