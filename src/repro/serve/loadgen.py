"""Closed-loop load generation for HPDR-Serve (``repro blast``).

:func:`run_blast` drives N concurrent closed-loop clients against any
object exposing ``request(op, spec, payload)`` — the in-process
:class:`~repro.serve.service.ReductionService` (via a tiny shim) or a
remote :class:`~repro.serve.net.BlastClient` — and reports throughput
plus latency percentiles.  The same harness backs the ``repro blast``
CLI and the nightly cluster soak (``benchmarks/cluster_soak.py``);
committed throughput numbers come from ``benchmarks/e2e/``, which
drives its own clients.

Closed-loop means each client issues its next request only after the
previous answer arrives: concurrency equals the client count, and
micro-batching shows up as the service coalescing the simultaneous
in-flight requests of *different* clients.  Admission rejections
(:class:`~repro.serve.errors.ServiceOverloaded`) are counted and
retried after a short backoff — shed load is part of the contract, not
a failure.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Sequence

import numpy as np

from repro.compressors import CODECS
from repro.serve.errors import ServiceOverloaded
from repro.serve.service import percentile
from repro.serve.spec import CodecSpec


class ServiceClient:
    """In-process adapter giving a ReductionService the client protocol."""

    def __init__(self, service) -> None:
        self._service = service
        # Direct bind: request() IS submit(), without a wrapper
        # coroutine frame per call (this shim sits on the blast hot
        # path, where an extra await costs real throughput).
        self.request = service.submit

    async def close(self) -> None:
        pass  # the service's owner closes it


def default_payloads(specs: Sequence[CodecSpec], shape=(16, 16),
                     seed: int = 7) -> dict[CodecSpec, np.ndarray]:
    """One deterministic float32 array per spec (shared by all clients).

    Sharing one payload per spec keeps every client's requests in the
    same batch key, which is the scenario micro-batching exists for.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for spec in specs:
        data = rng.standard_normal(shape).astype(np.float32)
        if spec.name == "huffman-x":
            data = (data * 4).astype(np.int64).astype(np.float32)
        out[spec] = np.ascontiguousarray(data)
    return out


async def run_blast(
    make_client: Callable[[int], Awaitable],
    *,
    clients: int,
    requests_per_client: int,
    specs: Sequence[CodecSpec],
    payloads: dict[CodecSpec, np.ndarray] | None = None,
    roundtrip: bool = True,
    verify: bool = False,
    overload_backoff_s: float = 0.001,
) -> dict:
    """Run the closed-loop blast; return a metrics dict.

    ``make_client(i)`` builds client ``i`` (its own connection for TCP
    targets).  Each client issues ``requests_per_client`` requests,
    cycling through ``specs``; with ``roundtrip`` each request is a
    compress followed by a decompress of the produced stream (two
    service calls, one latency sample covering both).  ``completed``,
    ``rps`` and the percentiles cover answered requests only; a request
    that raised counts in ``errors`` alone.  ``verify``
    additionally checks the lossless specs' round-trips for exact
    equality and counts mismatches — the load generator doubles as an
    end-to-end correctness probe.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if requests_per_client < 1:
        raise ValueError(
            f"requests_per_client must be >= 1, got {requests_per_client}"
        )
    specs = list(specs)
    if not specs:
        raise ValueError("specs must be non-empty")
    payloads = payloads if payloads is not None else default_payloads(specs)

    latencies: list[float] = []
    rejected = 0
    mismatches = 0
    errors = 0

    async def one_client(idx: int) -> None:
        nonlocal rejected, mismatches, errors
        client = await make_client(idx)
        try:
            for i in range(requests_per_client):
                spec = specs[(idx + i) % len(specs)]
                data = payloads[spec]
                t0 = time.perf_counter()
                while True:
                    try:
                        blob = await client.request("compress", spec, data)
                        if roundtrip:
                            back = await client.request(
                                "decompress", spec, blob
                            )
                            if verify:
                                restored = np.asarray(back)
                                if restored.shape != data.shape or (
                                    CODECS[spec.name].lossless
                                    and not np.array_equal(
                                        restored.astype(data.dtype), data
                                    )
                                ):
                                    mismatches += 1
                    except ServiceOverloaded:
                        rejected += 1
                        await asyncio.sleep(overload_backoff_s)
                        continue
                    except Exception:
                        errors += 1  # failed: neither counted nor timed
                    else:
                        latencies.append(time.perf_counter() - t0)
                    break
        finally:
            await client.close()

    wall_start = time.perf_counter()
    await asyncio.gather(*(one_client(i) for i in range(clients)))
    wall = time.perf_counter() - wall_start

    completed = len(latencies)
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "completed": completed,
        "rejected": rejected,
        "errors": errors,
        "mismatches": mismatches,
        "wall_s": round(wall, 6),
        "rps": round(completed / wall, 2) if wall > 0 else 0.0,
        "p50_ms": round(percentile(latencies, 50) * 1e3, 3),
        "p95_ms": round(percentile(latencies, 95) * 1e3, 3),
        "p99_ms": round(percentile(latencies, 99) * 1e3, 3),
    }
