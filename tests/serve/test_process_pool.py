"""Multi-process worker pool: byte-identity across the pickle boundary.

``ReductionService(process=True)`` swaps the thread workers for a spawn
``ProcessPoolExecutor``; each child builds its own adapter, CMM cache
and resilience stack in the pool initializer.  The contract is the same
as every other execution mode: the process hop must be invisible in the
bytes, and failures must come back as typed exceptions — pickled when
they survive the trip, wrapped when they don't.

Spawn start-up is expensive on CI, so the suite boots few services and
reuses them across assertions.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.serve import (
    BatchLimits,
    CodecSpec,
    ReductionService,
    ServiceConfig,
)
from repro.serve.worker import ProcessWorkerConfig, _init_process_worker, \
    _run_payloads_in_process
from repro.serve.worker import OK, ERR
from repro.testing import check_service


def _cfg(**kw):
    kw.setdefault("limits", BatchLimits(max_batch=8, max_latency_s=0.002))
    kw.setdefault("process", True)
    kw.setdefault("workers", 2)
    return ServiceConfig(**kw)


def test_process_pool_streams_are_byte_identical():
    """Every codec round-trips byte-for-byte through pool processes."""
    rng = np.random.default_rng(2)
    # Quantized-looking values so huffman-x sees structured input; the
    # lossy codecs accept them just as well.
    datas = [
        np.ascontiguousarray(
            (rng.standard_normal((16, 16)) * 4).astype(np.int64)
            .astype(np.float32)
        )
        for _ in range(6)
    ]
    specs = [CodecSpec("zfp-x", rate=8.0),
             CodecSpec("mgard-x", error_bound=1e-2),
             CodecSpec("huffman-x")]

    async def run():
        async with ReductionService(_cfg()) as svc:
            out = {}
            for spec in specs:
                blobs = await asyncio.gather(
                    *(svc.compress(spec, d) for d in datas)
                )
                backs = await asyncio.gather(
                    *(svc.decompress(spec, b) for b in blobs)
                )
                out[spec.name] = (blobs, backs)
            return out

    out = asyncio.run(run())
    for spec in specs:
        codec = spec.build()
        blobs, backs = out[spec.name]
        for d, blob, back in zip(datas, blobs, backs):
            assert blob == codec.compress(d), spec.name
            assert np.array_equal(np.asarray(back), codec.decompress(blob))


def test_process_pool_errors_come_back_typed():
    spec = CodecSpec("zfp-x", rate=8.0)
    data = np.ones((8, 8), dtype=np.float32)

    async def run():
        async with ReductionService(_cfg(workers=1)) as svc:
            good = asyncio.ensure_future(svc.compress(spec, data))
            bad = asyncio.ensure_future(
                svc.decompress(spec, b"not a zfp stream at all")
            )
            blob, err = await asyncio.gather(good, bad,
                                             return_exceptions=True)
            return blob, err, svc.stats.errors

    blob, err, errors = asyncio.run(run())
    assert blob == spec.build().compress(data)
    assert isinstance(err, Exception) and not isinstance(err, asyncio.CancelledError)
    assert errors == 1


def test_process_pool_conformance_matrix():
    """The differential harness holds across the pickle boundary."""
    check_service("serial", codecs=("zfp-x",), batch_sizes=(1, 7),
                  workers=2, process=True)


def test_process_config_rejects_retry_sleep():
    with pytest.raises(ValueError):
        ServiceConfig(process=True, retry_sleep=lambda s: None)


def test_process_worker_entry_points_run_without_a_pool():
    """The module-level hooks the pool uses are testable in-process:
    initializer builds the global worker, the dispatch hook runs batches
    on it and pickle-checks error values."""
    from repro.serve import worker as worker_mod

    saved = worker_mod._PROCESS_WORKER
    try:
        _init_process_worker(ProcessWorkerConfig(
            adapter="serial", threads=None, cache_capacity=8,
            policy=worker_mod.RetryPolicy(),
            fault_plan=None,
        ))
        spec = CodecSpec("zfp-x", rate=8.0)
        data = np.ones((4, 4), dtype=np.float32)
        outs = _run_payloads_in_process("compress", spec, [data, data])
        assert [tag for tag, _ in outs] == [OK, OK]
        assert outs[0][1] == spec.build().compress(data)

        outs = _run_payloads_in_process("decompress", spec, [b"junk"])
        tag, value = outs[0]
        assert tag == ERR
        assert isinstance(value, Exception)
        import pickle

        pickle.loads(pickle.dumps(value))  # guaranteed picklable
    finally:
        worker_mod._PROCESS_WORKER = saved
