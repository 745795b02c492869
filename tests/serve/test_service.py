"""ReductionService behaviour: round-trips, overload, drain, cancel.

No pytest-asyncio in the toolchain: every test drives its own event
loop with ``asyncio.run``.
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
    ServiceClosed,
    ServiceOverloaded,
)
from repro.trace.metrics import REGISTRY as METRICS


def _data(shape=(16, 16), seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(np.float32)


def _cfg(**kw):
    limits = kw.pop("limits", BatchLimits(max_batch=8, max_latency_s=0.002))
    return ServiceConfig(limits=limits, **kw)


@pytest.mark.parametrize("adapter", ["serial", "cuda"])
def test_threads_without_openmp_refused(adapter):
    with pytest.raises(ValueError, match="--threads only applies to --adapter openmp"):
        ServiceConfig(adapter=adapter, threads=2)
    assert ServiceConfig(adapter="openmp", threads=2).threads == 2


def test_roundtrip_matches_single_shot():
    spec = CodecSpec("zfp-x", rate=8.0)
    data = _data()
    want_blob = spec.build().compress(data)
    want_back = spec.build().decompress(want_blob)

    async def run():
        async with ReductionService(_cfg()) as svc:
            blob = await svc.compress(spec, data)
            back = await svc.decompress(spec, blob)
            return blob, back

    blob, back = asyncio.run(run())
    assert blob == want_blob
    assert np.array_equal(np.asarray(back), want_back)


def test_concurrent_requests_coalesce_into_batches():
    spec = CodecSpec("zfp-x", rate=8.0)
    data = _data()
    want = spec.build().compress(data)

    async def run():
        cfg = _cfg(limits=BatchLimits(max_batch=64, max_latency_s=0.05))
        async with ReductionService(cfg) as svc:
            blobs = await asyncio.gather(
                *(svc.compress(spec, data) for _ in range(16))
            )
            return blobs, svc.stats

    blobs, stats = asyncio.run(run())
    assert all(b == want for b in blobs)
    # All 16 shared one batch key and fit one flush (the idle check
    # runs after the whole same-tick burst has landed, then flushes
    # everything at once instead of waiting out the deadline).
    assert stats.batches == 1
    assert stats.mean_batch_size == 16.0
    assert stats.completed == 16


def test_distinct_shapes_do_not_share_batches():
    spec = CodecSpec("zfp-x", rate=8.0)
    a, b = _data((16, 16)), _data((8, 8))

    async def run():
        cfg = _cfg(limits=BatchLimits(max_batch=64, max_latency_s=0.05))
        async with ReductionService(cfg) as svc:
            blobs = await asyncio.gather(
                svc.compress(spec, a), svc.compress(spec, b)
            )
            return blobs, svc.stats.batches

    blobs, batches = asyncio.run(run())
    assert batches == 2
    assert blobs[0] == spec.build().compress(a)
    assert blobs[1] == spec.build().compress(b)


def test_admission_control_rejects_beyond_max_pending():
    spec = CodecSpec("zfp-x", rate=8.0)
    data = _data()

    async def run():
        cfg = _cfg(
            limits=BatchLimits(max_batch=64, max_latency_s=0.05),
            max_pending=1,
        )
        before = METRICS.counter("hpdr_serve_rejected_total").total()
        async with ReductionService(cfg) as svc:
            first = asyncio.ensure_future(svc.compress(spec, data))
            await asyncio.sleep(0)  # let the first submit admit itself
            with pytest.raises(ServiceOverloaded) as exc:
                await svc.compress(spec, data)
            assert exc.value.depth == 1
            assert exc.value.limit == 1
            assert svc.stats.rejected == 1
            after = METRICS.counter("hpdr_serve_rejected_total").total()
            assert after == before + 1
            await first  # still answered: rejection sheds only the newcomer
            return svc.stats

    stats = asyncio.run(run())
    assert stats.completed == 1


def test_submit_after_close_raises_service_closed():
    spec = CodecSpec("zfp-x", rate=8.0)

    async def run():
        svc = ReductionService(_cfg())
        await svc.start()
        await svc.close()
        with pytest.raises(ServiceClosed):
            await svc.compress(spec, _data())

    asyncio.run(run())


def test_close_drains_pending_requests():
    spec = CodecSpec("zfp-x", rate=8.0)
    data = _data()
    want = spec.build().compress(data)

    async def run():
        # Deadline far away: only the drain can flush these.
        cfg = _cfg(limits=BatchLimits(max_batch=64, max_latency_s=30.0))
        svc = ReductionService(cfg)
        await svc.start()
        futures = [asyncio.ensure_future(svc.compress(spec, data))
                   for _ in range(5)]
        await asyncio.sleep(0)
        await svc.close()
        return await asyncio.gather(*futures), svc.stats

    blobs, stats = asyncio.run(run())
    assert all(b == want for b in blobs)
    assert stats.completed == 5


def test_cancellation_withdraws_pending_request():
    spec = CodecSpec("zfp-x", rate=8.0)
    data = _data()

    async def run():
        cfg = _cfg(limits=BatchLimits(max_batch=64, max_latency_s=30.0))
        svc = ReductionService(cfg)
        await svc.start()
        doomed = asyncio.ensure_future(svc.compress(spec, data))
        kept = asyncio.ensure_future(svc.compress(spec, data))
        await asyncio.sleep(0)
        doomed.cancel()
        await asyncio.sleep(0)
        assert svc.stats.cancelled == 1
        assert svc.inflight == 1  # slot released immediately
        await svc.close()
        assert doomed.cancelled()
        blob = await kept
        assert blob == spec.build().compress(data)
        return svc.stats

    stats = asyncio.run(run())
    assert stats.completed == 1
    assert stats.cancelled == 1


def test_error_is_delivered_to_its_request_only():
    spec = CodecSpec("zfp-x", rate=8.0)
    data = _data()
    want = spec.build().compress(data)

    async def run():
        cfg = _cfg(limits=BatchLimits(max_batch=64, max_latency_s=0.05))
        async with ReductionService(cfg) as svc:
            good = asyncio.ensure_future(svc.compress(spec, data))
            bad = asyncio.ensure_future(
                svc.decompress(spec, b"definitely not a zfp stream")
            )
            results = await asyncio.gather(good, bad, return_exceptions=True)
            return results, svc.stats

    (blob, err), stats = asyncio.run(run())
    assert blob == want
    assert isinstance(err, Exception)
    assert stats.completed == 1
    assert stats.errors == 1


def test_requests_counter_and_latency_reservoir():
    spec = CodecSpec("zfp-x", rate=8.0)
    data = _data()

    async def run():
        before = METRICS.counter("hpdr_serve_requests_total").total()
        async with ReductionService(_cfg()) as svc:
            for _ in range(3):
                await svc.compress(spec, data)
            after = METRICS.counter("hpdr_serve_requests_total").total()
            assert after == before + 3
            snap = svc.stats.snapshot()
            assert snap["submitted"] == snap["completed"] == 3
            assert snap["p95_ms"] >= snap["p50_ms"] >= 0.0
            assert snap["p50_ms"] > 0.0

    asyncio.run(run())


def test_multiple_workers_split_the_load():
    spec = CodecSpec("zfp-x", rate=8.0)

    async def run():
        cfg = _cfg(
            limits=BatchLimits(max_batch=1, max_latency_s=0.001),
            workers=2,
        )
        async with ReductionService(cfg) as svc:
            datas = [_data(seed=i) for i in range(8)]
            blobs = await asyncio.gather(
                *(svc.compress(spec, d) for d in datas)
            )
            ran = [w.batches_run for w in svc.workers]
            for d, blob in zip(datas, blobs):
                assert blob == spec.build().compress(d)
            return ran

    ran = asyncio.run(run())
    assert sum(ran) == 8
    # max_batch=1 forces 8 flushes; least-backlog routing uses both.
    assert all(n > 0 for n in ran)


def test_service_config_validation():
    with pytest.raises(ValueError):
        ServiceConfig(max_pending=0)
    with pytest.raises(ValueError):
        ServiceConfig(workers=0)


@pytest.mark.parametrize("mode", ["auto", "force"])
def test_tune_is_refused_by_name(mode):
    assert ServiceConfig(tune="off").tune == "off"
    with pytest.raises(ValueError, match="service tuner was removed"):
        ServiceConfig(tune=mode)


def test_default_config_answers_a_wave_in_one_batch():
    """With the default limits, no size flush splits a wave that
    admission let in: 32 same-spec requests in one tick are one batch."""
    spec = CodecSpec("zfp-x", rate=8.0)
    data = _data()
    want = spec.build().compress(data)

    async def run():
        async with ReductionService(ServiceConfig()) as svc:
            blobs = await asyncio.gather(
                *(svc.compress(spec, data) for _ in range(32)))
            return blobs, svc.stats

    blobs, stats = asyncio.run(run())
    assert all(b == want for b in blobs)
    assert stats.batches == 1
    assert stats.mean_batch_size == 32.0


def test_codec_spec_validation_and_keys():
    with pytest.raises(ValueError):
        CodecSpec("gzip")
    with pytest.raises(ValueError):
        CodecSpec("zfp-x", error_mode="weird")
    spec = CodecSpec("zfp-x", rate=8.0)
    with pytest.raises(ValueError):
        spec.batch_key("transmogrify", _data())
    # Unused parameters do not split batches.
    assert CodecSpec("zfp-x", rate=8.0, error_bound=1e-3).key() == \
        CodecSpec("zfp-x", rate=8.0, error_bound=1e-9).key()
    d = _data()
    assert spec.batch_key("compress", d) == spec.batch_key("compress", d.copy())
    assert spec.batch_key("compress", d) != \
        CodecSpec("zfp-x", rate=16.0).batch_key("compress", d)
