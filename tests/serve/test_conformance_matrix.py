"""Served-stream conformance: codec x adapter x batch-size matrix.

Every cell requires byte-identity with single-shot compression —
micro-batching, context pinning and worker routing must be invisible in
the bytes.  The matrix the issue pins: {mgard-x, zfp-x, huffman-x} x
{serial, openmp} x batch sizes {1, 7, 64}.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.serve import BatchLimits, CodecSpec, ReductionService, ServiceConfig
from repro.testing import check_service

CODECS = ("mgard-x", "zfp-x", "huffman-x")
BATCHES = (1, 7, 64)


@pytest.mark.parametrize("adapter,threads", [("serial", None), ("openmp", 2)])
def test_service_matrix(adapter, threads):
    check_service(
        adapter, codecs=CODECS, batch_sizes=BATCHES, threads=threads
    )


def test_service_matrix_on_fields_wider_than_a_tile():
    """256 KB per request: a pool that let its width into the stream
    (as the segmented Huffman-X container did) diverges here."""
    check_service("openmp", codecs=("huffman-x",), batch_sizes=(1, 7),
                  shape=(256, 256), threads=2)


def test_service_matrix_detects_divergence(monkeypatch):
    """The differential harness must actually bite."""
    from repro.testing import AdapterConformanceError
    from repro.serve import worker as worker_mod

    original = worker_mod._apply_batch

    def corrupting(codec, op, payloads):
        out = original(codec, op, payloads)
        if out is not None and op == "compress" and len(out) > 1:
            out = list(out)
            out[0] = out[0][:-1] + bytes([out[0][-1] ^ 1])
        return out

    monkeypatch.setattr(worker_mod, "_apply_batch", corrupting)
    with pytest.raises(AdapterConformanceError):
        check_service("serial", codecs=("zfp-x",), batch_sizes=(7,))


def test_decompress_batches_match_single_shot():
    """Uniform compressed streams ride the decompress batch path."""
    spec = CodecSpec("zfp-x", rate=8.0)
    rng = np.random.default_rng(3)
    datas = [rng.standard_normal((16, 16)).astype(np.float32)
             for _ in range(12)]
    codec = spec.build()
    blobs = [codec.compress(d) for d in datas]
    want = [codec.decompress(b) for b in blobs]

    async def run():
        cfg = ServiceConfig(
            limits=BatchLimits(max_batch=64, max_latency_s=0.05)
        )
        async with ReductionService(cfg) as svc:
            return await asyncio.gather(
                *(svc.decompress(spec, b) for b in blobs)
            ), svc.stats.batches

    got, batches = asyncio.run(run())
    assert batches == 1  # same size-class -> one flush
    for g, w in zip(got, want):
        assert np.array_equal(np.asarray(g), w)


def test_mixed_codec_traffic_stays_isolated():
    """Interleaved codecs never cross-contaminate batches."""
    rng = np.random.default_rng(9)
    data = np.ascontiguousarray(
        rng.standard_normal((16, 16)).astype(np.float32)
    )
    specs = [CodecSpec("zfp-x", rate=8.0), CodecSpec("huffman-x"),
             CodecSpec("lz4"), CodecSpec("mgard-x")]
    want = {s.name: s.build().compress(data) for s in specs}

    async def run():
        cfg = ServiceConfig(
            limits=BatchLimits(max_batch=16, max_latency_s=0.01)
        )
        async with ReductionService(cfg) as svc:
            jobs = [(s, asyncio.ensure_future(svc.compress(s, data)))
                    for s in specs for _ in range(4)]
            await asyncio.gather(*(f for _, f in jobs))
            return [(s.name, f.result()) for s, f in jobs]

    for name, blob in asyncio.run(run()):
        assert blob == want[name], name
