"""Streaming (in-situ) compression API."""

import struct
import tracemalloc

import numpy as np
import pytest

from repro import Config, ErrorMode, MGARDX, SZ, ZFPX
from repro.core.streaming import StreamingCompressor, StreamingDecompressor
from repro.util import CorruptStreamError


@pytest.fixture
def steps(rng):
    base = rng.normal(size=(6, 16, 16))
    return [base[i] + 0.01 * i for i in range(6)]


def test_push_and_roundtrip(steps):
    cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
    sc = StreamingCompressor(MGARDX(cfg))
    for s in steps:
        assert sc.push(s) > 0
    blob = sc.finalize()
    sd = StreamingDecompressor(MGARDX(cfg), blob)
    assert len(sd) == len(steps)
    for original, restored in zip(steps, sd):
        assert np.max(np.abs(restored - original)) <= 1e-3 * np.ptp(original)


def test_random_access_decodes_single_chunk(steps):
    cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
    sc = StreamingCompressor(SZ(cfg))
    sc.extend(steps)
    sd = StreamingDecompressor(SZ(cfg), sc.finalize())
    mid = sd.chunk(3)
    assert np.max(np.abs(mid - steps[3])) <= 1e-3 * np.ptp(steps[3])


def test_cmm_reuse_across_steps(steps):
    """Same-shape steps hit the compressor's context cache."""
    cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
    comp = MGARDX(cfg)
    sc = StreamingCompressor(comp)
    sc.extend(steps)
    assert comp.cache.misses <= 2  # one mgard context (+ huffman buffers)
    assert comp.cache.hits >= len(steps) - 1


def test_ratio_and_counters(steps):
    sc = StreamingCompressor(ZFPX(rate=8))
    sc.extend(steps)
    assert sc.num_chunks == len(steps)
    assert 0 < sc.compressed_bytes < sum(s.nbytes for s in steps)
    assert sc.ratio > 1.0


def test_concatenate(steps):
    cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
    sc = StreamingCompressor(SZ(cfg))
    sc.extend(steps)
    sd = StreamingDecompressor(SZ(cfg), sc.finalize())
    full = sd.concatenate(axis=0)
    assert full.shape == (6 * 16, 16)


def test_push_after_finalize_rejected(steps):
    sc = StreamingCompressor(ZFPX(rate=8))
    sc.push(steps[0])
    sc.finalize()
    with pytest.raises(RuntimeError):
        sc.push(steps[1])


def test_corrupt_container_rejected(steps):
    sc = StreamingCompressor(ZFPX(rate=8))
    sc.push(steps[0])
    blob = sc.finalize()
    with pytest.raises(CorruptStreamError):
        StreamingDecompressor(ZFPX(rate=8), blob[: len(blob) // 2])
    with pytest.raises(CorruptStreamError):
        StreamingDecompressor(ZFPX(rate=8), b"XXXX" + blob[4:])
    # An index that lies is a typed error too, and nothing is sized from
    # the count or the lengths it declares.
    sc = StreamingCompressor(ZFPX(rate=8))
    sc.extend(steps[:2])
    b = sc.finalize()
    table = 4 + struct.calcsize("<BI")
    malformed = {
        "count-2**31": b[:5] + struct.pack("<I", 2**31) + b[table:],
        "length-2**60": b[:table] + struct.pack("<Q", 2**60) + b[table + 8:],
        "cut-in-table": b[: table + 12],
        "cut-in-last-chunk": b[:-5],
    }
    for case, bad in malformed.items():
        tracemalloc.start()
        try:
            with pytest.raises(CorruptStreamError):
                StreamingDecompressor(ZFPX(rate=8), bad)
                pytest.fail(f"{case} was accepted")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, case


def test_empty_stream():
    sc = StreamingCompressor(ZFPX(rate=8))
    blob = sc.finalize()
    sd = StreamingDecompressor(ZFPX(rate=8), blob)
    assert len(sd) == 0
    assert list(sd) == []
