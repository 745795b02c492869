"""End-to-end integration: data → HPDR reduction → BP file → cross-
backend reconstruction, plus the simulated platform path."""

import numpy as np
import pytest

from repro import (
    LZ4,
    SZ,
    Config,
    ErrorMode,
    HuffmanX,
    MGARDX,
    ZFPX,
    get_adapter,
)
from repro.data import load
from repro.io.engine import BPReader, BPWriter


def test_full_write_read_campaign(tmp_path):
    """Simulated campaign: 4 ranks compress NYX slices on a 'GPU'
    backend, aggregate into 2 subfiles, read back on a CPU backend."""
    cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
    fields = {r: load("nyx", (24, 24, 24), seed=r) for r in range(4)}

    writer = BPWriter(tmp_path / "campaign", num_aggregators=2)
    gpu = get_adapter("cuda")
    for rank, data in fields.items():
        writer.put("density", data, rank=rank, operator="mgard-x",
                   compressor=MGARDX(cfg, adapter=gpu))
    stats = writer.close()
    assert stats["stored_bytes"] < stats["original_bytes"]

    reader = BPReader(tmp_path / "campaign")
    cpu = get_adapter("openmp")
    for rank, original in fields.items():
        back = reader.get("density", rank=rank,
                          compressor=MGARDX(cfg, adapter=cpu))
        assert np.max(np.abs(back - original)) <= 1e-3 * np.ptp(original)


def test_every_compressor_on_every_dataset():
    """All Table III stand-ins flow through every reduction operator."""
    cfg = Config(error_bound=1e-2, error_mode=ErrorMode.REL)
    datasets = {
        "nyx": load("nyx", (16, 16, 16)),
        "e3sm": load("e3sm", (8, 12, 24)),
        "xgc": load("xgc", (2, 8, 32, 8)),
    }
    for name, data in datasets.items():
        vr = float(np.ptp(data))
        # MGARD-X (lossy, bound)
        m = MGARDX(cfg)
        assert m.max_error(data, m.compress(data)) <= 1e-2 * vr
        # SZ (lossy, bound)
        s = SZ(cfg)
        assert s.max_error(data, s.compress(data)) <= 1e-2 * vr
        # ZFP-X (fixed rate) — supports up to 4D
        z = ZFPX(rate=16)
        back = z.decompress(z.compress(data.astype(np.float32)))
        assert back.shape == data.shape
        # Huffman-X / LZ4 (lossless)
        h = HuffmanX()
        assert np.array_equal(h.decompress(h.compress(data)), data)
        small = np.ascontiguousarray(data).reshape(-1)[:8192]
        l = LZ4()
        assert np.array_equal(l.decompress(l.compress(small)), small)


def test_simulated_platform_end_to_end():
    """Measure a real compression ratio, feed it to the Frontier-scale
    simulation, and check the headline claim's shape."""
    from repro.bench.methods import method_at_scale
    from repro.io.parallel import aggregate_reduction, weak_scaling_io
    from repro.machine.topology import FRONTIER

    data = load("nyx", (32, 32, 32))
    cfg = Config(error_bound=1e-2, error_mode=ErrorMode.REL)
    comp = MGARDX(cfg)
    ratio = comp.compression_ratio(data, comp.compress(data))
    assert ratio > 2

    method = method_at_scale("mgard-x", ratio=ratio, error_bound=1e-2)
    agg = aggregate_reduction(FRONTIER, 1024, method, int(15e9))
    assert agg > 80e12  # ~103 TB/s headline territory

    io = weak_scaling_io(FRONTIER, [1024], method, bytes_per_gpu=int(7.5e9))[0]
    assert io.write_speedup > 2


def test_chunked_pipeline_functional_equivalence(tmp_path):
    """Compressing in pipeline chunks and storing each chunk reproduces
    the field within the same bound as whole-array compression."""
    from repro import StreamingCompressor, StreamingDecompressor

    data = load("e3sm", (16, 24, 32))
    cfg = Config(error_bound=1e-3, error_mode=ErrorMode.REL)
    comp = MGARDX(cfg)
    stream = StreamingCompressor(comp)
    stream.extend(data[i : i + 4] for i in range(0, len(data), 4))
    back = StreamingDecompressor(comp, stream.finalize()).concatenate()
    # Per-chunk relative bounds are per-chunk ranges; globally the error
    # stays within the bound computed on the global range.
    assert np.max(np.abs(back - data)) <= 1e-3 * np.ptp(data) * 2


def test_public_api_surface():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__ == "1.0.0"
