"""Fig. 9 pipeline DAG: overlap, buffer anti-dependencies, ordering."""

import struct
import tracemalloc

import numpy as np
import pytest

from repro.core.pipeline import ReductionPipeline, chunk_sizes_for
from repro.core.streaming import StreamingCompressor, StreamingDecompressor
from repro.machine.device import SimDevice
from repro.machine.engine import Simulator, TaskKind
from repro.perf.models import kernel_model
from repro.util import CorruptStreamError

GB = int(1e9)
MB = int(1e6)


def make_pipe(**kw):
    sim = Simulator()
    dev = SimDevice(sim, "V100")
    model = kernel_model("mgard-x", "V100")
    return ReductionPipeline(dev, model, **kw), sim, dev


class TestCompressionDag:
    def test_overlapped_beats_serial(self):
        chunks = chunk_sizes_for(2 * GB, 100 * MB)
        pipe, *_ = make_pipe()
        fast = pipe.run_compression(chunks, ratio=8)
        pipe, *_ = make_pipe(overlapped=False)
        slow = pipe.run_compression(chunks, ratio=8)
        assert fast.throughput > slow.throughput

    def test_copy_time_mostly_hidden(self):
        """The paper's headline: transfer overhead shrinks to a few %."""
        chunks = chunk_sizes_for(4 * GB, 200 * MB)
        pipe, *_ = make_pipe()
        res = pipe.run_compression(chunks, ratio=8)
        assert res.hidden_copy_ratio > 0.9

    def test_no_two_compute_tasks_overlap(self):
        pipe, sim, dev = make_pipe()
        res = pipe.run_compression(chunk_sizes_for(1 * GB, 100 * MB), ratio=4)
        comp = sorted(res.trace.of_kind(TaskKind.COMPUTE), key=lambda t: t.start)
        for a, b in zip(comp, comp[1:]):
            assert a.end <= b.start + 1e-12

    def test_buffer_antidependency_enforced(self):
        """h2d[i] must start after serialize[i-2] with 2 buffer sets."""
        pipe, sim, dev = make_pipe(num_buffers=2)
        res = pipe.run_compression([100 * MB] * 6, ratio=4)
        h2d = [t for t in res.trace.tasks if t.name.endswith(f"h2d[{4}]")]
        ser = [t for t in res.trace.tasks if t.name.endswith(f"ser[{2}]")]
        assert h2d and ser
        assert h2d[0].start >= ser[0].end - 1e-12

    def test_three_buffers_relax_dependency(self):
        chunks = [200 * MB] * 8
        pipe, *_ = make_pipe(num_buffers=2)
        two = pipe.run_compression(chunks, ratio=4)
        pipe, *_ = make_pipe(num_buffers=3)
        three = pipe.run_compression(chunks, ratio=4)
        assert three.makespan <= two.makespan + 1e-9

    def test_throughput_accounts_all_bytes(self):
        pipe, *_ = make_pipe()
        res = pipe.run_compression([100 * MB, 50 * MB], ratio=4)
        assert res.total_in_bytes == 150 * MB
        assert res.throughput == pytest.approx(res.total_in_bytes / res.makespan)

    def test_empty_chunks_rejected(self):
        pipe, *_ = make_pipe()
        with pytest.raises(ValueError):
            pipe.run_compression([], ratio=4)
        with pytest.raises(ValueError):
            pipe.run_compression([MB], ratio=0)

    def test_staging_copies_only_in_legacy(self):
        pipe, *_ = make_pipe(overlapped=False)
        res = pipe.run_compression([100 * MB], ratio=4)
        hosts = res.trace.of_kind(TaskKind.HOST)
        assert len(hosts) == 2  # stage in + stage out
        pipe, *_ = make_pipe()
        res = pipe.run_compression([100 * MB], ratio=4)
        assert not res.trace.of_kind(TaskKind.HOST)

    def test_cmm_removes_alloc_tasks(self):
        pipe, *_ = make_pipe(context_cached=False)
        res = pipe.run_compression([100 * MB] * 2, ratio=4)
        allocs = [t for t in res.trace.of_kind(TaskKind.ALLOC)
                  if "malloc" in t.name or "alloc" in t.name]
        frees = res.trace.of_kind(TaskKind.FREE)
        assert allocs and frees
        pipe, *_ = make_pipe(context_cached=True)
        res = pipe.run_compression([100 * MB] * 2, ratio=4)
        assert not res.trace.of_kind(TaskKind.FREE)


class TestReconstructionDag:
    def test_reversed_order_helps(self):
        chunks = [200 * MB] * 8
        pipe, *_ = make_pipe(reversed_order=True)
        rev = pipe.run_reconstruction(chunks, ratio=4)
        pipe, *_ = make_pipe(reversed_order=False)
        plain = pipe.run_reconstruction(chunks, ratio=4)
        assert rev.makespan <= plain.makespan + 1e-9

    def test_reconstruction_bytes_direction(self):
        pipe, *_ = make_pipe()
        res = pipe.run_reconstruction([100 * MB], ratio=4)
        assert res.total_out_bytes == 100 * MB
        assert res.total_in_bytes == 25 * MB

    def test_schedule_valid(self):
        pipe, *_ = make_pipe()
        res = pipe.run_reconstruction([150 * MB] * 5, ratio=4)
        res.trace.validate()


def _rows(data, chunk_elems):
    return [data[i : i + chunk_elems] for i in range(0, len(data), chunk_elems)]


def _roundtrip(compressor, data, chunk_elems):
    """Compress ``chunk_elems``-row slices into one ``HPST`` chunk list
    and decode it back, concatenated along axis 0."""
    stream = StreamingCompressor(compressor)
    stream.extend(_rows(data, chunk_elems))
    return StreamingDecompressor(compressor, stream.finalize()).concatenate()


class TestChunkedFunctional:
    def test_chunked_equals_concatenated(self, smooth_3d):
        """Chunk-wise compression reconstructs the full array exactly
        as chunk-wise decompression concatenates."""
        from repro import ZFPX

        z = ZFPX(rate=16)
        back = _roundtrip(z, smooth_3d, 7)
        assert back.shape == smooth_3d.shape
        direct = z.decompress(z.compress(smooth_3d))
        # Chunking along axis 0 changes block padding at boundaries but
        # errors stay within the same magnitude.
        assert np.max(np.abs(back - smooth_3d)) < 10 * max(
            1e-7, np.max(np.abs(direct - smooth_3d))
        )

    def test_chunked_roundtrip_lossless(self, rng):
        from repro import LZ4

        data = (rng.integers(0, 4, size=(30, 8)) * 17).astype(np.int64)
        assert np.array_equal(_roundtrip(LZ4(), data, 11), data)

    def test_chunk_sizes_for(self):
        assert chunk_sizes_for(10, 4) == [4, 4, 2]
        assert chunk_sizes_for(8, 4) == [4, 4]
        with pytest.raises(ValueError):
            chunk_sizes_for(0, 4)
        with pytest.raises(ValueError):
            chunk_sizes_for(4, 0)

    def test_bad_magic_rejected(self, rng):
        from repro import LZ4

        with pytest.raises(ValueError):
            StreamingDecompressor(LZ4(), b"XXXX1234")
        # The legacy ``HPDC`` layout (no version byte) still reads ...
        data = rng.integers(0, 4, size=(22, 8)).astype(np.int64)
        parts = [LZ4().compress(rows) for rows in _rows(data, 11)]
        b = (b"HPDC" + struct.pack("<I2Q", 2, *map(len, parts))
             + b"".join(parts))
        assert np.array_equal(
            StreamingDecompressor(LZ4(), b).concatenate(), data)
        # ... and an index that lies is a typed error, nothing sized
        # from the declared count or lengths.
        table = 8
        malformed = {
            "count-2**31": b[:4] + struct.pack("<I", 2**31) + b[8:],
            "length-2**60": b[:table] + struct.pack("<Q", 2**60) + b[table + 8:],
            "cut-in-table": b[: table + 12],
            "cut-in-last-chunk": b[:-5],
        }
        for case, blob in malformed.items():
            tracemalloc.start()
            try:
                with pytest.raises(CorruptStreamError):
                    StreamingDecompressor(LZ4(), blob).concatenate()
                    pytest.fail(f"{case} was accepted")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, case
