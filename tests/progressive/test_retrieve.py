"""Retrieval engine: byte identity, bounded fetches, the full matrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Config, MGARDX, ProgressiveMGARD, ProgressiveRetriever
from repro.progressive import archive_bytes, is_archive, read_archive_prefix
from repro.testing import check_progressive, default_progressive_datasets


def _stream(data, **kwargs):
    codec = ProgressiveMGARD(Config(error_bound=1e-3), **kwargs)
    index, segments = codec.refactor(data)
    return codec, index, segments


def test_conformance_matrix():
    """The acceptance suite across every dtype/shape class."""
    check_progressive()


def test_full_prefix_byte_identity_explicit():
    data = default_progressive_datasets()[0][1]
    cfg = Config(error_bound=1e-3)
    _codec, index, segments = _stream(data)
    oneshot = MGARDX(cfg)
    want = oneshot.decompress(oneshot.compress(data))
    got, report = ProgressiveRetriever().retrieve(archive_bytes(index, segments))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert report.segments_fetched == len(index.records)


def test_eps_fetches_fewer_bytes():
    data = default_progressive_datasets()[2][1]
    _codec, index, segments = _stream(data)
    blob = archive_bytes(index, segments)
    frontier = index.frontier()
    assert len(frontier) >= 2
    eps = frontier[0].error_bound * 1.0001
    coarse, report = ProgressiveRetriever().retrieve(blob, eps=eps)
    err = float(np.max(np.abs(coarse.astype(np.float64)
                              - data.astype(np.float64))))
    assert err <= eps
    assert report.bytes_fetched < report.total_bytes
    assert report.fraction_fetched < 1.0


def test_file_retrieval_reads_prefix_only(tmp_path):
    data = default_progressive_datasets()[3][1]
    _codec, index, segments = _stream(data)
    blob = archive_bytes(index, segments)
    assert is_archive(blob)
    path = tmp_path / "field.hpgx"
    path.write_bytes(blob)
    eps = index.frontier()[0].error_bound * 1.0001
    idx, plan, fetched = read_archive_prefix(path, eps=eps)
    assert len(plan) < len(idx.records)
    assert sum(len(s) for s in fetched) == sum(r.nbytes for r in plan)
    via_file, report = ProgressiveRetriever().retrieve(path, eps=eps)
    via_blob, _ = ProgressiveRetriever().retrieve(blob, eps=eps)
    assert report.source == "file"
    assert via_file.tobytes() == via_blob.tobytes()


def test_resolution_prefix_is_group_complete():
    data = default_progressive_datasets()[1][1]
    _codec, index, segments = _stream(data)
    blob = archive_bytes(index, segments)
    for level in (1, index.ngroups // 2 or 1, index.ngroups):
        plan = index.plan(resolution=level)
        assert {r.group for r in plan} == set(range(level))
        arr, report = ProgressiveRetriever().retrieve(blob, resolution=level)
        assert arr.shape == data.shape
        assert report.segments_fetched == len(plan)


def test_strict_false_degrades_to_full():
    data = default_progressive_datasets()[4][1]
    _codec, index, segments = _stream(data)
    blob = archive_bytes(index, segments)
    tiny = index.floor / 10 if index.floor else 1e-300
    arr, report = ProgressiveRetriever().retrieve(blob, eps=tiny, strict=False)
    assert report.bytes_fetched == report.total_bytes
    full, _ = ProgressiveRetriever().retrieve(blob)
    assert arr.tobytes() == full.tobytes()


def test_refactor_rejects_bad_inputs():
    codec = ProgressiveMGARD()
    with pytest.raises(TypeError):
        codec.refactor(np.arange(10, dtype=np.int32))
    with pytest.raises(ValueError):
        codec.refactor(np.zeros((2, 2, 2, 2, 2), dtype=np.float32))


def test_plane_granularity_round_trips():
    """Different bitplane schedules change segmentation, not the answer."""
    data = default_progressive_datasets()[0][1]
    cfg = Config(error_bound=1e-3)
    oneshot = MGARDX(cfg)
    want = oneshot.decompress(oneshot.compress(data)).tobytes()
    for kwargs in ({"bits_per_plane": 4, "max_planes": 5},
                   {"bits_per_plane": 16, "max_planes": 1}):
        _codec, index, segments = _stream(data, **kwargs)
        got, _ = ProgressiveRetriever().retrieve(archive_bytes(index, segments))
        assert got.tobytes() == want


def test_bytes_fetched_counter_always_on():
    from repro.trace.metrics import REGISTRY

    data = default_progressive_datasets()[3][1]
    _codec, index, segments = _stream(data)
    counter = REGISTRY.counter(
        "hpdr_progressive_bytes_fetched_total",
        "segment bytes fetched by bounded retrievals",
    )
    before = counter.value(source="blob")
    _, report = ProgressiveRetriever().retrieve(archive_bytes(index, segments))
    assert counter.value(source="blob") == before + report.bytes_fetched


def test_reader_and_writer_share_one_context(monkeypatch):
    """Hierarchy, factors and level geometry depend on the grid alone
    (bins travel in the stream and the index), so the one-shot codec at
    any bound, the progressive writer and the reader find one context
    per grid, and its hierarchy is built once.  Keyed on the Config,
    every bound and each front end rebuilt them and pushed one more
    entry through the LRU."""
    from repro.compressors.mgard import compressor
    from repro.core.context import ContextCache

    built = []

    class CountingHierarchy(compressor.Hierarchy):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(compressor, "Hierarchy", CountingHierarchy)
    cache = ContextCache()
    data = default_progressive_datasets()[2][1]
    for eb in (1e-2, 1e-4):
        codec = MGARDX(Config(error_bound=eb), context_cache=cache)
        codec.decompress(codec.compress(data))
    writer = ProgressiveMGARD(Config(error_bound=3e-3), context_cache=cache)
    index, segments = writer.refactor(data)
    reader = ProgressiveRetriever(context_cache=cache)
    back, _ = reader.retrieve(archive_bytes(index, segments))
    assert back.shape == data.shape
    mgard = [c for c in cache.contexts() if c.key[0] == "mgard"]
    assert len(mgard) == 1
    assert "hierarchy" in mgard[0] and "factors" in mgard[0]
    assert built == [data.shape]
