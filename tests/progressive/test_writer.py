"""The writer: what a refactor costs, and what it refuses to write."""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest

from repro import MGARDX, Config, ProgressiveMGARD
from repro.adapters.serial import SerialAdapter
from repro.compressors.mgard.decompose import decompose
from repro.compressors.mgard.hierarchy import Hierarchy
from repro.core.config import ErrorMode
from repro.progressive.segments import decode_segment


class _CountingAdapter(SerialAdapter):
    """Serial adapter that counts GEM and DEM launches by functor name."""

    def __init__(self) -> None:
        super().__init__()
        self.launches: Counter[str] = Counter()

    def execute_group_batch(self, functor, batch):
        self.launches[functor.name] += 1
        return super().execute_group_batch(functor, batch)

    def execute_domain(self, functor, data):
        self.launches[functor.name] += 1
        return super().execute_domain(functor, data)


def test_refactor_solves_at_most_one_correction_level_per_segment(rng):
    """A correction level is one tridiagonal solve launch per dimension.
    Measuring a prefix by full recomposition costs every level again for
    every segment; the writer may spend one level per segment on top of
    the decomposition itself."""
    shape = (17, 13, 9)
    data = rng.normal(size=shape).astype(np.float32)
    adapter = _CountingAdapter()
    hierarchy = Hierarchy(shape)
    decompose(data, hierarchy, adapter=adapter)
    decompose_solves = adapter.launches["mgard.tridiag"]
    assert decompose_solves >= hierarchy.total_levels

    adapter.launches.clear()
    codec = ProgressiveMGARD(
        Config(error_bound=1e-4), adapter=adapter, bits_per_plane=4,
        max_planes=4,
    )
    index, segments = codec.refactor(data)
    budget = decompose_solves + len(segments) * len(shape)
    assert adapter.launches["mgard.tridiag"] <= budget
    # ... and the budget is far below what full recompositions would cost.
    assert budget < len(segments) * decompose_solves / 2
    # The key coder is launched per resolution group, not per segment: a
    # group's planes share one histogram, one encode gather, one
    # serialize pass.
    assert len(segments) > index.ngroups
    for stage in ("huffman.histogram", "huffman.encode", "huffman.serialize"):
        assert adapter.launches[stage] <= index.ngroups


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("mode", list(ErrorMode))
def test_non_finite_input_is_refused(bad, mode, rng):
    data = rng.normal(size=(9, 11)).astype(np.float32)
    data[3, 4] = bad
    codec = ProgressiveMGARD(Config(error_bound=1e-3, error_mode=mode))
    with pytest.raises(ValueError, match="finite"):
        codec.refactor(data)


def test_bound_float64_cannot_resolve_is_refused_like_one_shot():
    """A 1e12-magnitude field at an absolute bound of 1e-6 asks for more
    than float64's mantissa: both front doors refuse it, with the same
    error and without a cast warning, instead of writing an archive
    whose full prefix is off by ~1e12."""
    data = np.random.default_rng(0).standard_normal((16, 16)) * 1e12
    config = Config(error_bound=1e-6, error_mode=ErrorMode.ABS)
    with pytest.raises(ValueError) as one_shot:
        MGARDX(config).compress(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as progressive:
            ProgressiveMGARD(config).refactor(data)
    assert str(progressive.value) == str(one_shot.value)


@pytest.mark.parametrize("shape", [(0,), (3, 0), ()])
def test_empty_input_is_refused(shape):
    # () is 0-d: one value, refused for its rank, not promoted to (1,).
    why = "non-empty" if shape else "1-4 dims"
    with pytest.raises(ValueError, match=why):
        ProgressiveMGARD().refactor(np.zeros(shape, dtype=np.float32))


def test_reader_decodes_segments_in_place(rng):
    """CRC check and decode accept a view of a larger buffer: the read
    path need not copy a segment out of its archive first."""
    data = rng.normal(size=(14, 18)).astype(np.float32)
    codec = ProgressiveMGARD(Config(error_bound=1e-3))
    index, segments = codec.refactor(data)
    arena = b"".join(segments)
    views = [
        memoryview(arena)[r.offset : r.offset + r.nbytes]
        for r in index.records
    ]
    for rec, view, seg in zip(index.records, views, segments):
        rec.check_crc(view)
        got, want = decode_segment(view, codec._huffman), decode_segment(
            seg, codec._huffman
        )
        assert got[:2] == want[:2] and np.array_equal(got[2], want[2])
    assert (
        codec.reconstruct(index, views).tobytes()
        == codec.reconstruct(index, segments).tobytes()
    )
