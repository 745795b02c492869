"""Every recorded bound is the error its prefix achieves, bit for bit.

The writer measures each prefix in one float64 scratch as ``max(max d,
-min d)``; a reader measuring ``max|d|`` on what it reconstructs must
read the same float, sign of zero included.  Degenerate grids (one or
two nodes, unit axes, four dimensions), constant and signed-zero fields,
and a field near float64's smallest normals pin that equivalence.
"""

from __future__ import annotations

import math
import struct
import warnings

import numpy as np
import pytest

from repro import MGARDX, Config, ProgressiveMGARD
from repro.core.config import ErrorMode
from repro.progressive.codec import prefix_error

_REL = Config(error_bound=1e-4, error_mode=ErrorMode.REL)
_REL_1E2 = Config(error_bound=1e-2, error_mode=ErrorMode.REL)


def _fields():
    rng = np.random.default_rng(7057)
    for shape in [(1,), (2,), (1, 5), (5, 1, 3), (4, 4, 4, 4), (33, 17)]:
        yield f"normal{shape}", rng.standard_normal(shape).astype(np.float32)
    yield "constant", np.full((6, 7), 2.5, dtype=np.float32)
    yield "zeros", np.zeros((6, 7), dtype=np.float32)
    yield "negative-zeros", np.full((6, 7), -0.0, dtype=np.float32)
    yield "float64-1e-300", rng.standard_normal((9, 10)) * 1e-300


FIELDS = dict(_fields())


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("name", list(FIELDS))
def test_each_recorded_bound_is_its_prefix_error(name):
    data = FIELDS[name]
    codec = ProgressiveMGARD(_REL)
    index, segments = codec.refactor(data)
    for k, rec in enumerate(index.records, start=1):
        back = codec.reconstruct(index, segments[:k])
        measured = float(np.max(np.abs(
            back.astype(np.float64) - data.astype(np.float64))))
        assert _bits(rec.error_bound) == _bits(measured), (k, rec, measured)
    one_shot = MGARDX(_REL)
    assert back.tobytes() == one_shot.decompress(one_shot.compress(data)).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_refused_as_one_shot_refuses_it(bad):
    data = np.ones((5, 6), dtype=np.float32)
    data[2, 3] = bad
    with pytest.raises(ValueError) as one_shot:
        MGARDX(_REL).compress(data)
    with pytest.raises(ValueError) as progressive:
        ProgressiveMGARD(_REL).refactor(data)
    assert str(progressive.value) == str(one_shot.value)


def test_a_prefix_that_overflows_its_dtype_is_refused():
    """Finite float32 data at the top of the range can reconstruct past
    it: the prefix rounds to inf, which the measurement reports."""
    rng = np.random.default_rng(0)
    top = np.finfo(np.float32).max
    data = (top * (1 - rng.random((9, 11)) * 2e-3)).astype(np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="measured prefix error is inf"):
            ProgressiveMGARD(_REL_1E2).refactor(data)
    assert math.isfinite(float(data.max()))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("recon, data", [
    (np.full(4, -0.0), np.zeros(4)),                    # d = -0.0 only
    (np.array([-0.0, 0.0, -0.0]), np.zeros(3)),
    (np.array([1.0, -3.0, 2.0]), np.array([0.5, -1.0, 2.0])),
    (np.array([1 + 2**-30, 7.0]), np.ones(2, np.float32)),  # rounds to f32
    (np.array([np.nan, 1.0]), np.ones(2)),
    (np.array([1.0, -np.inf]), np.ones(2, np.float32)),
    (np.array([1e39, 0.0]), np.zeros(2, np.float32)),   # f32 overflow
])
def test_the_measurement_is_max_abs_bit_for_bit(recon, data):
    """``max(max d, -min d)`` is ``max|d|`` with the reader's rounding,
    ``+0.0`` for a ``-0.0`` maximum, and NaN/inf passed through."""
    want = float(np.max(np.abs(
        recon.astype(data.dtype).astype(np.float64) - data.astype(np.float64))))
    got = prefix_error(recon, data, np.empty(recon.shape))
    assert _bits(got) == _bits(want)
