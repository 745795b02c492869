"""Property-based tests: ZFP, SZ and LZ4 invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro import LZ4, SZ, ZFPX, Config, ErrorMode
from repro.compressors.baselines.sz import lorenzo_forward, lorenzo_inverse
from repro.compressors.zfp.bitplane import from_negabinary, to_negabinary
from repro.compressors.zfp.modes import ZFPAccuracy
from repro.compressors.zfp.transform import fwd_transform, inv_transform
from tests.properties.test_property_mgard import (
    cast_slack,
    field_batches,
    max_abs_error,
)

finite32 = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)

fields32 = arrays(
    dtype=np.float32,
    shape=array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12),
    elements=finite32,
)


@given(
    x=arrays(dtype=np.int64, shape=st.integers(1, 200),
             elements=st.integers(-(2**30), 2**30)),
    width=st.sampled_from([32, 64]),
)
@settings(max_examples=80, deadline=None)
def test_negabinary_bijective(x, width):
    assert np.array_equal(from_negabinary(to_negabinary(x, width), width), x)


@given(
    ib=arrays(dtype=np.int64, shape=st.tuples(st.just(16), st.integers(1, 20)),
              elements=st.integers(-(2**28), 2**28)),
)
@settings(max_examples=50, deadline=None)
def test_transform_near_inverse(ib):
    back = inv_transform(fwd_transform(ib.copy(), 2), 2)
    assert np.abs(back - ib).max() <= 16  # bounded lifting shift loss


@given(data=fields32, rate=st.sampled_from([8, 16, 28]))
@settings(max_examples=40, deadline=None)
def test_zfp_fixed_rate_size_depends_only_on_shape(data, rate):
    z = ZFPX(rate=rate)
    blob = z.compress(data)
    zeros = z.compress(np.zeros_like(data))
    assert len(blob) == len(zeros)
    back = z.decompress(blob)
    assert back.shape == data.shape and back.dtype == data.dtype


@given(fields=field_batches(min_side=1),
       eb=st.floats(min_value=1e-4, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_zfp_accuracy_tolerance_holds(fields, eb):
    """Fix-accuracy mode meets its absolute tolerance on denormal,
    constant and extreme-range fields of both widths."""
    for data in fields:
        tolerance = eb * (float(np.abs(data).max()) or 1.0)
        assume(tolerance > 0)  # eb times a subnormal peak can underflow
        z = ZFPAccuracy(tolerance=tolerance)
        back = z.decompress(z.compress(data))
        assert max_abs_error(data, back) <= tolerance + cast_slack(data)


def test_zfp_accuracy_tolerance_holds_near_the_smallest_float64():
    data = np.array([2.0825816890386755e-308])      # hypothesis' minimal input
    z = ZFPAccuracy(tolerance=0.5 * float(data[0]))
    assert max_abs_error(data, z.decompress(z.compress(data))) <= z.tolerance


@pytest.mark.parametrize("build", [
    lambda: ZFPX(rate=8), lambda: ZFPAccuracy(tolerance=1e-3),
], ids=["zfp-x", "zfp-accuracy"])
@pytest.mark.parametrize("bad", [
    np.float32(1.5),                            # 0-d
    np.zeros((0,), dtype=np.float32),           # empty
    np.zeros((3, 0), dtype=np.float64),
], ids=["0-d", "empty-1d", "empty-2d"])
def test_zero_d_and_empty_inputs_are_refused(build, bad):
    with pytest.raises((ValueError, TypeError)):
        build().compress(bad)


@given(
    xq=arrays(dtype=np.int64,
              shape=array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=8),
              elements=st.integers(-(2**40), 2**40)),
)
@settings(max_examples=60, deadline=None)
def test_lorenzo_bijective(xq):
    assert np.array_equal(lorenzo_inverse(lorenzo_forward(xq)), xq)


@given(data=fields32, eb=st.floats(min_value=1e-5, max_value=0.5))
@settings(max_examples=40, deadline=None)
def test_sz_error_bound_universal(data, eb):
    """SZ's bound holds for *any* finite input — exact by construction
    in float64; the final cast back to the input dtype can add at most
    half an ulp of the reconstructed value."""
    scale = max(1.0, float(np.abs(data).max()))
    bound = eb * scale
    sz = SZ(Config(error_bound=bound, error_mode=ErrorMode.ABS))
    ulp = float(np.spacing(np.float32(scale)))
    assert sz.max_error(data, sz.compress(data)) <= bound + ulp


@given(raw=st.binary(min_size=0, max_size=3000))
@settings(max_examples=60, deadline=None)
def test_lz4_lossless_any_bytes(raw):
    lz = LZ4()
    back = lz.decompress(lz.compress(raw))
    assert back.tobytes() == raw
