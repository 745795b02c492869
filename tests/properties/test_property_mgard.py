"""Property-based tests: MGARD invariants (transform exactness and the
error-bound guarantee)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro import Config, ErrorMode, MGARDX
from repro.compressors.mgard.decompose import decompose, recompose
from repro.compressors.mgard.hierarchy import Hierarchy
from repro.compressors.mgard.quantize import from_symbols, to_symbols

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)

small_fields = arrays(
    dtype=np.float64,
    shape=array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=14),
    elements=finite_floats,
)


@given(data=small_fields)
@settings(max_examples=40, deadline=None)
def test_decompose_recompose_identity(data):
    h = Hierarchy(data.shape)
    coeffs, coarsest = decompose(data, h)
    back = recompose(coeffs, coarsest, h)
    scale = max(1.0, np.abs(data).max())
    assert np.max(np.abs(back - data)) <= 1e-8 * scale


def field_elements(width: int):
    """Ordinary values, zero and denormals, and the extreme range
    (1e-30 … 1e30, either sign) — all finite."""
    ftype = np.dtype(f"float{width}").type
    tiny = float(np.finfo(ftype).tiny)
    extreme = st.floats(   # the bounds as the width represents them
        min_value=float(ftype(1e-30)), max_value=float(ftype(1e30)), width=width
    )
    return st.one_of(
        st.floats(min_value=-1e6, max_value=1e6, width=width),
        st.floats(min_value=-tiny, max_value=tiny, width=width),
        extreme,
        extreme.map(lambda v: -v),
    )


@st.composite
def field_batches(draw, min_side=2):
    """1-3 same-shape float32 or float64 fields; each is constant or
    drawn element by element from :func:`field_elements`."""
    width = draw(st.sampled_from([32, 64]))
    dtype = np.dtype(f"float{width}")
    shape = draw(array_shapes(min_dims=1, max_dims=3, min_side=min_side,
                              max_side=10))
    elements = field_elements(width)
    field = st.one_of(
        arrays(dtype=dtype, shape=shape, elements=elements),
        elements.map(lambda v: np.full(shape, v, dtype=dtype)),
    )
    return draw(st.lists(field, min_size=1, max_size=3))


def max_abs_error(data: np.ndarray, back: np.ndarray) -> float:
    assert back.dtype == data.dtype and back.shape == data.shape
    return float(np.max(np.abs(back.astype(np.float64) - data.astype(np.float64))))


def cast_slack(data: np.ndarray) -> float:
    """Half an ulp of the largest value: what the cast of the float64
    reconstruction back to the input dtype can add to the error."""
    return float(np.spacing(np.abs(data).max())) / 2


@given(
    fields=field_batches(),
    eb=st.floats(min_value=1e-4, max_value=1.0),
    mode=st.sampled_from([ErrorMode.ABS, ErrorMode.REL]),
)
@settings(max_examples=120, deadline=None)
def test_absolute_error_bound_holds(fields, eb, mode):
    """The bound holds for every lane of a batch of 1-3, in both modes
    and both widths, on denormal, constant and extreme-range fields."""
    if mode is ErrorMode.ABS:
        # One bound for the batch, sized on its largest magnitude.
        scale = max(float(np.abs(f).max()) for f in fields) or 1.0
        assume(eb * scale > 0)          # denormal scale: the product underflows
        config = Config(error_bound=eb * scale, error_mode=ErrorMode.ABS)
    else:
        config = Config(error_bound=eb, error_mode=ErrorMode.REL)
    c = MGARDX(config)
    try:
        blobs = c.compress_batch(fields)
    except ValueError:
        # Refusing is legitimate only for a bound float64 cannot honour:
        # finer than 2^-47 of the field's peak (bins are >= bound / 32
        # here), or so close to the smallest denormal that its share per
        # level underflows to zero.
        assert any(
            float(np.abs(f).max()) >= config.absolute_bound(f) * 2.0**47
            or config.absolute_bound(f) < 64 * 5e-324
            for f in fields
        )
        return
    backs = c.decompress_batch(blobs)
    assert len(backs) == len(fields)
    for data, back in zip(fields, backs):
        bound = config.absolute_bound(data)
        assert max_abs_error(data, back) <= bound * (1 + 1e-9) + cast_slack(data)


@pytest.mark.parametrize("bad", [
    np.float32(1.5),                            # 0-d
    np.zeros((0,), dtype=np.float32),           # empty
    np.zeros((3, 0), dtype=np.float64),
], ids=["0-d", "empty-1d", "empty-2d"])
def test_zero_d_and_empty_inputs_are_refused(bad):
    c = MGARDX(Config(error_bound=1e-3, error_mode=ErrorMode.REL))
    with pytest.raises((ValueError, TypeError)):
        c.compress(bad)
    with pytest.raises((ValueError, TypeError)):
        c.compress_batch([bad, bad])


@given(
    q=arrays(
        dtype=np.int64,
        shape=st.one_of(
            st.integers(0, 300),
            st.tuples(st.integers(1, 3), st.integers(0, 100)),   # lanes
        ),
        elements=st.integers(-(2**40), 2**40),
    ),
    dict_size=st.sampled_from([2, 16, 256, 4096]),
)
@settings(max_examples=60, deadline=None)
def test_symbol_mapping_roundtrip(q, dict_size):
    syms, outliers = to_symbols(q, dict_size)
    assert np.all(syms >= 0) and np.all(syms < dict_size)
    assert np.array_equal(from_symbols(syms, outliers), q)
    if q.ndim == 2:
        # A plane of N lanes is N planes of one.
        for lane, lane_syms, lane_outliers in zip(q, syms, outliers):
            alone = to_symbols(lane, dict_size)
            assert np.array_equal(alone[0], lane_syms)
            assert np.array_equal(alone[1], lane_outliers)
        assert np.array_equal(from_symbols(list(syms), outliers), q)


@given(data=small_fields)
@settings(max_examples=25, deadline=None)
def test_coefficient_count_invariant(data):
    h = Hierarchy(data.shape)
    coeffs, coarsest = decompose(data, h)
    assert sum(c.size for c in coeffs) + coarsest.size == data.size
