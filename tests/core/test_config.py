"""Config validation and error-bound resolution."""

import numpy as np
import pytest

from repro.core.config import Config, ErrorMode


def test_defaults():
    c = Config()
    assert c.error_mode is ErrorMode.REL
    assert c.error_bound == 1e-4


def test_abs_bound_passthrough():
    c = Config(error_bound=0.5, error_mode=ErrorMode.ABS)
    data = np.array([0.0, 100.0])
    assert c.absolute_bound(data) == 0.5


def test_rel_bound_scales_with_range():
    c = Config(error_bound=1e-2, error_mode=ErrorMode.REL)
    data = np.array([-5.0, 15.0])  # range 20
    assert c.absolute_bound(data) == pytest.approx(0.2)


def test_rel_bound_constant_field():
    c = Config(error_bound=1e-2, error_mode=ErrorMode.REL)
    data = np.full(10, 3.0)
    assert c.absolute_bound(data) == pytest.approx(1e-2)


def test_invalid_error_bound():
    with pytest.raises(ValueError):
        Config(error_bound=0.0)
    with pytest.raises(ValueError):
        Config(error_bound=-1.0)


def test_invalid_lossless():
    with pytest.raises(ValueError):
        Config(lossless="zstd")


def test_frozen():
    c = Config()
    with pytest.raises(AttributeError):
        c.error_bound = 1.0
