"""Adapter conformance kit."""

import numpy as np
import pytest

from repro.adapters import get_adapter, list_adapters
from repro.adapters.serial import SerialAdapter
from repro.core.functor import FnLocality
from repro.testing import (
    REFERENCE_SHAPES,
    AdapterConformanceError,
    _check_reference_agreement,
    check_adapter,
)
from tests.conftest import fanning_openmp


@pytest.mark.parametrize("family", list_adapters())
def test_all_builtin_adapters_conform(family):
    check_adapter(get_adapter(family))


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_openmp_conforms_at_forced_width(width):
    """Whatever the host reports: a stream never depends on the width —
    with the fan-out floor as shipped (the kit's launches run inline),
    and with it at 0, so every launch of two groups or more is really
    partitioned ``width`` ways."""
    check_adapter(get_adapter("openmp", num_threads=width))
    check_adapter(fanning_openmp(width))


def test_broken_adapter_detected_reordering():
    class Reorders(SerialAdapter):
        def execute_group_batch(self, functor, batch):
            out = super().execute_group_batch(functor, batch)
            return out[::-1] if out.shape[0] > 1 else out

    with pytest.raises(AdapterConformanceError):
        check_adapter(Reorders())


def test_broken_adapter_detected_numerics():
    class Drifts(SerialAdapter):
        def execute_group_batch(self, functor, batch):
            return super().execute_group_batch(functor, batch) * (1 + 1e-9)

    with pytest.raises(AdapterConformanceError):
        check_adapter(Drifts())


def test_broken_adapter_detected_dem_order():
    class SkipsStages(SerialAdapter):
        def execute_domain(self, functor, data):
            stages = list(functor.stages())
            return stages[-1](data)  # drops all but the last stage

    with pytest.raises(AdapterConformanceError):
        check_adapter(SkipsStages())


def test_strict_serial_conforms():
    check_adapter(get_adapter("serial", strict=True))


@pytest.mark.parametrize("shape", REFERENCE_SHAPES, ids=["tile", "fanout"])
@pytest.mark.parametrize(
    "family,kwargs",
    [pytest.param(f, {}, id=f) for f in list_adapters()]
    + [pytest.param("openmp", {"num_threads": w}, id=f"openmp-{w}")
       for w in (1, 2, 4, 8)],
)
def test_reference_check_catches_an_impure_functor(family, kwargs, shape, monkeypatch):
    """Every block reads block 0: each schedule returns something else
    than strict serial's one group at a time, so the reference check
    refuses it on every backend, at a tile and past the fan-out floor.
    (The sanitizer is held off: it would catch the probe first.)"""
    monkeypatch.delenv("HPDR_SAN", raising=False)
    probe = FnLocality(lambda b: b + b[:1], "probe")
    batch = np.random.default_rng(0).normal(size=shape)
    adapter = get_adapter(family, **kwargs)
    try:
        with pytest.raises(AdapterConformanceError):
            _check_reference_agreement(adapter, batch, probe)
    finally:
        adapter.close()
