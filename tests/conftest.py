"""Shared fixtures for the HPDR suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adapters import get_adapter, list_adapters
from repro.trace.tracer import TRACER

ADAPTER_FAMILIES = list_adapters()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def smooth_3d():
    """Small smooth 3-D FP32 field (compressible)."""
    axes = [np.linspace(0, 3 * np.pi, 24)] * 3
    x, y, z = np.meshgrid(*axes, indexing="ij")
    return (np.sin(x) * np.cos(y) * np.sin(z) + 0.05 * np.sin(7 * x)).astype(
        np.float32
    )


@pytest.fixture
def smooth_2d():
    axes = [np.linspace(0, 2 * np.pi, 40), np.linspace(0, 2 * np.pi, 56)]
    x, y = np.meshgrid(*axes, indexing="ij")
    return (np.cos(2 * x) + np.sin(3 * y)).astype(np.float64)


@pytest.fixture(params=ADAPTER_FAMILIES)
def any_adapter(request):
    """Parametrized over every adapter family."""
    return get_adapter(request.param)


@pytest.fixture
def launch_spans():
    """Tracing on for one test.  Calling the fixture returns the launch
    spans (``gem.<functor>``/``dem.<functor>``, category
    ``adapter.<family>``) recorded since the last call, oldest first."""
    was = TRACER.enabled
    TRACER.enable(clear=True)

    def take():
        spans = [e for e in TRACER.snapshot() if e.cat.startswith("adapter.")]
        TRACER.clear()
        return sorted(spans, key=lambda e: e.start_ns)

    yield take
    TRACER.clear()
    TRACER.enabled = was


@pytest.fixture
def serial_adapter():
    return get_adapter("serial")


@pytest.fixture
def strict_serial_adapter():
    """Per-group oracle mode (functor purity checking)."""
    return get_adapter("serial", strict=True)


def fanning_openmp(num_threads: int):
    """``openmp`` with its fan-out floor at 0: every launch of two
    groups or more is really split ``num_threads`` ways, where the
    adapter as shipped runs test-sized launches inline."""
    adapter = get_adapter("openmp", num_threads=num_threads)
    # Under HPDR_SAN=1 get_adapter hands out the sanitizer's wrapper.
    getattr(adapter, "inner", adapter).FANOUT_FLOOR = 0
    return adapter


@pytest.fixture(params=["serial", "openmp"])
def sanitizing_adapter(request):
    """HPDR-San shadow-checked adapter (tsan mode) over both CPU backends."""
    from repro.check import SanitizingAdapter

    kwargs = {"num_threads": 2} if request.param == "openmp" else {}
    return SanitizingAdapter(get_adapter(request.param, **kwargs))
