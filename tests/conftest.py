"""Shared fixtures and the flaky-test quarantine for the HPDR suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from _pytest.runner import runtestprotocol

from repro.adapters import get_adapter

ADAPTER_FAMILIES = ["serial", "openmp", "cuda", "hip", "sycl"]

# -- flaky quarantine -------------------------------------------------------
# Tests marked ``timing_sensitive`` depend on scheduler or wall-clock
# behaviour (soak budgets, health-probe intervals, subprocess spawn).
# On a loaded single-core CI runner they can fail spuriously; the
# quarantine grants exactly ONE retry and reports every rerun so a test
# that needs its retry is visible, not silently green.

#: nodeids that failed once and were rerun (pass or fail).
_RERUNS: list[str] = []


def pytest_runtest_protocol(item, nextitem):
    if item.get_closest_marker("timing_sensitive") is None:
        return None
    item.ihook.pytest_runtest_logstart(
        nodeid=item.nodeid, location=item.location
    )
    reports = runtestprotocol(item, nextitem=nextitem, log=False)
    if any(r.failed for r in reports):
        _RERUNS.append(item.nodeid)
        item._initrequest()  # fresh fixture state for the clean rerun
        reports = runtestprotocol(item, nextitem=nextitem, log=False)
    for report in reports:
        item.ihook.pytest_runtest_logreport(report=report)
    item.ihook.pytest_runtest_logfinish(
        nodeid=item.nodeid, location=item.location
    )
    return True


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RERUNS:
        return
    terminalreporter.section("flaky quarantine")
    terminalreporter.line(
        f"{len(_RERUNS)} timing_sensitive test(s) failed once and were "
        "retried:"
    )
    for nodeid in _RERUNS:
        terminalreporter.line(f"  RERUN {nodeid}")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(
                f"\n### Flaky quarantine: {len(_RERUNS)} rerun(s)\n\n"
            )
            for nodeid in _RERUNS:
                fh.write(f"- `{nodeid}`\n")


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
