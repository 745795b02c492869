"""Device adapters: registry, execution semantics, launch spans."""

import numpy as np
import pytest

from repro.adapters import OpenMPAdapter, SimulatedAdapter, get_adapter, list_adapters
from repro.core.functor import FnDomain, FnLocality
from repro.machine.specs import A100, EPYC7713, MI250X, V100
from repro.trace.tracer import TRACER


def test_registry_lists_all_families():
    assert set(list_adapters()) == {"serial", "openmp", "cuda", "hip", "sycl"}
    assert all(get_adapter(f).family == f for f in list_adapters())


def test_get_adapter_unknown():
    with pytest.raises(KeyError):
        get_adapter("metal")


def test_default_specs():
    assert get_adapter("cuda").spec is V100
    assert get_adapter("hip").spec is MI250X
    assert get_adapter("serial").spec is None


def test_cuda_adapter_accepts_cuda_specs_only():
    assert get_adapter("cuda", spec=A100).spec is A100
    with pytest.raises(ValueError):
        get_adapter("cuda", spec=MI250X)
    with pytest.raises(ValueError):
        get_adapter("hip", spec=V100)


def test_openmp_thread_count_from_spec():
    a = OpenMPAdapter(spec=EPYC7713)
    assert a.num_threads == 64
    a.close()


def test_openmp_invalid_threads():
    with pytest.raises(ValueError):
        OpenMPAdapter(num_threads=0)


def test_openmp_single_thread_no_pool():
    a = OpenMPAdapter(num_threads=1)
    assert a._pool is None
    out = a.execute_group_batch(FnLocality(lambda b: b + 1, "inc"), np.zeros((3, 2)))
    assert np.all(out == 1)


def test_all_adapters_same_gem_result(rng):
    batch = rng.normal(size=(13, 5, 5))
    f = FnLocality(lambda b: b**2 - b, "poly")
    ref = get_adapter("serial").execute_group_batch(f, batch)
    for fam in list_adapters():
        out = get_adapter(fam).execute_group_batch(f, batch)
        assert np.array_equal(ref, out), fam


def test_strict_serial_detects_impure_functor(rng):
    """A functor leaking state across blocks diverges between strict
    (per-block) and batched execution — the purity oracle."""
    batch = rng.normal(size=(6, 4))
    impure = FnLocality(lambda b: b - b.mean(), "impure")  # mean over batch!
    strict = get_adapter("serial", strict=True).execute_group_batch(impure, batch)
    # Built directly: under HPDR_SAN the sanitizer would catch it first.
    batched = SimulatedAdapter("cuda").execute_group_batch(impure, batch)
    assert not np.allclose(strict, batched)


def test_simulated_devices_run_waves_of_their_units(rng):
    """A launch runs in waves of at most ``spec.units`` groups, so a V100
    (80 units) and an MI250X (220) partition 300 groups differently —
    which a partition-dependent functor shows."""
    batch = rng.normal(size=(300, 4))
    results, waves = {}, {}
    for family in ("cuda", "hip"):
        sizes = []

        def centre(b, sizes=sizes):
            sizes.append(b.shape[0])
            return b - b.mean()

        results[family] = SimulatedAdapter(family).execute_group_batch(
            FnLocality(centre, "centre"), batch)
        waves[family] = sizes
    assert waves == {"cuda": [75] * 4, "hip": [150] * 2}
    assert not np.array_equal(results["cuda"], results["hip"])


def test_sim_adapters_record_kernel_trace(rng, launch_spans):
    """A launch's record is its span: model, functor, adapter, group
    count and bytes."""
    batch = rng.normal(size=(4, 100))
    for family in ("cuda", "hip", "sycl"):
        a = get_adapter(family)
        a.execute_group_batch(FnLocality(lambda b: b, "noop"), batch)
        (rec,) = launch_spans()
        assert (rec.name, rec.cat) == ("gem.noop", f"adapter.{family}")
        assert rec.args == {"groups": 4, "nbytes": batch.nbytes}


def test_trace_accumulates_and_resets(rng, launch_spans):
    a = get_adapter("hip")
    a.execute_group_batch(FnLocality(lambda b: b, "noop"), rng.normal(size=(2, 10)))
    a.execute_domain(FnDomain(lambda d: d, name="dem"), rng.normal(size=50))
    assert [e.name for e in launch_spans()] == ["gem.noop", "dem.dem"]
    assert launch_spans() == []


def test_specless_adapter_records_nothing(rng):
    """With tracing off a launch leaves no record anywhere — not on the
    adapter, spec'd or not, and not in the tracer."""
    if TRACER.enabled:
        pytest.skip("tracing is on (HPDR_TRACE)")
    spans = len(TRACER.snapshot())
    for family in ("serial", "cuda"):
        a = get_adapter(family)
        # Under HPDR_SAN=1 serial is the sanitizer's wrapper, which
        # counts the batches it checked; the adapter is its ``inner``.
        state = lambda: repr(vars(getattr(a, "inner", a)))
        before = state()
        a.execute_group_batch(FnLocality(lambda b: b, "noop"), rng.normal(size=(2, 3)))
        a.execute_domain(FnDomain(lambda d: d, name="dem"), rng.normal(size=5))
        assert state() == before
    assert len(TRACER.snapshot()) == spans


def test_empty_batch_passthrough():
    a = get_adapter("serial")
    batch = np.zeros((0, 4))
    out = a.execute_group_batch(FnLocality(lambda b: b, "noop"), batch)
    assert out.shape[0] == 0


def test_adapter_name():
    # Under HPDR_SAN get_adapter auto-wraps every family in the
    # sanitizer, which brackets the name without hiding it.
    assert get_adapter("cuda").name in ("cuda(V100)", "san(cuda(V100))")
    assert get_adapter("serial").name in ("serial", "san(serial)")


def test_openmp_many_groups_chunked(rng):
    """More groups than threads: results must stitch back in order."""
    a = OpenMPAdapter(num_threads=4)
    a.FANOUT_FLOOR = 0      # 800 bytes would run inline as shipped
    batch = np.arange(100, dtype=float).reshape(100, 1)
    out = a.execute_group_batch(FnLocality(lambda b: b * 2, "dbl"), batch)
    assert np.array_equal(out, batch * 2)
    a.close()


def test_sycl_adapter_is_vendor_agnostic():
    """The SYCL backend accepts any processor spec (portability layer)."""
    assert get_adapter("sycl").spec is V100
    assert get_adapter("sycl", spec=A100).spec is A100
    assert get_adapter("sycl", spec=MI250X).spec is MI250X
