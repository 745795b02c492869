"""Device adapters: registry, execution semantics, tracing."""

import numpy as np
import pytest

from repro.adapters import (
    CudaSimAdapter,
    HipSimAdapter,
    OpenMPAdapter,
    SerialAdapter,
    get_adapter,
    list_adapters,
)
from repro.core.functor import FnDomain, FnLocality
from repro.machine.specs import A100, EPYC7713, MI250X, V100


def test_registry_lists_all_families():
    assert set(list_adapters()) == {"serial", "openmp", "cuda", "hip", "sycl"}


def test_get_adapter_unknown():
    with pytest.raises(KeyError):
        get_adapter("metal")


def test_default_specs():
    assert get_adapter("cuda").spec is V100
    assert get_adapter("hip").spec is MI250X
    assert get_adapter("serial").spec is None


def test_cuda_adapter_accepts_cuda_specs_only():
    CudaSimAdapter(spec=A100)
    with pytest.raises(ValueError):
        CudaSimAdapter(spec=MI250X)
    with pytest.raises(ValueError):
        HipSimAdapter(spec=V100)


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
    for fam in ("openmp", "cuda", "hip", "sycl"):
        out = get_adapter(fam).execute_group_batch(f, batch)
        assert np.array_equal(ref, out), fam


def test_strict_serial_detects_impure_functor(rng):
    """A functor leaking state across blocks diverges between strict
    (per-block) and batched execution — the purity oracle."""
    batch = rng.normal(size=(6, 4))
    impure = FnLocality(lambda b: b - b.mean(), "impure")  # mean over batch!
    strict = get_adapter("serial", strict=True).execute_group_batch(impure, batch)
    batched = get_adapter("cuda").execute_group_batch(impure, batch)
    assert not np.allclose(strict, batched)


def test_sim_adapters_record_kernel_trace(rng):
    a = get_adapter("cuda")
    f = FnLocality(lambda b: b, "noop", bytes_per_element=16)
    a.execute_group_batch(f, rng.normal(size=(4, 100)))
    assert len(a.trace) == 1
    rec = a.trace[0]
    assert rec.name == "noop"
    assert rec.model == "GEM"
    assert rec.traffic_bytes == 16 * 400
    assert rec.duration == pytest.approx(16 * 400 / V100.mem_bandwidth)


def test_trace_accumulates_and_resets(rng):
    a = get_adapter("hip")
    f = FnLocality(lambda b: b, "noop")
    a.execute_group_batch(f, rng.normal(size=(2, 10)))
    a.execute_domain(FnDomain(lambda d: d, name="dem"), rng.normal(size=50))
    assert len(a.trace) == 2
    assert a.simulated_time() > 0
    a.reset_trace()
    assert a.trace == []


def test_specless_adapter_records_nothing(rng):
    a = get_adapter("serial")
    a.execute_group_batch(FnLocality(lambda b: b, "noop"), rng.normal(size=(2, 3)))
    assert a.trace == []


def test_empty_batch_passthrough():
    a = get_adapter("serial")
    batch = np.zeros((0, 4))
    out = a.execute_group_batch(FnLocality(lambda b: b, "noop"), batch)
    assert out.shape[0] == 0


def test_adapter_name():
    assert get_adapter("cuda").name == "cuda(V100)"
    # Under HPDR_SAN get_adapter auto-wraps CPU families in the
    # sanitizer, which brackets the name without hiding it.
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
    from repro.adapters.sycl_sim import SyclSimAdapter
    from repro.machine.specs import A100, MI250X

    assert SyclSimAdapter(spec=A100).spec is A100
    assert SyclSimAdapter(spec=MI250X).spec is MI250X
