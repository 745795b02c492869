"""Table II: execution-model → device mapping is recorded faithfully."""

from repro.adapters import get_adapter
from repro.machine.specs import ALL_SPECS, CPU_SPECS, GPU_SPECS


def test_every_gpu_spec_has_an_adapter_family():
    for spec in GPU_SPECS.values():
        assert spec.family in ("cuda", "hip")
        adapter = get_adapter(spec.family, spec=spec)
        assert adapter.spec is spec


def test_every_cpu_spec_drives_openmp():
    for spec in CPU_SPECS.values():
        assert spec.family == "openmp"
        adapter = get_adapter("openmp", spec=spec)
        assert adapter.num_threads == spec.units
        adapter.close()


def test_gem_group_width_matches_units():
    """Groups map to SMs (CUDA), CUs (HIP), cores (OpenMP) — Table II."""
    assert ALL_SPECS["V100"].units == 80    # SMs
    assert ALL_SPECS["MI250X"].units == 220  # CUs
    assert ALL_SPECS["EPYC7713"].units == 64  # cores


def test_extensibility_via_registration():
    """The paper's claim: new backends = new device adapters."""
    from repro.adapters.base import _REGISTRY, register_adapter
    from repro.adapters.serial import SerialAdapter

    class KokkosLikeAdapter(SerialAdapter):
        family = "kokkos-test"

    register_adapter("kokkos-test", KokkosLikeAdapter)
    try:
        a = get_adapter("kokkos-test")
        # Under HPDR_SAN the new family is sanitized like every other.
        assert isinstance(getattr(a, "inner", a), KokkosLikeAdapter)
    finally:
        _REGISTRY.pop("kokkos-test", None)
