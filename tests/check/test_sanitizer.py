"""Seeded-defect tests: the sanitizer must catch what it claims to.

Each defect class from DESIGN.md §3.2 gets a deliberately-broken
functor; the test passes only when the sanitizer raises the right rule.
A well-behaved functor and the real codecs must sail through unchanged.
"""

import numpy as np
import pytest

from repro import Config, ErrorMode, HuffmanX, MGARDX, ZFPX
from repro.adapters import get_adapter, list_adapters
from repro.adapters.serial import SerialAdapter
from repro.check import (
    HaloRaceError,
    SanitizingAdapter,
    ScratchAliasError,
    sanitize_enabled,
    wrap_if_enabled,
)
from repro.core.abstractions import locality
from repro.core.functor import LocalityFunctor


class _Doubler(LocalityFunctor):
    name = "good.doubler"

    def apply(self, blocks):
        return blocks * 2


class _HaloRacer(LocalityFunctor):
    """Writes one row beyond its own slice — the classic halo race."""

    name = "bad.halo"

    def apply(self, blocks):
        out = blocks * 2
        base = blocks.base
        if base is not None and blocks.shape[0] < base.shape[0]:
            base[-1] = -1  # smash a row some other group owns
        return out


class _Stateful(LocalityFunctor):
    """Output depends on previously-seen blocks (cross-block read)."""

    name = "bad.stateful"

    def __init__(self):
        self.acc = 0.0

    def apply(self, blocks):
        self.acc += float(blocks.sum())
        return blocks + self.acc


class _UndeclaredScratch(LocalityFunctor):
    """Returns views of one persistent buffer without reuses_output."""

    name = "bad.alias"

    def __init__(self, capacity=4096):
        self._scratch = np.zeros(capacity, dtype=np.float64)

    def apply(self, blocks):
        flat = blocks.reshape(-1)
        out = self._scratch[: flat.size]
        np.multiply(flat, 2, out=out)
        return out.reshape(blocks.shape)


class _DeclaredScratch(_UndeclaredScratch):
    """Same aliasing, but declared — adapters copy, so it is legal."""

    name = "good.alias"
    reuses_output = True


@pytest.fixture
def batch(rng):
    return rng.normal(size=(16, 8)).astype(np.float64)


class TestSeededDefects:
    def test_halo_race_caught(self, sanitizing_adapter, batch):
        with pytest.raises(HaloRaceError, match="SAN-RACE"):
            sanitizing_adapter.execute_group_batch(_HaloRacer(), batch)

    def test_partitioning_dependence_caught(self, sanitizing_adapter, batch):
        with pytest.raises(HaloRaceError, match="SAN-RACE"):
            sanitizing_adapter.execute_group_batch(_Stateful(), batch)

    def test_undeclared_scratch_alias_caught(self, sanitizing_adapter, batch):
        with pytest.raises(ScratchAliasError, match="SAN-ALIAS"):
            sanitizing_adapter.execute_group_batch(_UndeclaredScratch(), batch)

    def test_declared_scratch_alias_allowed(self, sanitizing_adapter, batch):
        out = sanitizing_adapter.execute_group_batch(_DeclaredScratch(), batch)
        assert np.array_equal(np.asarray(out), batch * 2)

    def test_well_behaved_functor_passes(self, sanitizing_adapter, batch):
        out = sanitizing_adapter.execute_group_batch(_Doubler(), batch)
        assert np.array_equal(np.asarray(out), batch * 2)
        assert sanitizing_adapter.checked_batches == 1

    def test_halo_race_caught_on_simulated_devices(self, batch):
        # Every family can be sanitized: the shadow pass is the same
        # partition routine whatever the inner schedule.
        for family in ("cuda", "hip", "sycl"):
            san = SanitizingAdapter(get_adapter(family))
            with pytest.raises(HaloRaceError, match="SAN-RACE"):
                san.execute_group_batch(_HaloRacer(), batch)

    def test_race_caught_through_abstraction(self, sanitizing_adapter, rng):
        # Not just the raw adapter API: the Locality abstraction routes
        # through the wrapper too.
        data = rng.normal(size=(64,)).astype(np.float64)
        with pytest.raises(HaloRaceError):
            locality(
                data, _HaloRacer(), block_shape=(8,),
                adapter=sanitizing_adapter,
            )


class TestTransparency:
    """Sanitized results must be bit-identical to unsanitized ones."""

    def test_codecs_roundtrip_sanitized(self, sanitizing_adapter, rng):
        data = rng.normal(size=(20, 20, 20)).astype(np.float32)
        plain = get_adapter("serial")
        for make in (
            lambda a: HuffmanX(adapter=a),
            lambda a: ZFPX(rate=10, adapter=a),
            lambda a: MGARDX(
                Config(error_bound=1e-3, error_mode=ErrorMode.REL), adapter=a
            ),
        ):
            san_blob = make(sanitizing_adapter).compress(data)
            assert make(plain).compress(data) == san_blob
            out = make(sanitizing_adapter).decompress(san_blob)
            assert out.dtype == data.dtype and out.shape == data.shape
        assert sanitizing_adapter.checked_batches > 0

    def test_delegation(self, sanitizing_adapter):
        inner = sanitizing_adapter.inner
        assert sanitizing_adapter.family == inner.family
        assert sanitizing_adapter.map_tasks(abs, [-1, 2]) == [1, 2]
        assert sanitizing_adapter.name == f"san({inner.name})"
        assert sanitizing_adapter.spec is inner.spec


class TestEnvOptIn:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("HPDR_SAN", raising=False)
        assert not sanitize_enabled()
        assert isinstance(get_adapter("serial"), SerialAdapter)

    def test_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("HPDR_SAN", "0")
        assert not sanitize_enabled()

    def test_env_auto_wraps_every_family(self, monkeypatch):
        monkeypatch.setenv("HPDR_SAN", "1")
        assert sanitize_enabled()
        for family in list_adapters():
            assert isinstance(get_adapter(family), SanitizingAdapter)

    def test_wrap_if_enabled_never_double_wraps(self, monkeypatch):
        monkeypatch.setenv("HPDR_SAN", "1")
        san = wrap_if_enabled(get_adapter("serial"))
        assert wrap_if_enabled(san) is san
