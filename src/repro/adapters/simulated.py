"""Simulated device adapter: the paper's CUDA, HIP and SYCL backends.

The environment has no GPU, so "groups → SMs/CUs" (Table II) is
simulated by its schedule: a launch runs in ascending waves of at most
``spec.units`` groups, one vectorized NumPy call a wave — a function of
the spec and the batch shape alone.  GEM and DEM staging (shared memory,
block and grid sync) degenerate to intermediate arrays between stage
calls, which keeps the execution order that correctness needs.

One class serves three families that differ only in the devices they
drive: ``cuda`` (default V100) and ``hip`` (default MI250X) their
vendor's, ``sycl`` (default V100) any — Section III-C's extension path
for Kokkos and SYCL, bit-identical to every other backend because the
abstraction layer defines the numerics.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.adapters.base import DeviceAdapter, register_adapter
from repro.machine.specs import MI250X, ProcessorSpec, V100

#: family -> the device it simulates when no spec is given.
_DEFAULT_SPEC = {"cuda": V100, "hip": MI250X, "sycl": V100}


class SimulatedAdapter(DeviceAdapter):
    """A simulated ``cuda``/``hip``/``sycl`` device; built by
    :func:`~repro.adapters.get_adapter` with the family as its key."""

    def __init__(self, family: str, spec: ProcessorSpec | None = None) -> None:
        super().__init__(spec if spec is not None else _DEFAULT_SPEC[family])
        self.family = family
        # SYCL drives any vendor's device; CUDA and HIP only their own.
        if family != "sycl" and self.spec.family != family:
            raise ValueError(
                f"the {family!r} adapter drives {family!r} devices; "
                f"{self.spec.name} is a {self.spec.family!r} device"
            )

    def gem_parts(self, batch: np.ndarray) -> int:
        """One wave per ``spec.units`` groups."""
        return -(-batch.shape[0] // self.spec.units)


for _family in _DEFAULT_SPEC:
    register_adapter(_family, functools.partial(SimulatedAdapter, _family))
