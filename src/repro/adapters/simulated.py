"""Simulated device adapter: the paper's CUDA, HIP and SYCL backends.

The environment has no GPU, so "groups → SMs/CUs" (Table II) is one
vectorized NumPy call over the entire group batch — the closest analog
of every group executing concurrently, and :class:`DeviceAdapter`'s
default launch.  Multi-stage GEM staging (shared memory, block sync) and
DEM staging (grid sync, DRAM) degenerate to intermediate arrays between
stage calls, which keeps the execution order that correctness needs.

One class serves three families that differ only in the devices they
drive: ``cuda`` (default V100) and ``hip`` (default MI250X) their
vendor's, ``sycl`` (default V100) any — Section III-C's extension path
for Kokkos and SYCL, bit-identical to every other backend because the
abstraction layer defines the numerics.
"""

from __future__ import annotations

import functools

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


for _family in _DEFAULT_SPEC:
    register_adapter(_family, functools.partial(SimulatedAdapter, _family))
