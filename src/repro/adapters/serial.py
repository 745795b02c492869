"""Reference serial adapter.

This backend is the portability baseline — the "most compatible
processor" of Section II-B.  Groups execute sequentially; by default the
whole group batch is processed in one vectorized call (sequential at the
Python level, identical numerics).

``strict=True`` runs one part a group: a one-group-at-a-time oracle that
doubles as a functor *purity* check — a functor whose block outputs
depend on other blocks diverges from every other schedule and fails the
cross-adapter tests and :func:`repro.testing.check_adapter`.
"""

from __future__ import annotations

import numpy as np

from repro.adapters.base import DeviceAdapter, register_adapter
from repro.machine.specs import ProcessorSpec


class SerialAdapter(DeviceAdapter):
    family = "serial"

    def __init__(self, spec: ProcessorSpec | None = None, strict: bool = False) -> None:
        super().__init__(spec)
        self.strict = strict

    def gem_parts(self, batch: np.ndarray) -> int:
        return batch.shape[0] if self.strict else 1


register_adapter(SerialAdapter.family, SerialAdapter)
