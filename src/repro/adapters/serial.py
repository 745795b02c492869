"""Reference serial adapter.

This backend is the portability baseline — the "most compatible
processor" of Section II-B.  Groups execute sequentially; by default the
whole group batch is processed in one vectorized call (sequential at the
Python level, identical numerics).

``strict=True`` switches to a one-group-at-a-time oracle mode that
doubles as a functor *purity* check: a functor whose block outputs
depend on other blocks diverges from the batched GPU adapters and fails
the cross-adapter tests.
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

    def execute_group_batch(self, functor, batch: np.ndarray) -> np.ndarray:
        if not self.strict or batch.ndim < 1 or batch.shape[0] == 0:
            return super().execute_group_batch(functor, batch)
        with self.gem_span(functor, batch):
            copy = getattr(functor, "reuses_output", False)
            outs = []
            for i in range(batch.shape[0]):
                out = functor.apply(batch[i : i + 1])
                outs.append(out.copy() if copy else out)
            return np.concatenate(outs, axis=0)


register_adapter(SerialAdapter.family, SerialAdapter)
