"""Device adapter base class and registry."""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.functor import DomainFunctor, Functor
from repro.machine.specs import ProcessorSpec
from repro.trace.tracer import NULL_SPAN, Span, TRACER as _TRACER


@dataclass
class KernelRecord:
    """One simulated kernel execution in an adapter's trace."""

    name: str
    model: str          # "GEM" or "DEM"
    n_elements: int
    traffic_bytes: float
    duration: float     # seconds on the simulated device


class DeviceAdapter(abc.ABC):
    """Executes GEM and DEM on one backend.

    Subclasses set :attr:`family` ("serial", "openmp", "cuda", "hip")
    and implement the two execution entry points.  Adapters optionally
    carry a :class:`~repro.machine.specs.ProcessorSpec`; simulated
    adapters use it to derive kernel durations from the memory-bound
    roofline (``traffic / mem_bandwidth``), recorded in :attr:`trace`.
    """

    family: str = "abstract"

    def __init__(self, spec: ProcessorSpec | None = None) -> None:
        self.spec = spec
        self.trace: list[KernelRecord] = []

    # -- execution models ------------------------------------------------
    @abc.abstractmethod
    def execute_group_batch(self, functor, batch: np.ndarray) -> np.ndarray:
        """GEM: run a group-parallel functor over ``(ngroups, ...)``."""

    def execute_domain(self, functor: DomainFunctor, data: Any) -> Any:
        """DEM: run a whole-domain functor (with global sync between stages).

        The default implementation runs stages sequentially, which is
        correct for every backend (Table II: execution order maintained
        by sequential execution / grid sync); subclasses add tracing.
        """
        with self.dem_span(functor):
            for stage in functor.stages():
                data = stage(data)
        self._record(functor, "DEM", _n_elements(data))
        return data

    def synchronize(self) -> None:
        """Block until all backend work completes (no-op off-device)."""

    def close(self) -> None:
        """Release execution resources (thread pools); idempotent.

        A no-op for backends that own none, so callers close whatever
        adapter they were handed without asking what it is.
        """

    # -- task-level parallelism -------------------------------------------
    def map_tasks(self, fn, items) -> list:
        """Run ``fn`` over ``items``, preserving order.

        Unlike :meth:`execute_group_batch`, tasks are opaque Python
        callables (whole codec pipelines), not array functors.  The base
        implementation is sequential; thread-pool adapters overlap tasks
        whose NumPy kernels release the GIL.
        """
        return [fn(item) for item in items]

    # -- runtime tracing (HPDR-Trace) --------------------------------------
    def gem_span(self, functor, batch):
        """Wall-clock span for one GEM batch (no-op while tracing is off).

        The disabled path is one flag check returning the shared null
        span, so steady-state throughput is unaffected; enabled, the
        span lands in ``repro.trace`` tagged with the adapter family,
        group count and batch bytes — the real-execution counterpart of
        the simulated :class:`KernelRecord`.
        """
        if not _TRACER.enabled:
            return NULL_SPAN
        groups = int(batch.shape[0]) if getattr(batch, "ndim", 0) >= 1 else 0
        nbytes = int(getattr(batch, "nbytes", 0))
        return Span(
            _TRACER,
            f"gem.{functor.name}",
            f"adapter.{self.family}",
            {"groups": groups, "nbytes": nbytes},
        )

    def dem_span(self, functor):
        """Wall-clock span for one DEM execution (no-op while disabled)."""
        if not _TRACER.enabled:
            return NULL_SPAN
        return Span(_TRACER, f"dem.{functor.name}", f"adapter.{self.family}", {})

    # -- simulated tracing -------------------------------------------------
    def _record(self, functor: Functor, model: str, n_elements: int) -> None:
        if self.spec is None:
            return
        traffic = functor.cost_bytes(n_elements)
        duration = traffic / self.spec.mem_bandwidth
        self.trace.append(
            KernelRecord(functor.name, model, n_elements, traffic, duration)
        )

    def simulated_time(self) -> float:
        """Total simulated kernel seconds recorded so far."""
        return sum(r.duration for r in self.trace)

    def reset_trace(self) -> None:
        self.trace.clear()

    @property
    def name(self) -> str:
        if self.spec is not None:
            return f"{self.family}({self.spec.name})"
        return self.family

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"


class _DelegatingAdapter(DeviceAdapter):
    """An adapter in front of another adapter.

    The whole interface forwards to ``inner`` — both execution models,
    task mapping, synchronisation, ``close``, and (through ``spec`` and
    ``trace``) the simulated timing record — so a wrapper overrides only
    the calls it intercepts.  The one delegation base of the sanitizing,
    faulty and resilient adapters.
    """

    def __init__(self, inner: DeviceAdapter) -> None:
        self.inner = inner

    spec = property(lambda self: self.inner.spec)
    trace = property(lambda self: self.inner.trace)

    def execute_group_batch(self, functor, batch: np.ndarray) -> np.ndarray:
        return self.inner.execute_group_batch(functor, batch)

    def execute_domain(self, functor: DomainFunctor, data: Any) -> Any:
        return self.inner.execute_domain(functor, data)

    def synchronize(self) -> None:
        self.inner.synchronize()

    def close(self) -> None:
        self.inner.close()

    def map_tasks(self, fn, items) -> list:
        return self.inner.map_tasks(fn, items)

    @property
    def name(self) -> str:
        return f"{self.family}({self.inner.name})"


def _n_elements(data: Any) -> int:
    if isinstance(data, np.ndarray):
        return int(data.size)
    if isinstance(data, (tuple, list)):
        return sum(_n_elements(d) for d in data)
    if isinstance(data, dict):
        return sum(_n_elements(d) for d in data.values())
    return 1


_REGISTRY: dict[str, type] = {}


def register_adapter(family: str, cls: type) -> None:
    _REGISTRY[family] = cls


def get_adapter(family: str, spec: ProcessorSpec | None = None, **kwargs) -> DeviceAdapter:
    """Instantiate an adapter by family name.

    ``get_adapter("cuda")`` returns a fresh :class:`CudaSimAdapter`, etc.
    Extending HPDR to a new backend = implementing a subclass and
    registering it — the paper's extensibility claim for Kokkos/SYCL.
    """
    key = family.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown adapter family {family!r}; available: {sorted(_REGISTRY)}")
    adapter = _REGISTRY[key](spec=spec, **kwargs)
    if os.environ.get("HPDR_SAN", "") not in ("", "0"):
        # tsan mode: every serial/openmp adapter handed out is shadow-
        # checked.  The env test guards the import so unsanitized runs
        # never load repro.check.
        from repro.check.sanitizer import wrap_if_enabled

        adapter = wrap_if_enabled(adapter)
    return adapter


def list_adapters() -> list[str]:
    return sorted(_REGISTRY)
