"""Device adapter base class, the GEM partition routine and the registry."""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core.functor import DomainFunctor
from repro.machine.specs import ProcessorSpec
from repro.trace.tracer import NULL_SPAN, Span, TRACER as _TRACER
from repro.util import sanitize_enabled


def run_parts(functor, batch: np.ndarray, nparts: int, map_parts=map) -> np.ndarray:
    """The one partition routine of a GEM launch: every backend, and the
    sanitizer's shadow pass, is a schedule of it — a part count and a map.

    ``batch`` is split into ``min(nparts, groups)`` contiguous runs of
    groups, ``map_parts`` applies ``functor`` to each (a result is copied
    when the functor ``reuses_output``: the next apply may overwrite it)
    and the results are concatenated in group order.  One part is
    ``functor.apply(batch)`` itself.
    """
    ngroups = batch.shape[0]
    nparts = min(nparts, ngroups)
    if nparts <= 1:
        return functor.apply(batch)
    bounds = np.linspace(0, ngroups, nparts + 1, dtype=np.intp)
    parts = [batch[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    apply = functor.apply
    if getattr(functor, "reuses_output", False):
        apply = lambda part: functor.apply(part).copy()
    return np.concatenate(list(map_parts(apply, parts)), axis=0)


class DeviceAdapter:
    """Executes GEM and DEM on one backend.

    Subclasses set :attr:`family` ("serial", "openmp", "cuda", …) and
    state their GEM schedule as a part count (:meth:`gem_parts`) and a
    map (:meth:`map_tasks`); the launch itself is :func:`run_parts`.
    Adapters optionally carry a
    :class:`~repro.machine.specs.ProcessorSpec` — the simulated device,
    or the core count of a CPU.  What ran is read from the
    ``gem.<functor>``/``dem.<functor>`` spans of :mod:`repro.trace`.
    """

    family: str = "abstract"

    def __init__(self, spec: ProcessorSpec | None = None) -> None:
        self.spec = spec

    # -- execution models ------------------------------------------------
    def gem_parts(self, batch: np.ndarray) -> int:
        """Parts of this backend's GEM schedule: one, the whole batch."""
        return 1

    def execute_group_batch(self, functor, batch: np.ndarray) -> np.ndarray:
        """GEM: run a group-parallel functor over ``(ngroups, ...)``.

        The backend's schedule is :meth:`gem_parts` parts, mapped with
        :meth:`map_tasks`; :func:`run_parts` does the rest.  An empty
        batch is returned as it is.
        """
        if batch.ndim < 1 or batch.shape[0] == 0:
            return batch
        with self.gem_span(functor, batch):
            return run_parts(functor, batch, self.gem_parts(batch), self.map_tasks)

    def execute_domain(self, functor: DomainFunctor, data: Any) -> Any:
        """DEM: run a whole-domain functor (with global sync between stages).

        The default implementation runs stages sequentially, which is
        correct for every backend (Table II: execution order maintained
        by sequential execution / grid sync).
        """
        with self.dem_span(functor):
            for stage in functor.stages():
                data = stage(data)
        return data

    def close(self) -> None:
        """Release execution resources (thread pools); idempotent.

        A no-op for backends that own none, so callers close whatever
        adapter they were handed without asking what it is.
        """

    # -- task-level parallelism -------------------------------------------
    def map_tasks(self, fn, items) -> list:
        """Run ``fn`` over ``items``, preserving order.

        Tasks are opaque Python callables: whole codec pipelines, or the
        parts of a GEM launch.  The base implementation is sequential;
        thread-pool adapters overlap tasks whose NumPy kernels release
        the GIL.
        """
        return [fn(item) for item in items]

    # -- runtime tracing (HPDR-Trace) --------------------------------------
    def gem_span(self, functor, batch):
        """Wall-clock span for one GEM batch (no-op while tracing is off).

        The disabled path is one flag check returning the shared null
        span, so steady-state throughput is unaffected; enabled, the
        span lands in ``repro.trace`` as ``gem.<functor>`` tagged with
        the adapter family, group count and batch bytes.
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
    task mapping, ``close`` and ``spec`` — so a wrapper overrides only
    the calls it intercepts.  The one delegation base of the sanitizing,
    faulty and resilient adapters.
    """

    def __init__(self, inner: DeviceAdapter) -> None:
        self.inner = inner

    spec = property(lambda self: self.inner.spec)

    def execute_group_batch(self, functor, batch: np.ndarray) -> np.ndarray:
        return self.inner.execute_group_batch(functor, batch)

    def execute_domain(self, functor: DomainFunctor, data: Any) -> Any:
        return self.inner.execute_domain(functor, data)

    def close(self) -> None:
        self.inner.close()

    def map_tasks(self, fn, items) -> list:
        return self.inner.map_tasks(fn, items)

    @property
    def name(self) -> str:
        return f"{self.family}({self.inner.name})"


_REGISTRY: dict[str, Callable[..., DeviceAdapter]] = {}


def register_adapter(family: str, make: Callable[..., DeviceAdapter]) -> None:
    """Register the constructor ``get_adapter(family, ...)`` calls."""
    _REGISTRY[family] = make


def get_adapter(family: str, spec: ProcessorSpec | None = None, **kwargs) -> DeviceAdapter:
    """Instantiate an adapter by family name.

    ``get_adapter("cuda")`` returns a fresh simulated V100, etc.
    Extending HPDR to a new backend = implementing a subclass and
    registering it — the paper's extensibility claim for Kokkos/SYCL.
    """
    key = family.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown adapter family {family!r}; available: {sorted(_REGISTRY)}")
    adapter = _REGISTRY[key](spec=spec, **kwargs)
    if sanitize_enabled():
        # tsan mode: every adapter handed out is shadow-checked.  The
        # switch guards the import so unsanitized runs never load
        # repro.check.
        from repro.check.sanitizer import wrap_if_enabled

        adapter = wrap_if_enabled(adapter)
    return adapter


def list_adapters() -> list[str]:
    return sorted(_REGISTRY)
