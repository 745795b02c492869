"""Functor protocol: how reduction kernels plug into the abstractions.

The paper's abstractions all take an *algorithm-defined function f*
(Fig. 3).  HPDR-Python expresses f as a functor object exposing a
batched NumPy apply so device adapters can choose their parallelization
strategy:

* :class:`LocalityFunctor` receives a batch of blocks
  ``(nblocks, *block_shape)`` — one group per block (GEM, Table I).
* :class:`IterativeFunctor` receives a batch of vectors
  ``(nvec, length)`` — B vectors per group (GEM).
* :class:`DomainFunctor` receives the whole domain (DEM) and may declare
  multiple stages separated by global synchronization.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Sequence

import numpy as np


class Functor(abc.ABC):
    """Base kernel interface.

    ``name`` labels the ``gem.<name>``/``dem.<name>`` launch spans.
    """

    #: span label; subclasses usually override.
    name: str = "functor"
    #: True when :meth:`apply` may return a view over reused scratch
    #: (e.g. CMM-backed per-thread buffers): the result is only valid
    #: until the same thread's next ``apply``, so adapters that collect
    #: several results before combining them must copy each one first.
    reuses_output: bool = False


class LocalityFunctor(Functor):
    """Block-wise kernel for the Locality abstraction."""

    @abc.abstractmethod
    def apply(self, blocks: np.ndarray) -> np.ndarray:
        """Transform a batch of blocks ``(nblocks, *block_shape)``.

        Must return an array whose leading dimension is ``nblocks``.
        Implementations must be pure with respect to block order: block
        *i*'s output may depend only on block *i*'s input (including any
        halo the abstraction attached).
        """


class IterativeFunctor(Functor):
    """Per-vector sequential kernel for the Iterative abstraction.

    Each row of the batch is an independent 1-D problem processed
    sequentially along its length (e.g. the Thomas algorithm); different
    rows are independent and parallelize across groups.
    """

    @abc.abstractmethod
    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Transform a batch of vectors ``(nvec, length)`` → same shape."""


class DomainFunctor(Functor):
    """Whole-domain kernel for Map&Process / Global pipeline (DEM).

    Stages execute in order with a global synchronization between them;
    each stage receives the previous stage's output.
    """

    def stages(self) -> Sequence[Callable[[Any], Any]]:
        """Ordered stage callables; default is the single :meth:`apply`."""
        return (self.apply,)

    @abc.abstractmethod
    def apply(self, data: Any) -> Any:
        """Single-stage entry point."""


class FnLocality(LocalityFunctor):
    """Adapter turning a plain callable into a :class:`LocalityFunctor`."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], name: str = "fn") -> None:
        self._fn = fn
        self.name = name

    def apply(self, blocks: np.ndarray) -> np.ndarray:
        return self._fn(blocks)


class FnIterative(IterativeFunctor):
    """Adapter turning a plain callable into an :class:`IterativeFunctor`."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], name: str = "fn") -> None:
        self._fn = fn
        self.name = name

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        return self._fn(vectors)


class FnDomain(DomainFunctor):
    """Adapter turning callables into a (possibly multi-stage) DEM functor."""

    def __init__(self, *fns: Callable[[Any], Any], name: str = "fn") -> None:
        if not fns:
            raise ValueError("FnDomain needs at least one stage callable")
        self._fns = fns
        self.name = name

    def stages(self) -> Sequence[Callable[[Any], Any]]:
        return self._fns

    def apply(self, data: Any) -> Any:
        for fn in self._fns:
            data = fn(data)
        return data
