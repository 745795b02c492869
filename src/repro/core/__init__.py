"""HPDR framework core — the paper's primary contribution.

Layers (bottom-up, Fig. 2):

* :mod:`repro.core.functor` — the kernel interface reduction algorithms
  implement.
* :mod:`repro.core.abstractions` — the four parallelization abstractions
  (Locality, Iterative, Map&Process, Global pipeline), each launched on
  the execution model Table I gives it (GEM or DEM).
* :mod:`repro.core.context` — the Context Memory Model (CMM): hash-map
  cached reduction contexts with persistent buffers.
* :mod:`repro.core.pipeline` — the Host-Device Execution Model pipeline
  (Fig. 9): 3 queues, 2 buffer sets, overlap-enabling dependencies.
* :mod:`repro.core.adaptive` — Algorithm 4's adaptive chunk sizing.
"""

from repro.core.config import Config, ErrorMode
from repro.core.functor import (
    DomainFunctor,
    Functor,
    IterativeFunctor,
    LocalityFunctor,
)
from repro.core.abstractions import (
    global_pipeline,
    iterative,
    locality,
    map_and_process,
)
from repro.core.context import ContextCache, ReductionContext

__all__ = [
    "Config",
    "ErrorMode",
    "Functor",
    "LocalityFunctor",
    "IterativeFunctor",
    "DomainFunctor",
    "locality",
    "iterative",
    "map_and_process",
    "global_pipeline",
    "ContextCache",
    "ReductionContext",
]
