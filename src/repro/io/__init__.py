"""ADIOS2-like I/O substrate.

* :mod:`repro.io.bp` — a BP5-flavoured self-describing container
  format (real bytes, real files): variables with shape/dtype metadata,
  an embedded reduction-operator tag, and CRC-checked payloads.
* :mod:`repro.io.engine` — writer/reader engines with the aggregation
  strategies the paper tunes per system (one aggregator per node on
  Summit, one per GPU on Frontier).
* :mod:`repro.io.filesystem` — GPFS/Lustre bandwidth models used by the
  at-scale simulations.
* :mod:`repro.io.parallel` — the multi-node weak/strong-scaling I/O
  simulations behind Figs. 15, 17 and 18.
"""

from repro.io.bp import BPFile, BPVariable
from repro.io.engine import BPWriter, BPReader
from repro.io.steps import StepReader, StepWriter
from repro.io.filesystem import io_time, effective_bandwidth
from repro.io.parallel import (
    IOResult,
    ReductionAtScale,
    aggregate_reduction,
    strong_scaling_io,
    weak_scaling_io,
)

__all__ = [
    "BPFile",
    "BPVariable",
    "BPWriter",
    "BPReader",
    "StepWriter",
    "StepReader",
    "io_time",
    "effective_bandwidth",
    "IOResult",
    "ReductionAtScale",
    "aggregate_reduction",
    "strong_scaling_io",
    "weak_scaling_io",
]
