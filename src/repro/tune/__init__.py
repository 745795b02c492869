"""HPDR-Tune: trace-driven online auto-tuning with a persistent cache.

The paper's Algorithm 4 picks chunk sizes from *a-priori* roofline
models Φ(C)/Θ(t); this package closes the loop with *observed*
performance — in the spirit of DaCe's stateful-dataflow transformation
search and HPVM's retargetable scheduling.  A served reduction is
treated as a transformable configuration (serve micro-batch limits,
worker device adapter, thread count) searched by a deterministic,
seedable strategy (:class:`CoordinateDescent` + ε-greedy over a
discretized grid) against measurements from HPDR-Trace spans
(:class:`MeasurementSink`) and wall-clock timing (:func:`measure_call`).

Two invariants make a learning component safe to ship:

* **byte identity** — :class:`AutoTuner` digest-compares every
  candidate's output against the default configuration's and rejects
  any difference; only byte-identical winners persist.  ``--tune auto``
  can change *when* your bytes arrive, never *which* bytes.
* **fail-open persistence** — the :class:`TuningCache` is CRC-validated
  and atomically written; any corruption, truncation or schema drift
  loads as an empty cache (defaults everywhere), never an error.

Consumers: the ``repro tune`` campaign (:func:`tune_service`), and
:class:`~repro.serve.service.ReductionService` and every
:class:`~repro.cluster.ClusterService` shard at startup
(:func:`apply_service_tuning`, ``--tune auto|off|force`` on ``repro
serve/cluster/blast``).  Only the service space is searched: a codec
call has no byte-neutral knob the code cannot already choose from the
launch size (DESIGN.md §3.1, "What the codec tuner found");
``docs/tuning.md`` carries the one win that reproduces.
"""

from __future__ import annotations

from repro.tune.cache import (
    CACHE_FORMAT,
    CACHE_VERSION,
    TuneEntry,
    TuningCache,
    default_cache_path,
)
from repro.tune.knobs import (
    Knob,
    KnobSpace,
    SERVICE_CODEC,
    TuningKey,
    backend_id,
    service_knob_space,
)
from repro.tune.measure import (
    FakeClock,
    Measurement,
    MeasurementSink,
    attributed_measure,
    digest_bytes,
    measure_call,
    stage_share,
)
from repro.tune.search import (
    CoordinateDescent,
    TuningStrategy,
    config_key,
    run_search,
)
from repro.tune.tuner import (
    AutoTuner,
    TuneReport,
    apply_service_tuning,
    service_runner,
    tune_service,
)

__all__ = [
    "AutoTuner",
    "CACHE_FORMAT",
    "CACHE_VERSION",
    "CoordinateDescent",
    "FakeClock",
    "Knob",
    "KnobSpace",
    "Measurement",
    "MeasurementSink",
    "SERVICE_CODEC",
    "TuneEntry",
    "TuneReport",
    "TuningCache",
    "TuningKey",
    "TuningStrategy",
    "apply_service_tuning",
    "attributed_measure",
    "backend_id",
    "config_key",
    "default_cache_path",
    "digest_bytes",
    "measure_call",
    "run_search",
    "service_knob_space",
    "service_runner",
    "stage_share",
    "tune_service",
]
