"""HPDR-Statica: interprocedural static analysis for HPDR contracts.

The package grows the syntactic linter (:mod:`repro.check.lint`) into a
real analysis core — per-function CFGs (:mod:`~repro.check.static.cfg`),
a forward-dataflow engine (:mod:`~repro.check.static.dataflow`), and a
project call graph (:mod:`~repro.check.static.callgraph`) — with three
rule packs on top:

* **async** (HPL101–HPL104) — event-loop safety of :mod:`repro.serve`;
* **lifetime** (HPL201–HPL202) — CMM buffer pin/release discipline;
* **interproc** (HPL301–HPL302) — HPL001/HPL003 extended through the
  call graph from every ``@hot_path`` root.

Entry points: :func:`analyze_paths` / :func:`analyze_source`; SARIF
output via :mod:`~repro.check.static.sarif`; grandfathering via
:mod:`~repro.check.static.baseline`.  Driven by
``scripts/hpdrlint.py`` and the ``statica`` CI job.
"""

from repro.check.static.baseline import (
    baseline_key,
    load_baseline,
    partition_findings,
    write_baseline,
)
from repro.check.static.callgraph import FuncInfo, ModuleUnit, ProjectIndex
from repro.check.static.cfg import CFG, Block, build_cfg
from repro.check.static.dataflow import ForwardAnalysis, ReachingDefs
from repro.check.static.engine import (
    ALL_PACKS,
    ALL_RULES,
    RULE_PACKS,
    AnalysisResult,
    analyze_paths,
    analyze_source,
)
from repro.check.static.sarif import to_sarif, write_sarif

__all__ = [
    "ALL_PACKS",
    "ALL_RULES",
    "AnalysisResult",
    "Block",
    "CFG",
    "ForwardAnalysis",
    "FuncInfo",
    "ModuleUnit",
    "ProjectIndex",
    "RULE_PACKS",
    "ReachingDefs",
    "analyze_paths",
    "analyze_source",
    "baseline_key",
    "build_cfg",
    "load_baseline",
    "partition_findings",
    "to_sarif",
    "write_baseline",
    "write_sarif",
]
