"""HPDR-Statica: interprocedural static analysis for HPDR contracts.

One front end — each file parsed once into a
:class:`~repro.check.static.callgraph.ModuleUnit` (import table, parent
map, suppressions, hot functions) — feeds per-function CFGs
(:mod:`~repro.check.static.cfg`), a forward-dataflow engine
(:mod:`~repro.check.static.dataflow`), a project call graph
(:mod:`~repro.check.static.callgraph`), and four rule packs:

* **core** (HPL001–HPL004) — allocations, implicit float64 and
  ``out=``-less ufuncs in ``@hot_path`` code, the functor calling
  convention (rule tables in :mod:`repro.check.lint`);
* **async** (HPL101–HPL104) — event-loop safety of :mod:`repro.serve`;
* **lifetime** (HPL201–HPL202) — CMM buffer pin/release discipline;
* **interproc** (HPL301–HPL302) — HPL001/HPL003 extended through the
  call graph from every ``@hot_path`` root.

Entry points: :func:`analyze_paths` / :func:`analyze_source`; SARIF
output via :mod:`~repro.check.static.sarif`.  Driven by
``scripts/hpdrlint.py`` and the ``statica`` CI job.
"""

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
    "build_cfg",
    "to_sarif",
    "write_sarif",
]
