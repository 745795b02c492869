"""HPDR-Statica driver: parse once, run every enabled rule pack.

:func:`analyze_paths` is the one entry point the CLI and tests use: it
collects ``.py`` files, parses each once into a
:class:`~repro.check.static.callgraph.ModuleUnit`, runs every enabled
pack on those units, and returns findings sorted by location together
with suppression warnings (unknown rule ids in ``disable=`` comments).

Pack registry::

    core        HPL001–HPL004  (syntactic hot-path and functor rules)
    async       HPL101–HPL104  (repro.serve async-safety)
    lifetime    HPL201–HPL202  (CMM buffer lifetime)
    interproc   HPL301–HPL302  (hot-path rules through the call graph)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.check.lint import RULES as CORE_RULES, Finding
from repro.check.static import (
    rules_async,
    rules_core,
    rules_interproc,
    rules_lifetime,
)
from repro.check.static.callgraph import ModuleUnit, ProjectIndex
from repro.check.static.report import unknown_suppression_ids

__all__ = [
    "ALL_PACKS",
    "ALL_RULES",
    "AnalysisResult",
    "RULE_PACKS",
    "analyze_paths",
    "analyze_source",
]

#: pack name → rule table it contributes.
RULE_PACKS: dict[str, dict[str, str]] = {
    "core": CORE_RULES,
    "async": rules_async.RULES,
    "lifetime": rules_lifetime.RULES,
    "interproc": rules_interproc.RULES,
}
ALL_PACKS: tuple[str, ...] = tuple(RULE_PACKS)
#: every known rule id → description (suppression validation keys on it).
ALL_RULES: dict[str, str] = {
    rid: desc for pack in RULE_PACKS.values() for rid, desc in pack.items()
}


@dataclass
class AnalysisResult:
    """Findings plus non-fatal warnings from one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def sorted(self) -> "AnalysisResult":
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return self


def _iter_py_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    for p in paths:
        p = Path(p)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        else:
            yield p


#: pack → its per-module check; ``async`` also has a project-wide part.
_MODULE_CHECKS = {
    "core": rules_core.check_module,
    "async": rules_async.check_module,
    "lifetime": rules_lifetime.check_module,
}


def _analyze(units: list[ModuleUnit], packs: Iterable[str]) -> AnalysisResult:
    enabled = set(packs)
    unknown = enabled - set(RULE_PACKS)
    if unknown:
        raise ValueError(
            f"unknown pack(s) {sorted(unknown)}; choose from "
            f"{sorted(RULE_PACKS)}"
        )
    result = AnalysisResult()
    for unit in units:
        for lineno, rule in unknown_suppression_ids(unit.suppressions,
                                                    ALL_RULES):
            result.warnings.append(
                f"{unit.path}:{lineno}: unknown rule id '{rule}' in "
                f"suppression comment (it suppresses nothing)"
            )
    for pack, check in _MODULE_CHECKS.items():
        if pack in enabled:
            for unit in units:
                result.findings.extend(check(unit))
    if enabled & {"async", "interproc"}:
        index = ProjectIndex()
        for unit in units:
            index.add(unit)
        if "async" in enabled:
            result.findings.extend(rules_async.check_project(index))
        if "interproc" in enabled:
            result.findings.extend(rules_interproc.check_project(index))
    return result.sorted()


def analyze_paths(
    paths: Iterable[Path | str],
    packs: Iterable[str] = ALL_PACKS,
) -> AnalysisResult:
    """Analyze files/directories (recursively) with the given packs."""
    return _analyze(
        [ModuleUnit(file, file.read_text(encoding="utf-8"))
         for file in _iter_py_files(paths)],
        packs,
    )


def analyze_source(
    path: Path | str,
    source: str,
    packs: Iterable[str] = ALL_PACKS,
) -> AnalysisResult:
    """Analyze one in-memory module (test and tooling convenience)."""
    return _analyze([ModuleUnit(Path(path), source)], packs)
