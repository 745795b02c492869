"""HPDR-Statica driver: parse once, run every enabled rule pack.

:func:`analyze_paths` is the one entry point the CLI and tests use: it
collects ``.py`` files, parses each into a
:class:`~repro.check.static.callgraph.ModuleUnit`, runs the syntactic
core pack (:mod:`repro.check.lint`) plus the enabled dataflow packs,
and returns findings sorted by location together with suppression
warnings (unknown rule ids in ``disable=`` comments).

Pack registry::

    core        HPL001–HPL004  (syntactic, always on)
    async       HPL101–HPL104  (repro.serve async-safety)
    lifetime    HPL201–HPL202  (CMM buffer lifetime)
    interproc   HPL301–HPL302  (hot-path rules through the call graph)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.check.lint import (
    RULES as CORE_RULES,
    Finding,
    lint_source,
    unknown_suppression_ids,
)
from repro.check.static import rules_async, rules_interproc, rules_lifetime
from repro.check.static.callgraph import ModuleUnit, ProjectIndex

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


def _run_packs(
    units: list[ModuleUnit],
    packs: Iterable[str],
    result: AnalysisResult,
) -> None:
    enabled = set(packs)
    unknown = enabled - set(RULE_PACKS)
    if unknown:
        raise ValueError(
            f"unknown pack(s) {sorted(unknown)}; choose from "
            f"{sorted(RULE_PACKS)}"
        )
    if "core" in enabled:
        for unit in units:
            result.findings.extend(
                lint_source(unit.path, unit.source)
            )
    if "async" in enabled:
        for unit in units:
            result.findings.extend(rules_async.check_module(unit))
    if "lifetime" in enabled:
        for unit in units:
            result.findings.extend(rules_lifetime.check_module(unit))
    if enabled & {"async", "interproc"}:
        index = ProjectIndex()
        for unit in units:
            index.add(unit)
        if "async" in enabled:
            result.findings.extend(rules_async.check_project(index))
        if "interproc" in enabled:
            result.findings.extend(rules_interproc.check_project(index))


def analyze_paths(
    paths: Iterable[Path | str],
    packs: Iterable[str] = ALL_PACKS,
) -> AnalysisResult:
    """Analyze files/directories (recursively) with the given packs."""
    result = AnalysisResult()
    units: list[ModuleUnit] = []
    for file in _iter_py_files(paths):
        source = file.read_text(encoding="utf-8")
        unit = ModuleUnit(file, source)
        units.append(unit)
        for lineno, rule in unknown_suppression_ids(source, ALL_RULES):
            result.warnings.append(
                f"{file}:{lineno}: unknown rule id '{rule}' in suppression "
                f"comment (it suppresses nothing)"
            )
    _run_packs(units, packs, result)
    return result.sorted()


def analyze_source(
    path: Path | str,
    source: str,
    packs: Iterable[str] = ALL_PACKS,
) -> AnalysisResult:
    """Analyze one in-memory module (test and tooling convenience)."""
    result = AnalysisResult()
    unit = ModuleUnit(Path(path), source)
    for lineno, rule in unknown_suppression_ids(source, ALL_RULES):
        result.warnings.append(
            f"{path}:{lineno}: unknown rule id '{rule}' in suppression "
            f"comment (it suppresses nothing)"
        )
    _run_packs([unit], packs, result)
    return result.sorted()
