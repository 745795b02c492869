"""Suppression comments and finding emission, shared by every rule pack.

:class:`Emitter` applies the suppression contract documented in
:mod:`repro.check.lint`: a finding is dropped when
``# hpdrlint: disable=<RULE>`` appears on any line the offending node
spans, on the first line of its enclosing statement, or on the comment
line directly above either.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Iterable

from repro.check.lint import Finding

if TYPE_CHECKING:
    from repro.check.static.callgraph import ModuleUnit

__all__ = [
    "Emitter",
    "parse_suppressions",
    "suppressed",
    "unknown_suppression_ids",
]

_SUPPRESS_RE = re.compile(r"#\s*hpdrlint:\s*disable=([A-Za-z0-9_,\s-]+)")


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Line number (1-based) → set of suppressed rule ids (or {'ALL'})."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            out[lineno] = {
                tok.strip().upper()
                for tok in m.group(1).replace(" ", ",").split(",")
                if tok.strip()
            }
    return out


def unknown_suppression_ids(
    suppressions: dict[int, set[str]], known: Iterable[str]
) -> list[tuple[int, str]]:
    """``(line, rule_id)`` for suppression comments naming unknown rules.

    A typo in a suppression (``disable=HPL0001``) silently suppresses
    nothing while looking like it does — the CLI surfaces these as
    warnings instead of letting them pass unnoticed.
    """
    known_upper = {k.upper() for k in known} | {"ALL"}
    out: list[tuple[int, str]] = []
    for lineno, rules in suppressions.items():
        for rule in sorted(rules):
            if rule not in known_upper:
                out.append((lineno, rule))
    return out


def suppressed(unit: "ModuleUnit", node: ast.AST, *rules: str) -> bool:
    """True when any of ``rules`` is disabled for ``node`` in ``unit``."""
    lineno = getattr(node, "lineno", 1)
    end = getattr(node, "end_lineno", lineno) or lineno
    lines = set(range(lineno - 1, end + 1))
    stmt = unit.enclosing_statement(node)
    if stmt is not None:
        lines.update((stmt.lineno, stmt.lineno - 1))
    for line in lines:
        disabled = unit.suppressions.get(line)
        if disabled and ("ALL" in disabled or not disabled.isdisjoint(rules)):
            return True
    return False


class Emitter:
    """Collects suppression-filtered findings for one module."""

    def __init__(self, unit: "ModuleUnit") -> None:
        self.unit = unit
        self.findings: list[Finding] = []

    def emit(self, node: ast.AST, rule: str, message: str, hint: str) -> None:
        if suppressed(self.unit, node, rule):
            return
        self.findings.append(
            Finding(
                path=str(self.unit.path),
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
                hint=hint,
            )
        )
