"""HPL3xx — interprocedural hot-path rules.

HPL001/HPL003 are syntactic: they flag allocations and out-less ufuncs
*textually inside* a ``@hot_path`` body.  A hot function calling a
same-module (or explicitly imported) helper that allocates passes them
silently — the allocation is syntactically elsewhere.  This pack walks
the call graph from every ``@hot_path`` root:

=======  ==============================================================
HPL301   the hot function transitively reaches a helper containing an
         HPL001-class allocation (``np.zeros``/``.copy()``/…)
HPL302   the hot function transitively reaches a helper calling a
         ufunc without ``out=``
=======  ==============================================================

Findings anchor at the **call site inside the hot function** (that is
the edge the author controls) and name the offending helper and line.
Suppressions are honored at both ends: a ``disable=HPL001`` (or
``HPL301``) on the helper's allocation line, or a ``disable=HPL301`` at
the hot call site, silences the finding — existing documented cold-path
fallbacks stay documented exactly once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.check.lint import Finding, _METHOD_ALLOC, _NP_ALLOC, _NP_UFUNC_OUT
from repro.check.static.callgraph import FuncInfo, ProjectIndex
from repro.check.static.report import Emitter, suppressed
from repro.check.static.rules_core import casts_without_copy, numpy_name

__all__ = ["check_project", "RULES"]

RULES: dict[str, str] = {
    "HPL301": "@hot_path transitively calls an allocating helper",
    "HPL302": "@hot_path transitively calls a ufunc helper without out=",
}

#: BFS depth bound — call chains deeper than this are vanishingly rare
#: and cutting them keeps the walk linear in practice.
MAX_DEPTH = 8


@dataclass(frozen=True)
class _Offence:
    rule: str
    lineno: int
    what: str


def _offences_in(info: FuncInfo) -> list[_Offence]:
    """HPL001/HPL003-class sites inside one helper, suppression-aware."""
    unit = info.module
    out: list[_Offence] = []
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        np_name = numpy_name(unit, node)
        has_out = any(kw.arg == "out" for kw in node.keywords)
        if np_name in _NP_ALLOC:
            if not suppressed(unit, node, "HPL001", "HPL301"):
                out.append(_Offence("HPL301", node.lineno,
                                    f"np.{np_name}()"))
        elif np_name in _NP_UFUNC_OUT and not has_out:
            if not suppressed(unit, node, "HPL003", "HPL302"):
                out.append(_Offence("HPL302", node.lineno,
                                    f"np.{np_name}() without out="))
        elif isinstance(node.func, ast.Attribute) \
                and node.func.attr in _METHOD_ALLOC:
            if node.func.attr == "astype" and casts_without_copy(node):
                continue
            if not suppressed(unit, node, "HPL001", "HPL301"):
                out.append(_Offence("HPL301", node.lineno,
                                    f".{node.func.attr}()"))
    return out


def _calls_in(info: FuncInfo) -> list[ast.Call]:
    """Calls in a def, nested defs included, except those inside a
    nested ``@hot_path`` def: that one is a root of its own."""
    hot = info.module.hot
    own = [n for n in ast.walk(info.node)
           if n is not info.node and n in hot]
    skip = {n for d in own for n in ast.walk(d)}
    return [n for n in ast.walk(info.node)
            if isinstance(n, ast.Call) and n not in skip]


def check_project(index: ProjectIndex) -> list[Finding]:
    """Walk the call graph from every hot root; flag offending edges."""
    findings: list[Finding] = []
    offence_cache: dict[tuple[str, str], list[_Offence]] = {}

    def offences(info: FuncInfo) -> list[_Offence]:
        key = (str(info.module.path), info.qualname)
        if key not in offence_cache:
            offence_cache[key] = _offences_in(info)
        return offence_cache[key]

    roots = [unit.info_for(node) for unit in index.modules
             for node in unit.defs if node in unit.hot]
    for hot in sorted(roots, key=lambda i: (str(i.module.path), i.qualname)):
        emitter = Emitter(hot.module)
        reported: set[tuple[int, str]] = set()
        # (callee, call site in the hot body, chain of names, depth)
        stack: list[tuple[FuncInfo, ast.Call, tuple[str, ...], int]] = []
        visited: set[tuple[str, str]] = set()
        for call in _calls_in(hot):
            callee = index.resolve_call(call, hot)
            if callee is None or callee.is_hot or callee.node is hot.node:
                continue
            stack.append((callee, call, (callee.qualname,), 1))
        while stack:
            callee, site, chain, depth = stack.pop()
            key = (str(callee.module.path), callee.qualname)
            if key in visited:
                continue
            visited.add(key)
            for off in offences(callee):
                dedup = (site.lineno, off.rule)
                if dedup in reported:
                    continue
                reported.add(dedup)
                where = f"{callee.module.path.name}:{off.lineno}"
                via = " -> ".join(chain)
                message = (
                    f"{hot.qualname}() is @hot_path but reaches "
                    f"{off.what} in {via} ({where})"
                )
                hint = (
                    "pass the ReductionContext down and draw from "
                    "ctx.buffer()/ctx.scratch() (or add out=), or hoist "
                    "the call off the hot path"
                    if off.rule == "HPL301"
                    else "thread an out= buffer through the helper or "
                         "hoist the ufunc result"
                )
                emitter.emit(site, off.rule, message, hint)
            if depth >= MAX_DEPTH:
                continue
            for call in _calls_in(callee):
                nxt = index.resolve_call(call, callee)
                if nxt is None or nxt.is_hot:
                    continue
                stack.append((nxt, site, chain + (nxt.qualname,), depth + 1))
        findings.extend(emitter.findings)
    return findings
