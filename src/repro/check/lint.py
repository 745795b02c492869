"""hpdrlint ``core`` pack — the allocation/typing rules for HPDR kernels.

This module holds the pack's rule tables, the :class:`Finding` every
pack reports and :func:`format_findings`.  The rules run in
:mod:`repro.check.static.rules_core`, on the same parse as the other
packs; run them with ``scripts/hpdrlint.py`` or
:func:`repro.check.static.analyze_paths`.  Rules:

=======  =============================================================
HPL001   per-call allocation (``np.empty``/``np.zeros``/``np.array``/
         ``.astype``/``.copy`` …) inside a ``@hot_path`` function —
         hot paths must draw memory from a ReductionContext
HPL002   dtype-less array constructor in a kernel module (a module
         defining at least one ``@hot_path``): ``np.zeros(n)`` is an
         implicit float64 upcast that silently doubles bandwidth
HPL003   ufunc call without ``out=`` inside a ``@hot_path`` function —
         allocates a fresh result array every call
HPL004   a ``Functor`` subclass whose ``apply``/``__call__`` does not
         take exactly one required data argument (the GEM/DEM adapter
         calling convention in ``core/functor.py``)
=======  =============================================================

Suppression: a finding is dropped when ``# hpdrlint: disable=<RULE>
[,<RULE>…] — reason`` (or ``disable=all``) appears on any line the
offending node spans, on the first line of its enclosing statement, or
on the comment line directly above either.  Every pack honours this
contract (:mod:`repro.check.static.report`).  Suppressions are deliberate
and auditable — the rule id stays greppable at the call site.
"""

from __future__ import annotations

from dataclasses import dataclass

RULES: dict[str, str] = {
    "HPL001": "allocation inside @hot_path (use ctx.buffer()/ctx.scratch())",
    "HPL002": "dtype-less array constructor in kernel module (implicit float64)",
    "HPL003": "ufunc without out= inside @hot_path (allocates per call)",
    "HPL004": "Functor subclass breaks the apply(data) calling convention",
}

#: numpy namespace calls that allocate a fresh array.
_NP_ALLOC = {
    "empty", "zeros", "ones", "full",
    "empty_like", "zeros_like", "ones_like", "full_like",
    "array", "ascontiguousarray", "copy",
    "arange", "linspace",
    "concatenate", "stack", "vstack", "hstack", "column_stack",
    "pad", "repeat", "tile", "fromiter",
}
#: ndarray methods that allocate (``.ravel``/``.reshape`` may view, so
#: they are deliberately absent).
_METHOD_ALLOC = {"astype", "copy", "flatten", "tobytes", "repeat"}
#: constructors whose default dtype is float64 when ``dtype=`` is absent.
_NP_DTYPE_DEFAULTED = {"empty", "zeros", "ones", "full", "arange", "linspace"}
#: ufuncs with an ``out=`` parameter worth using on a hot path.
_NP_UFUNC_OUT = {
    "add", "subtract", "multiply", "divide", "true_divide", "floor_divide",
    "mod", "remainder", "power",
    "minimum", "maximum", "abs", "absolute", "negative", "sign",
    "sqrt", "exp", "exp2", "log", "log2", "rint", "floor", "ceil", "trunc",
    "clip",
    "bitwise_and", "bitwise_or", "bitwise_xor", "invert",
    "left_shift", "right_shift",
    "cumsum", "cumprod", "take",
}
#: base-class names that make a ClassDef a functor for HPL004.
_FUNCTOR_BASES = {
    "Functor", "LocalityFunctor", "IterativeFunctor", "DomainFunctor",
}

@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"{self.message}  [fix: {self.hint}]"
        )


def format_findings(findings: list[Finding]) -> str:
    lines = [f.format() for f in findings]
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    summary = ", ".join(f"{n}x {r}" for r, n in sorted(by_rule.items()))
    lines.append(
        f"hpdrlint: {len(findings)} finding(s)"
        + (f" ({summary})" if summary else "")
    )
    return "\n".join(lines)
