"""HPL001–HPL004 — the syntactic ``core`` pack.

The rule table and the call tables it reads live in
:mod:`repro.check.lint`.  ``np.<name>`` means any call the module's
import table resolves to ``numpy.<name>`` (``np.zeros``,
``numpy.zeros``, or ``zeros`` after ``from numpy import zeros``); a
function is hot when it, or a def enclosing it, carries ``@hot_path``;
a module is a kernel module when any def in it does (HPL002).
"""

from __future__ import annotations

import ast

from repro.check.lint import (
    Finding,
    _FUNCTOR_BASES,
    _METHOD_ALLOC,
    _NP_ALLOC,
    _NP_DTYPE_DEFAULTED,
    _NP_UFUNC_OUT,
)
from repro.check.static.callgraph import ModuleUnit
from repro.check.static.report import Emitter

__all__ = ["check_module", "casts_without_copy", "numpy_name"]


def numpy_name(unit: ModuleUnit, call: ast.Call) -> str | None:
    """The name under ``numpy`` a call resolves to (``"zeros"``), or None."""
    qual = unit.qualified_name(call.func)
    if qual is not None and qual.startswith("numpy."):
        return qual[len("numpy."):]
    return None


def casts_without_copy(call: ast.Call) -> bool:
    """``x.astype(..., copy=False)`` casts without allocating."""
    return any(
        kw.arg == "copy"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is False
        for kw in call.keywords
    )


def _has_kwarg(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def _check_call(call: ast.Call, hot: bool, kernel_module: bool,
                emitter: Emitter) -> None:
    f = call.func
    np_name = numpy_name(emitter.unit, call)
    if np_name is not None:
        if hot and np_name in _NP_ALLOC:
            emitter.emit(
                call, "HPL001",
                f"np.{np_name}() allocates on a @hot_path",
                "draw the buffer from ctx.buffer()/ctx.scratch() once, "
                "reuse it across calls",
            )
        elif (
            kernel_module
            and np_name in _NP_DTYPE_DEFAULTED
            and not _has_kwarg(call, "dtype")
        ):
            # In hot functions HPL001 already covers the call; the
            # dtype rule catches kernel-module setup code.
            emitter.emit(
                call, "HPL002",
                f"np.{np_name}() without dtype= defaults to float64",
                "pass an explicit dtype= matching the kernel's "
                "working precision",
            )
        if hot and np_name in _NP_UFUNC_OUT and not _has_kwarg(call, "out"):
            emitter.emit(
                call, "HPL003",
                f"np.{np_name}() without out= allocates per call",
                "pass out= targeting a context-owned buffer",
            )
    elif hot and isinstance(f, ast.Attribute):
        if f.attr == "astype" and casts_without_copy(call):
            return
        if f.attr in _METHOD_ALLOC:
            emitter.emit(
                call, "HPL001",
                f".{f.attr}() allocates on a @hot_path",
                "hoist the conversion/copy out of the hot path or "
                "write into a context-owned buffer",
            )


def _check_functor_class(cls: ast.ClassDef, emitter: Emitter) -> None:
    """HPL004: the functor calling convention."""
    base_names = set()
    for base in cls.bases:
        if isinstance(base, ast.Name):
            base_names.add(base.id)
        elif isinstance(base, ast.Attribute):
            base_names.add(base.attr)
    if not base_names & _FUNCTOR_BASES:
        return
    for item in cls.body:
        if (
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name in ("apply", "__call__")
        ):
            a = item.args
            required = len(a.posonlyargs) + len(a.args) - len(a.defaults)
            required_kwonly = sum(1 for d in a.kw_defaults if d is None)
            # self + data = exactly 2 required positional params, no
            # required keyword-only params: adapters call
            # functor.apply(batch) positionally.
            if required != 2 or required_kwonly:
                emitter.emit(
                    item, "HPL004",
                    f"{cls.name}.{item.name} requires "
                    f"{required - 1} data argument(s) "
                    f"(+{required_kwonly} required kwonly); adapters "
                    f"call {item.name}(data) with exactly one",
                    "make the signature (self, data, *, extras_with_"
                    "defaults) and bind configuration in __init__",
                )


def check_module(unit: ModuleUnit) -> list[Finding]:
    """Run HPL001–HPL004 over one module."""
    emitter = Emitter(unit)
    kernel_module = bool(unit.hot)

    def walk(node: ast.AST, hot: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, hot or child in unit.hot)
            elif isinstance(child, ast.ClassDef):
                _check_functor_class(child, emitter)
                walk(child, hot)
            else:
                if isinstance(child, ast.Call):
                    _check_call(child, hot, kernel_module, emitter)
                walk(child, hot)

    walk(unit.tree, hot=False)
    return emitter.findings
