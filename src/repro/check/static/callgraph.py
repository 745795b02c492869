"""Module index and interprocedural call graph for HPDR-Statica.

:class:`ModuleUnit` wraps one parsed source file with everything the
rule packs query repeatedly: an import table (local name → dotted
origin), a parent map (AST node → enclosing node), per-line suppression
sets, every ``def`` in the module, the ``@hot_path`` ones among them
(nested ones too), and every function/method definition keyed by
qualified name.  It is the only place a file is parsed: every pack,
``core`` included, reads the same tree.

:class:`ProjectIndex` spans the analyzed file set and resolves call
expressions to definitions, conservatively:

* bare names resolve to module-level functions of the same module, or
  through ``from x import y`` when module ``x`` is in the file set;
* ``self.m(...)`` resolves to method ``m`` of the enclosing class;
* ``mod.f(...)`` resolves through ``import repro.x as mod``;
* ``obj.m(...)`` resolves only when exactly **one** analyzed class
  defines method ``m`` (used by the executor-binding rule, where the
  dispatch sites are few and the method names distinctive).

Unresolvable calls resolve to nothing — the analyses stay quiet rather
than guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.check.static.report import parse_suppressions

__all__ = [
    "FuncInfo",
    "ModuleUnit",
    "ProjectIndex",
    "qualified_call_name",
    "walk_excluding_defs",
]


def _is_hot_decorator(dec: ast.expr) -> bool:
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Name):
        return target.id == "hot_path"
    if isinstance(target, ast.Attribute):
        return target.attr == "hot_path"
    return False


def walk_excluding_defs(root: ast.AST) -> Iterator[ast.AST]:
    """Yield descendants of ``root`` without entering nested defs."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@dataclass(eq=False)  # identity semantics: nodes are unique, sets hold them
class FuncInfo:
    """One function or method definition inside an analyzed module."""

    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    module: "ModuleUnit"
    class_name: str | None = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_hot(self) -> bool:
        return self.node in self.module.hot


class ModuleUnit:
    """One parsed module plus the lookup tables the rule packs share."""

    def __init__(self, path: Path, source: str,
                 module_name: str | None = None) -> None:
        self.path = path
        self.source = source
        self.module_name = module_name or _module_name_for(path)
        self.tree = ast.parse(source, filename=str(path))
        self.suppressions = parse_suppressions(source)
        self.parents: dict[ast.AST, ast.AST] = {}
        #: local name → dotted origin ("np" → "numpy",
        #: "sleep" → "time.sleep").
        self.imports: dict[str, str] = {}
        self.functions: dict[str, FuncInfo] = {}
        self.classes: dict[str, ast.ClassDef] = {}
        #: every def in ``ast.walk`` order, nested ones included.
        self.defs: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        #: the defs decorated ``@hot_path``.
        self.hot: set[ast.AST] = set()
        self._index()

    # ------------------------------------------------------------------
    def _index(self) -> None:
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:   # ``import a.b`` binds ``a`` to module ``a``
                        head = alias.name.split(".")[0]
                        self.imports[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.defs.append(node)
                if any(_is_hot_decorator(d) for d in node.decorator_list):
                    self.hot.add(node)
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        info = FuncInfo(
                            qualname=f"{node.name}.{item.name}",
                            node=item, module=self,
                            class_name=node.name,
                        )
                        self.functions[info.qualname] = info
        for item in self.tree.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[item.name] = FuncInfo(
                    qualname=item.name, node=item, module=self,
                )

    # ------------------------------------------------------------------
    def info_for(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> FuncInfo:
        """The :class:`FuncInfo` of any def in the module, nested ones
        included (``outer.<locals>.inner``, as Python names them)."""
        names = [node.name]
        class_name: str | None = None
        cur = self.parents.get(node)
        while cur is not None and cur is not self.tree:
            if isinstance(cur, ast.ClassDef):
                names.append(cur.name)
                class_name = class_name or cur.name
            elif isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(f"{cur.name}.<locals>")
            cur = self.parents.get(cur)
        qualname = ".".join(reversed(names))
        return self.functions.get(qualname) or FuncInfo(
            qualname=qualname, node=node, module=self, class_name=class_name,
        )

    def enclosing_statement(self, node: ast.AST) -> ast.stmt | None:
        cur: ast.AST | None = node
        while cur is not None and not isinstance(cur, ast.stmt):
            cur = self.parents.get(cur)
        return cur if isinstance(cur, ast.stmt) else None

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        cur: ast.AST | None = node
        while cur is not None:
            if isinstance(cur, ast.ClassDef):
                return cur
            cur = self.parents.get(cur)
        return None

    def qualified_name(self, expr: ast.expr) -> str | None:
        """Dotted origin of a Name/Attribute through the import table.

        ``np.zeros`` → ``numpy.zeros``; bare ``open`` (no local import,
        no local def) → ``builtins.open``.
        """
        parts: list[str] = []
        cur = expr
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        parts.append(cur.id)
        parts.reverse()
        head, rest = parts[0], parts[1:]
        origin = self.imports.get(head)
        if origin is not None:
            return ".".join([origin, *rest])
        if not rest and head not in self.functions and head not in self.classes:
            return f"builtins.{head}"
        return ".".join(parts)


def _module_name_for(path: Path) -> str:
    """Best-effort dotted module name (``repro.serve.net``) for a path."""
    parts = list(path.parts)
    for anchor in ("src",):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            dotted = parts[idx + 1:]
            if dotted:
                return ".".join(dotted)[:-3] if dotted[-1].endswith(".py") \
                    else ".".join(dotted)
    return path.stem


@dataclass
class ProjectIndex:
    """All analyzed modules plus cross-module call resolution."""

    modules: list[ModuleUnit] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_name: dict[str, ModuleUnit] = {}
        #: method name → every (class, FuncInfo) that defines it.
        self._methods: dict[str, list[FuncInfo]] = {}

    def add(self, unit: ModuleUnit) -> None:
        self.modules.append(unit)
        self._by_name[unit.module_name] = unit
        for info in unit.functions.values():
            if info.class_name is not None:
                self._methods.setdefault(info.name, []).append(info)

    def module(self, dotted: str) -> ModuleUnit | None:
        return self._by_name.get(dotted)

    # ------------------------------------------------------------------
    def resolve_call(
        self,
        call: ast.Call,
        caller: FuncInfo,
        unique_methods: bool = False,
    ) -> FuncInfo | None:
        func = call.func
        unit = caller.module
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, unit)
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self" \
                    and caller.class_name is not None:
                return unit.functions.get(f"{caller.class_name}.{func.attr}")
            if isinstance(base, ast.Name):
                origin = unit.imports.get(base.id)
                if origin is not None:
                    target = self._by_name.get(origin)
                    if target is not None:
                        return target.functions.get(func.attr)
                    # ``from pkg import mod`` — origin is "pkg.mod".
                    return self._resolve_dotted(f"{origin}.{func.attr}")
            if unique_methods:
                candidates = self._methods.get(func.attr, [])
                if len(candidates) == 1:
                    return candidates[0]
        return None

    def resolve_ref(
        self,
        expr: ast.expr,
        unit: ModuleUnit,
        class_name: str | None = None,
    ) -> FuncInfo | None:
        """Resolve a bare callable *reference* (not a call) — the form
        executor dispatch sites pass: ``self.m``, ``worker.run_batch``,
        ``_job``.  Unique-method fallback is always on here: dispatch
        sites are few and their method names distinctive."""
        if isinstance(expr, ast.Name):
            return self._resolve_name(expr.id, unit)
        if isinstance(expr, ast.Attribute):
            base = expr.value
            if isinstance(base, ast.Name) and base.id == "self" \
                    and class_name is not None:
                return unit.functions.get(f"{class_name}.{expr.attr}")
            if isinstance(base, ast.Name):
                origin = unit.imports.get(base.id)
                if origin is not None:
                    target = self._by_name.get(origin)
                    if target is not None:
                        return target.functions.get(expr.attr)
            candidates = self._methods.get(expr.attr, [])
            if len(candidates) == 1:
                return candidates[0]
        return None

    def _resolve_name(self, name: str, unit: ModuleUnit) -> FuncInfo | None:
        info = unit.functions.get(name)
        if info is not None:
            return info
        origin = unit.imports.get(name)
        if origin is not None:
            return self._resolve_dotted(origin)
        return None

    def _resolve_dotted(self, dotted: str) -> FuncInfo | None:
        module_name, _, attr = dotted.rpartition(".")
        target = self._by_name.get(module_name)
        if target is not None:
            return target.functions.get(attr)
        return None


def qualified_call_name(call: ast.Call, unit: ModuleUnit) -> str | None:
    """Dotted origin of a call's callee, or None."""
    return unit.qualified_name(call.func)
