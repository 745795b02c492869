"""HPL2xx — CMM buffer-lifetime rules.

=======  ==============================================================
HPL201   a ``ctx.buffer()``/``ctx.scratch()`` view escapes its
         pin/release region: returned from the function that pinned
         the context, stored on ``self``, yielded, or appended to a
         long-lived container — the view outlives eviction and reads
         poison (the static twin of runtime SAN-EVICT)
HPL202   a context-derived value is used after a possible
         ``release()``/``evict()``/``invalidate()``/``clear()`` on
         *some* CFG path (forward may-analysis over the function CFG)
=======  ==============================================================

Value tracking is name-based: roots are context variables obtained via
``<cache>.get(...)`` (pin-local) or received as parameters; derived
values are ``root.buffer/scratch/object(...)`` results and their
slice/view aliases.  ``bytes(buf)``/``buf.copy()``/``buf.tobytes()``
produce fresh objects and drop out of tracking.
"""

from __future__ import annotations

import ast

from repro.check.lint import Finding
from repro.check.static.callgraph import ModuleUnit, walk_excluding_defs
from repro.check.static.cfg import build_cfg
from repro.check.static.dataflow import ForwardAnalysis, State
from repro.check.static.report import Emitter

__all__ = ["check_module", "RULES"]

RULES: dict[str, str] = {
    "HPL201": "CMM buffer view escapes its pin/release region",
    "HPL202": "context value used after a possible release/evict on a path",
}

_BUFFER_METHODS = {"buffer", "scratch"}
_DERIVE_METHODS = {"buffer", "scratch", "object"}
_VIEW_METHODS = {"view", "reshape", "ravel", "transpose", "astype"}
_RELEASE_METHODS = {"release", "evict"}
_CLEAR_METHODS = {"clear"}


def _base_name(expr: ast.expr) -> str | None:
    """Leftmost Name of a dotted/subscripted expression."""
    while isinstance(expr, (ast.Attribute, ast.Subscript, ast.Call)):
        expr = expr.func if isinstance(expr, ast.Call) else expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _dotted_text(expr: ast.expr) -> str:
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
    return ".".join(reversed(parts)).lower()


def _is_cache_get(value: ast.expr) -> bool:
    """``<something cache-ish>.get(...)`` — the context pin site."""
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "get"
        and "cache" in _dotted_text(value.func.value)
    )


def _peel_views(expr: ast.expr) -> ast.expr:
    """Strip slice/view wrappers: ``b[:4]``/``b.reshape(..)`` → ``b``."""
    while True:
        if isinstance(expr, ast.Subscript):
            expr = expr.value
        elif isinstance(expr, ast.Call) \
                and isinstance(expr.func, ast.Attribute) \
                and expr.func.attr in _VIEW_METHODS:
            expr = expr.func.value
        else:
            return expr


def _single_name_target(stmt: ast.AST) -> tuple[str, ast.expr] | None:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
            and isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id, stmt.value
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) \
            and stmt.value is not None:
        return stmt.target.id, stmt.value
    if isinstance(stmt, ast.NamedExpr) and isinstance(stmt.target, ast.Name):
        return stmt.target.id, stmt.value
    return None


class _ValueMap:
    """Flow-insensitive roots/derivations for one function."""

    def __init__(self, fn: ast.AST) -> None:
        #: ctx var name → "local-pin" | "param" | "attr"
        self.ctx_vars: dict[str, str] = {}
        #: derived var name → root ctx var name (or itself for buffers
        #: drawn off parameter contexts).
        self.derived_root: dict[str, str] = {}
        #: buffer var name → origin kind of its root context.
        self.buffers: dict[str, str] = {}
        args = getattr(fn, "args", None)
        params = set()
        if args is not None:
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                params.add(a.arg)
        # Pass 1: context roots.
        for node in walk_excluding_defs(fn):
            named = _single_name_target(node)
            if named and _is_cache_get(named[1]):
                self.ctx_vars[named[0]] = "local-pin"
            if isinstance(node, ast.withitem) \
                    and node.optional_vars is not None \
                    and isinstance(node.optional_vars, ast.Name) \
                    and _is_cache_get(node.context_expr):
                self.ctx_vars[node.optional_vars.id] = "local-pin"
        for p in params:
            if p not in self.ctx_vars and (
                    p in ("ctx", "context") or p.endswith("ctx")
                    or p.endswith("context")):
                self.ctx_vars[p] = "param"
        # Pass 2: derivations (iterate to chase alias chains).
        for _ in range(3):
            changed = False
            for node in walk_excluding_defs(fn):
                named = _single_name_target(node)
                if not named:
                    continue
                name, value = named
                root = self._root_of_value(value)
                if root is not None and self.derived_root.get(name) != root:
                    self.derived_root[name] = root
                    if self._is_buffer_value(value) or name in self.buffers:
                        pass
                    changed = True
                peeled = _peel_views(value)
                if self._is_buffer_value(peeled):
                    base = _base_name(peeled)
                    kind = self.ctx_vars.get(base or "", "attr")
                    if self.buffers.get(name) != kind:
                        self.buffers[name] = kind
                        changed = True
                elif isinstance(peeled, ast.Name) \
                        and peeled.id in self.buffers \
                        and self.buffers.get(name) \
                        != self.buffers[peeled.id]:
                    self.buffers[name] = self.buffers[peeled.id]
                    changed = True
                elif name in self.buffers and root is not None \
                        and root in self.buffers:
                    if self.buffers[name] != self.buffers[root]:
                        self.buffers[name] = self.buffers[root]
                        changed = True
                elif root in self.buffers and name not in self.buffers:
                    self.buffers[name] = self.buffers[root]
                    changed = True
            if not changed:
                break

    def _is_buffer_value(self, value: ast.expr) -> bool:
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in _BUFFER_METHODS
            and _base_name(value.func.value) is not None
            and (_base_name(value.func.value) in self.ctx_vars
                 or "ctx" in (_base_name(value.func.value) or "").lower()
                 or "context" in (_base_name(value.func.value) or "").lower())
        )

    def _root_of_value(self, value: ast.expr) -> str | None:
        """Root ctx var a value derives from, if any."""
        if isinstance(value, ast.Call) \
                and isinstance(value.func, ast.Attribute) \
                and value.func.attr in _DERIVE_METHODS:
            base = _base_name(value.func.value)
            if base in self.ctx_vars:
                return base
        if isinstance(value, ast.Name) and (
                value.id in self.derived_root or value.id in self.ctx_vars):
            return self.derived_root.get(value.id, value.id)
        if isinstance(value, ast.Subscript):
            return self._root_of_value(value.value)
        if isinstance(value, ast.Call) \
                and isinstance(value.func, ast.Attribute) \
                and value.func.attr in _VIEW_METHODS:
            return self._root_of_value(value.func.value)
        return None


# ---------------------------------------------------------------------------
# HPL201 — escapes
# ---------------------------------------------------------------------------
def _tracked_in(vmap: _ValueMap, expr: ast.expr) -> str | None:
    """Buffer var name if ``expr`` is (an alias/slice of) one."""
    if isinstance(expr, ast.Name) and expr.id in vmap.buffers:
        return expr.id
    if isinstance(expr, ast.Subscript):
        return _tracked_in(vmap, expr.value)
    if isinstance(expr, ast.Tuple):
        for elt in expr.elts:
            hit = _tracked_in(vmap, elt)
            if hit is not None:
                return hit
        return None
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute) \
            and expr.func.attr in _VIEW_METHODS:
        return _tracked_in(vmap, expr.func.value)
    return None


def _check_escapes(unit: ModuleUnit, fn: ast.AST, vmap: _ValueMap,
                   emitter: Emitter) -> None:
    for node in walk_excluding_defs(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            name = _tracked_in(vmap, node.value)
            if name is not None and vmap.buffers.get(name) == "local-pin":
                emitter.emit(
                    node, "HPL201",
                    f"'{name}' views a context pinned in this function "
                    f"and is returned past its release",
                    "copy out (bytes()/np.copy) or hand the caller the "
                    "context so the pin outlives the view",
                )
        elif isinstance(node, (ast.Yield, ast.YieldFrom)) \
                and getattr(node, "value", None) is not None:
            name = _tracked_in(vmap, node.value)
            if name is not None and vmap.buffers.get(name) == "local-pin":
                emitter.emit(
                    node, "HPL201",
                    f"'{name}' views a context pinned in this function "
                    f"and is yielded across a suspension",
                    "copy out before yielding, or keep the pin for the "
                    "generator's lifetime",
                )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            value = node.value
            name = _tracked_in(vmap, value) if isinstance(value, ast.expr) \
                else None
            if name is None:
                continue
            for target in targets:
                stores_self = (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ) or (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and isinstance(target.value.value, ast.Name)
                    and target.value.value.id == "self"
                )
                if stores_self:
                    emitter.emit(
                        node, "HPL201",
                        f"'{name}' is a CMM buffer view stored on self "
                        f"— it outlives the pin/release region",
                        "store a copy, or re-derive the view from a "
                        "freshly pinned context per use",
                    )
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "append" and node.args:
            container = node.func.value
            if (isinstance(container, ast.Attribute)
                    and isinstance(container.value, ast.Name)
                    and container.value.id == "self"):
                name = _tracked_in(vmap, node.args[0])
                if name is not None:
                    emitter.emit(
                        node, "HPL201",
                        f"'{name}' is a CMM buffer view appended to "
                        f"self.{container.attr} — it outlives the pin",
                        "append a copy; buffer views are only valid "
                        "inside their pin/release region",
                    )


# ---------------------------------------------------------------------------
# HPL202 — use after possible release (CFG may-analysis)
# ---------------------------------------------------------------------------
def _release_effects(element: ast.AST, vmap: _ValueMap) -> tuple[set[str],
                                                                 set[str]]:
    """(released ctx roots, re-acquired ctx roots) of one element."""
    released: set[str] = set()
    acquired: set[str] = set()
    for node in ast.walk(element) if not isinstance(element, ast.stmt) \
            else walk_excluding_defs(element):
        if not isinstance(node, ast.Call) \
                or not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        if attr in _RELEASE_METHODS and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Name) and arg.id in vmap.ctx_vars:
                released.add(arg.id)
        elif attr == "invalidate":
            base = _base_name(node.func.value)
            if base in vmap.ctx_vars:
                released.add(base)
        elif attr in _CLEAR_METHODS \
                and "cache" in _dotted_text(node.func.value):
            released.update(vmap.ctx_vars)
    named = _single_name_target(element)
    if named and named[0] in vmap.ctx_vars and _is_cache_get(named[1]):
        acquired.add(named[0])
    return released, acquired


class _ReleaseAnalysis(ForwardAnalysis):
    def __init__(self, vmap: _ValueMap) -> None:
        self.vmap = vmap

    def transfer_element(self, element: ast.AST, state: State) -> State:
        released, acquired = _release_effects(element, self.vmap)
        if released or acquired:
            return frozenset((set(state) - acquired) | released)
        return state


def _check_use_after_release(unit: ModuleUnit, fn, vmap: _ValueMap,
                             emitter: Emitter) -> None:
    if not vmap.ctx_vars:
        return
    cfg = build_cfg(fn)
    analysis = _ReleaseAnalysis(vmap)
    entry_states = analysis.solve(cfg)
    reported: set[tuple[str, int]] = set()
    for block in cfg.reachable():
        state = set(entry_states.get(block.bid, frozenset()))
        for element in block.elements:
            if state:
                for node in ast.walk(element):
                    if not (isinstance(node, ast.Name)
                            and isinstance(node.ctx, ast.Load)):
                        continue
                    root = (node.id if node.id in vmap.ctx_vars
                            else vmap.derived_root.get(node.id))
                    if root in state and (node.id, node.lineno) \
                            not in reported:
                        reported.add((node.id, node.lineno))
                        emitter.emit(
                            node, "HPL202",
                            f"'{node.id}' may be used after context "
                            f"'{root}' was released/evicted on a path",
                            "re-fetch (and pin) the context before the "
                            "use, or move the use before release",
                        )
            released, acquired = _release_effects(element, vmap)
            state -= acquired
            state |= released


# ---------------------------------------------------------------------------
def check_module(unit: ModuleUnit) -> list[Finding]:
    """Run HPL201–HPL202 over one module."""
    emitter = Emitter(unit)
    for fn in unit.defs:
        vmap = _ValueMap(fn)
        if vmap.buffers:
            _check_escapes(unit, fn, vmap, emitter)
        if vmap.ctx_vars:
            _check_use_after_release(unit, fn, vmap, emitter)
    return emitter.findings
