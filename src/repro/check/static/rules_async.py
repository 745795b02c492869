"""HPL1xx — async-safety rules for the serve layer.

=======  ==============================================================
HPL101   blocking call inside an ``async def`` body: ``time.sleep``,
         sync socket/subprocess/file I/O, or a direct codec
         ``compress``/``decompress`` that should run on an executor
HPL102   ``await`` while holding a synchronous (``threading``) lock —
         every other coroutine needing the lock deadlocks against the
         suspended holder
HPL103   fire-and-forget task/future (``create_task``/
         ``ensure_future``/``run_in_executor``) whose result is never
         awaited, stored, returned, or given a done-callback —
         exceptions vanish and completion is unobservable
HPL104   a function dispatched to an executor mutates ``self`` state
         that event-loop-side (async or loop-thread) methods of the
         same class also mutate — a cross-thread data race
=======  ==============================================================
"""

from __future__ import annotations

import ast

from repro.check.lint import Finding
from repro.check.static.callgraph import (
    FuncInfo,
    ModuleUnit,
    ProjectIndex,
    walk_excluding_defs,
)
from repro.check.static.report import Emitter

__all__ = ["check_module", "check_project", "RULES"]

RULES: dict[str, str] = {
    "HPL101": "blocking call inside async def (stalls the event loop)",
    "HPL102": "await while holding a synchronous lock (deadlock-prone)",
    "HPL103": "fire-and-forget task/future: result never awaited or checked",
    "HPL104": "executor-bound function mutates event-loop-shared state",
}

#: dotted call targets that block the calling thread.
_BLOCKING_QUALNAMES = {
    "time.sleep",
    "subprocess.run", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    "socket.create_connection", "socket.getaddrinfo",
    "socket.gethostbyname", "socket.gethostbyaddr",
    "requests.get", "requests.post", "requests.put", "requests.delete",
    "requests.head", "requests.request",
    "urllib.request.urlopen",
    "builtins.open", "builtins.input",
    "os.system", "os.waitpid",
    "shutil.copyfile", "shutil.copytree", "shutil.rmtree",
}
#: codec entry points that must reach an executor, not the loop thread.
_CODEC_METHODS = {"compress", "decompress", "compress_batch",
                  "decompress_batch"}
#: constructors of synchronous locks.
_SYNC_LOCK_QUALNAMES = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "multiprocessing.Lock", "multiprocessing.RLock",
}
_ASYNC_LOCK_QUALNAMES = {
    "asyncio.Lock", "asyncio.Condition", "asyncio.Semaphore",
    "asyncio.BoundedSemaphore",
}
_SPAWN_ATTRS = {"create_task", "ensure_future", "run_in_executor"}


# ---------------------------------------------------------------------------
# HPL101 — blocking calls in async bodies
# ---------------------------------------------------------------------------
#: awaiting combinators: a coroutine-producing call handed to one of
#: these is consumed asynchronously, not run on the loop thread.
_GATHER_QUALNAMES = {
    "asyncio.gather", "asyncio.wait", "asyncio.wait_for",
    "asyncio.create_task", "asyncio.ensure_future", "asyncio.as_completed",
}


def _consumed_async(unit: ModuleUnit, node: ast.Call) -> bool:
    """True when the call is awaited or fed to an asyncio combinator."""
    cur: ast.AST | None = node
    while cur is not None and not isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
        parent = unit.parents.get(cur)
        if isinstance(parent, ast.Await):
            return True
        if isinstance(parent, ast.Call) and parent is not node:
            qual = unit.qualified_name(parent.func)
            if qual in _GATHER_QUALNAMES or (
                    isinstance(parent.func, ast.Attribute)
                    and parent.func.attr in _SPAWN_ATTRS):
                return True
        cur = parent
    return False


def _check_blocking(unit: ModuleUnit, fn: ast.AsyncFunctionDef,
                    emitter: Emitter) -> None:
    for node in walk_excluding_defs(fn):
        if not isinstance(node, ast.Call):
            continue
        qual = unit.qualified_name(node.func)
        if qual in _BLOCKING_QUALNAMES:
            emitter.emit(
                node, "HPL101",
                f"{qual}() blocks the event loop inside async "
                f"def {fn.name}()",
                "await an async equivalent, or move the call to "
                "loop.run_in_executor()",
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _CODEC_METHODS
            and not _consumed_async(unit, node)
        ):
            emitter.emit(
                node, "HPL101",
                f"direct codec .{node.func.attr}() runs a whole "
                f"reduction on the event loop in async def {fn.name}()",
                "submit through the service/worker pool "
                "(await svc.submit(...)) or run_in_executor",
            )


# ---------------------------------------------------------------------------
# HPL102 — await under a synchronous lock
# ---------------------------------------------------------------------------
def _sync_lock_names(unit: ModuleUnit) -> tuple[set[str], set[str]]:
    """(lock-ish simple names, async-lock simple names) in the module.

    Tracks both locals (``lock = threading.Lock()``) and instance
    attributes (``self._lock = threading.Lock()`` → ``_lock``).
    """
    sync_names: set[str] = set()
    async_names: set[str] = set()
    for node in ast.walk(unit.tree):
        if not isinstance(node, ast.Assign) or not isinstance(node.value,
                                                              ast.Call):
            continue
        qual = unit.qualified_name(node.value.func)
        bucket = None
        if qual in _SYNC_LOCK_QUALNAMES:
            bucket = sync_names
        elif qual in _ASYNC_LOCK_QUALNAMES:
            bucket = async_names
        if bucket is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                bucket.add(target.id)
            elif isinstance(target, ast.Attribute):
                bucket.add(target.attr)
    return sync_names, async_names


def _lock_simple_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _check_await_under_lock(unit: ModuleUnit, fn: ast.AsyncFunctionDef,
                            emitter: Emitter,
                            sync_locks: set[str],
                            async_locks: set[str]) -> None:
    for node in walk_excluding_defs(fn):
        if not isinstance(node, ast.With):
            continue
        held = None
        for item in node.items:
            name = _lock_simple_name(item.context_expr)
            if name is None or name in async_locks:
                continue
            qual = (unit.qualified_name(item.context_expr.func)
                    if isinstance(item.context_expr, ast.Call) else None)
            lockish = (
                name in sync_locks
                or qual in _SYNC_LOCK_QUALNAMES
                or "lock" in name.lower()
                or "mutex" in name.lower()
            )
            if lockish:
                held = name
                break
        if held is None:
            continue
        for inner in walk_excluding_defs(node):
            if isinstance(inner, ast.Await):
                emitter.emit(
                    inner, "HPL102",
                    f"await inside `with {held}:` suspends while "
                    f"holding a synchronous lock",
                    "use asyncio.Lock with `async with`, or release "
                    "the lock before awaiting",
                )


# ---------------------------------------------------------------------------
# HPL103 — fire-and-forget tasks/futures
# ---------------------------------------------------------------------------
def _is_spawn_call(unit: ModuleUnit, call: ast.Call) -> bool:
    qual = unit.qualified_name(call.func)
    if qual in ("asyncio.create_task", "asyncio.ensure_future"):
        return True
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr in _SPAWN_ATTRS)


def _name_is_used(fn: ast.AST, name: str, binding: ast.AST) -> bool:
    """Any Load of ``name`` in ``fn`` besides its binding target."""
    for node in ast.walk(fn):
        if (isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load) and node is not binding):
            return True
    return False


def _check_fire_and_forget(unit: ModuleUnit, fn: ast.AST,
                           emitter: Emitter) -> None:
    for node in walk_excluding_defs(fn):
        if not isinstance(node, ast.Call) or not _is_spawn_call(unit, node):
            continue
        if isinstance(unit.parents.get(node), ast.Await):
            continue  # awaited in place
        stmt = unit.enclosing_statement(node)
        spawn = (node.func.attr if isinstance(node.func, ast.Attribute)
                 else unit.qualified_name(node.func) or "spawn")
        if isinstance(stmt, ast.Expr) and stmt.value is node:
            emitter.emit(
                node, "HPL103",
                f"{spawn}(...) result discarded: exceptions are lost "
                f"and completion is unobservable",
                "await it, keep the handle and add_done_callback(), or "
                "gather it at shutdown",
            )
            continue
        if isinstance(stmt, ast.Assign) and stmt.value is node \
                and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            target = stmt.targets[0].id
            if not _name_is_used(fn, target, stmt.targets[0]):
                emitter.emit(
                    node, "HPL103",
                    f"{spawn}(...) bound to '{target}' but never "
                    f"awaited, returned, or given a done-callback",
                    "await the handle or attach add_done_callback() "
                    "so failures surface",
                )


# ---------------------------------------------------------------------------
# HPL104 — executor-bound mutation of loop-shared state (project-wide)
# ---------------------------------------------------------------------------
def _executor_targets(unit: ModuleUnit, index: ProjectIndex) -> list[FuncInfo]:
    """Every function the module dispatches to an executor."""
    targets: list[FuncInfo] = []
    for node in ast.walk(unit.tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func,
                                                            ast.Attribute):
            continue
        callee_expr: ast.expr | None = None
        if node.func.attr == "run_in_executor" and len(node.args) >= 2:
            callee_expr = node.args[1]
        elif node.func.attr == "submit" and node.args:
            base = _lock_simple_name(node.func.value)
            if base and ("executor" in base.lower() or "pool" in base.lower()):
                callee_expr = node.args[0]
        if callee_expr is None:
            continue
        enclosing_class = unit.enclosing_class(node)
        info = index.resolve_ref(
            callee_expr, unit,
            enclosing_class.name if enclosing_class else None,
        )
        if info is not None:
            targets.append(info)
    return targets


def _method_closure(index: ProjectIndex, roots: list[FuncInfo]
                    ) -> set[FuncInfo]:
    """Roots plus same-class methods they transitively call."""
    closure: set[FuncInfo] = set()
    stack = list(roots)
    while stack:
        info = stack.pop()
        if info in closure:
            continue
        closure.add(info)
        if info.class_name is None:
            # Module functions: follow bare-name and self-free calls.
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    nxt = info.module.functions.get(
                        node.func.id) if isinstance(node.func,
                                                    ast.Name) else None
                    if nxt is None and isinstance(node.func, ast.Attribute):
                        nxt = index.resolve_ref(node.func, info.module)
                    if nxt is not None:
                        stack.append(nxt)
            continue
        for node in ast.walk(info.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"):
                nxt = info.module.functions.get(
                    f"{info.class_name}.{node.func.attr}")
                if nxt is not None:
                    stack.append(nxt)
    return closure


def _self_mutations(fn: ast.AST) -> dict[str, ast.stmt]:
    """attr name → first statement assigning ``self.<attr>`` in ``fn``."""
    out: dict[str, ast.stmt] = {}
    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in out):
                out[target.attr] = node
    return out


_LIFECYCLE_METHODS = {"__init__", "__post_init__"}


def check_project(index: ProjectIndex) -> list[Finding]:
    """HPL104 over the whole file set (dispatch and target may live in
    different modules)."""
    bound_roots: list[FuncInfo] = []
    for unit in index.modules:
        bound_roots.extend(_executor_targets(unit, index))
    if not bound_roots:
        return []
    closure = _method_closure(index, bound_roots)
    bound_by_class: dict[tuple[str, str], set[str]] = {}
    for info in closure:
        if info.class_name is not None:
            bound_by_class.setdefault(
                (str(info.module.path), info.class_name), set()
            ).add(info.name)

    findings: list[Finding] = []
    for info in sorted(closure, key=lambda i: (str(i.module.path),
                                               i.qualname)):
        if info.class_name is None:
            continue
        bound_here = bound_by_class[(str(info.module.path), info.class_name)]
        mutated = _self_mutations(info.node)
        if not mutated:
            continue
        emitter = Emitter(info.module)
        for other in info.module.functions.values():
            if (other.class_name != info.class_name
                    or other.name in bound_here
                    or other.name in _LIFECYCLE_METHODS):
                continue
            other_mutations = _self_mutations(other.node)
            shared = set(mutated) & set(other_mutations)
            for attr in sorted(shared):
                emitter.emit(
                    mutated[attr], "HPL104",
                    f"executor-bound {info.qualname}() mutates "
                    f"self.{attr}, also mutated by loop-side "
                    f"{other.qualname}() — cross-thread race",
                    "confine the attribute to one thread, or marshal "
                    "updates through loop.call_soon_threadsafe()",
                )
        findings.extend(emitter.findings)
    return findings


# ---------------------------------------------------------------------------
def check_module(unit: ModuleUnit) -> list[Finding]:
    """Run HPL101–HPL103 over one module."""
    emitter = Emitter(unit)
    async_fns = [n for n in unit.defs if isinstance(n, ast.AsyncFunctionDef)]
    if async_fns:
        sync_locks, async_locks = _sync_lock_names(unit)
        for fn in async_fns:
            _check_blocking(unit, fn, emitter)
            _check_await_under_lock(unit, fn, emitter, sync_locks,
                                    async_locks)
            _check_fire_and_forget(unit, fn, emitter)
    # HPL103 also applies to sync functions spawning executor work.
    for node in unit.defs:
        if isinstance(node, ast.FunctionDef):
            _check_fire_and_forget(unit, node, emitter)
    return emitter.findings
