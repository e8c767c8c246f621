"""C-rules: lock discipline, trace propagation at spawn sites, and
non-blocking async bodies.

Grounded in the PR 3 TOCTOU/state-leak sweep (C001), the PR 6 hand
audit of every thread-spawn site for trace propagation (C002), and the
service tier's single event loop serving every connected client (C003).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import FileRule, register
from repro.analysis.source import SourceFile, enclosing_function

#: Identifiers whose presence marks a spawn site as context-aware.
_CONTEXT_MARKERS = {"use_context", "current_context", "serve_span"}
#: self attribute names treated as locks when used in `with self.X:`.
_LOCK_HINTS = ("lock", "cond", "mutex")


def _attr_is_lock(name: str) -> bool:
    lowered = name.lower()
    if any(hint in lowered for hint in _LOCK_HINTS):
        return True
    # Condition variables abbreviated `cv` (`self._ops_cv`).
    return lowered == "cv" or lowered.endswith("_cv")


class _LockScopeVisitor(ast.NodeVisitor):
    """Record every `self.X = ...` store in a method, with lock depth."""

    def __init__(self) -> None:
        self.depth = 0
        self.stores: list[tuple[str, int, bool]] = []  # (attr, line, locked)

    def _locks_in(self, node: ast.With) -> int:
        count = 0
        for item in node.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and _attr_is_lock(expr.attr)
            ):
                count += 1
        return count

    def visit_With(self, node: ast.With) -> None:
        held = self._locks_in(node)
        self.depth += held
        self.generic_visit(node)
        self.depth -= held

    def _record(self, target: ast.AST) -> None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and not _attr_is_lock(target.attr)
        ):
            self.stores.append((target.attr, target.lineno, self.depth > 0))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Tuple):
                for elt in target.elts:
                    self._record(elt)
            else:
                self._record(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record(node.target)
        self.generic_visit(node)


@register
class LockDiscipline(FileRule):
    """C001: an attribute written under `with self._lock:` somewhere
    must never be written bare elsewhere (past __init__)."""

    rule_id = "C001"

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        if sf.tree is None or "repro/" not in sf.scope_path:
            return
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            locked_attrs: set[str] = set()
            bare: list[tuple[str, int]] = []
            for method in node.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                visitor = _LockScopeVisitor()
                visitor.visit(method)
                for attr, line, locked in visitor.stores:
                    if locked:
                        locked_attrs.add(attr)
                    elif method.name != "__init__":
                        bare.append((attr, line))
            for attr, line in sorted(bare, key=lambda pair: pair[1]):
                if attr in locked_attrs:
                    yield self.finding(
                        sf,
                        line,
                        f"self.{attr} is written under {node.name}'s lock "
                        "elsewhere but bare here: every post-__init__ "
                        "write must hold the same lock",
                    )


def _function_mentions_context(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id in _CONTEXT_MARKERS:
            return True
        if isinstance(node, ast.Attribute) and node.attr in _CONTEXT_MARKERS:
            return True
    return False


def _spawn_callable(node: ast.Call) -> ast.AST | None:
    """The callable a spawn site hands to another thread, if visible."""
    func = node.func
    if isinstance(func, (ast.Name, ast.Attribute)) and (
        (isinstance(func, ast.Name) and func.id == "Thread")
        or (isinstance(func, ast.Attribute) and func.attr == "Thread")
    ):
        for kw in node.keywords:
            if kw.arg == "target":
                return kw.value
        return node.args[0] if node.args else None
    # executor.submit(fn, ...) / executor.map(fn, ...)
    return node.args[0] if node.args else None


def _is_spawn_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name) and func.id == "Thread":
        return True
    if isinstance(func, ast.Attribute):
        if func.attr == "Thread" and isinstance(func.value, ast.Name):
            return func.value.id == "threading"
        if func.attr in ("submit", "map"):
            receiver = func.value
            name = None
            if isinstance(receiver, ast.Name):
                name = receiver.id
            elif isinstance(receiver, ast.Attribute):
                name = receiver.attr
            if name is not None:
                lowered = name.lower()
                return "pool" in lowered or "executor" in lowered
    return False


def _resolve_local_callable(
    target: ast.AST | None, sf: SourceFile, call: ast.Call
) -> ast.AST | None:
    """Resolve `target=self._x` / `target=f` to a def in this module."""
    if target is None:
        return None
    name: str | None = None
    if isinstance(target, ast.Name):
        name = target.id
    elif (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        name = target.attr
    if name is None:
        return None
    assert sf.tree is not None
    for node in ast.walk(sf.tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
        ):
            return node
    return None


@register
class SpawnWithoutContext(FileRule):
    """C002: thread spawns in engine/ and service/ must visibly thread
    the trace context — in the spawning function or in the target."""

    rule_id = "C002"

    def _applies(self, sf: SourceFile) -> bool:
        path = sf.scope_path
        return "repro/engine/" in path or "repro/service/" in path

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        if sf.tree is None or not self._applies(sf):
            return
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call) or not _is_spawn_call(node):
                continue
            spawner = enclosing_function(node)
            if spawner is not None and _function_mentions_context(spawner):
                continue
            target = _resolve_local_callable(
                _spawn_callable(node), sf, node
            )
            if target is not None and _function_mentions_context(target):
                continue
            yield self.finding(
                sf,
                node.lineno,
                "thread spawn without trace-context propagation: capture "
                "current_context() and wrap the target in use_context "
                "(or serve_span), or suppress with the reason the spawned "
                "work carries no query context",
            )


#: (module, attr) calls that block the event loop.
_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"),
    ("os", "system"),
    ("socket", "create_connection"),
    ("framing", "dial"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
}
#: attribute calls that block regardless of receiver.
_BLOCKING_ATTR_CALLS = {"result", "accept", "recv", "recvfrom"}


@register
class BlockingCallInAsync(FileRule):
    """C003: blocking calls directly inside `async def` bodies."""

    rule_id = "C003"

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        if sf.tree is None or "repro/" not in sf.scope_path:
            return
        # `from repro.core.framing import dial` makes `dial(...)` the
        # same call as `framing.dial(...)`.
        imported = {
            alias.asname or alias.name: (node.module.split(".")[-1], alias.name)
            for node in ast.walk(sf.tree)
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names
        }
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            func = enclosing_function(node)
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            callee = node.func
            blocking = None
            if isinstance(callee, ast.Name):
                blocking = imported.get(callee.id)
            elif isinstance(callee, ast.Attribute):
                if isinstance(callee.value, ast.Name):
                    blocking = (callee.value.id, callee.attr)
            if blocking in _BLOCKING_MODULE_CALLS:
                yield self.finding(
                    sf,
                    node.lineno,
                    "{}.{}() blocks the event loop; ".format(*blocking)
                    + "use the asyncio equivalent or run_in_executor",
                )
            elif getattr(callee, "attr", None) in _BLOCKING_ATTR_CALLS:
                yield self.finding(
                    sf,
                    node.lineno,
                    f".{callee.attr}() inside `async def {func.name}` "
                    "blocks the event loop for every client; await an "
                    "asyncio primitive instead",
                )
