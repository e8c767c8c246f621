"""R-rules: registry completeness across modules.

The engine's wire registries live in ``engine/rpc.py`` (sketch builders
and their JSON encoders) and the differential-harness surface
lives in ``sketches/specs.py``.  A new sketch that lands in one table
but not its inverses works in whatever path its author tested and
silently fails in the others — these rules make the tables provably
closed, and :func:`extract_registry_view` exposes the same static
extraction to a runtime cross-check test so the rules cannot drift from
the live dictionaries they model.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import ProjectRule, register
from repro.analysis.source import SourceFile

_RPC_SUFFIX = "repro/engine/rpc.py"
_SPECS_SUFFIX = "repro/sketches/specs.py"

#: Names from the shared binning kernel: using one marks a sketch class
#: as vectorized even if its author forgot everything else.
_KERNEL_MARKERS = {"bin_rows", "bincount"}


def _dict_literal_keys(tree: ast.Module, name: str) -> tuple[list[str], int]:
    """String keys of the module-level ``name = {...}`` literal and the
    assignment's line (0 when absent)."""
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(
            isinstance(t, ast.Name) and t.id == name for t in targets
        ):
            continue
        if not isinstance(value, ast.Dict):
            return [], node.lineno
        keys = [
            k.value
            for k in value.keys
            if isinstance(k, ast.Constant) and isinstance(k.value, str)
        ]
        return keys, node.lineno
    return [], 0


def _encoder_type_tags(tree: ast.Module) -> set[str]:
    """`"type"` values returned by the ``_encode_*`` family."""
    tags: set[str] = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.FunctionDef)
            and node.name.startswith("_encode_")
        ):
            continue
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Dict):
                continue
            for key, value in zip(sub.keys, sub.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "type"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    tags.add(value.value)
    return tags


@dataclass
class _SketchClass:
    name: str
    bases: list[str]
    methods: set[str]
    uses_kernel: bool
    line: int
    sf: SourceFile


@dataclass
class RegistryView:
    """Everything the R-rules (and the runtime cross-check) extract."""

    sketch_builder_keys: list[str] = field(default_factory=list)
    builders_line: int = 0
    encoder_type_tags: set[str] = field(default_factory=set)
    spec_names: list[str] = field(default_factory=list)
    spec_referenced_classes: set[str] = field(default_factory=set)
    sketch_classes: dict[str, _SketchClass] = field(default_factory=dict)
    rpc_file: SourceFile | None = None
    specs_file: SourceFile | None = None


def _collect_sketch_classes(
    sf: SourceFile, view: RegistryView
) -> None:
    assert sf.tree is not None
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not node.name.endswith("Sketch"):
            continue
        bases = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        uses_kernel = any(
            (isinstance(sub, ast.Name) and sub.id in _KERNEL_MARKERS)
            or (
                isinstance(sub, ast.Attribute)
                and sub.attr in _KERNEL_MARKERS
            )
            for sub in ast.walk(node)
        )
        view.sketch_classes[node.name] = _SketchClass(
            node.name, bases, methods, uses_kernel, node.lineno, sf
        )


def _collect_specs(sf: SourceFile, view: RegistryView) -> None:
    assert sf.tree is not None
    view.specs_file = sf
    view.spec_referenced_classes = {
        node.id
        for node in ast.walk(sf.tree)
        if isinstance(node, ast.Name) and node.id.endswith("Sketch")
    }
    # Spec names: the first constant argument of SketchSpec(...) calls.
    for node in ast.walk(sf.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "SketchSpec"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            view.spec_names.append(node.args[0].value)


def extract_registry_view(files: list[SourceFile]) -> RegistryView:
    """The static truth about every registry, from dict/class literals.

    ``tests/test_analysis.py`` imports the live modules and asserts they
    agree with this extraction, so the R-rules cannot rot as the real
    registries evolve.
    """
    view = RegistryView()
    for sf in files:
        if sf.tree is None:
            continue
        path = sf.scope_path
        if path.endswith(_RPC_SUFFIX):
            view.rpc_file = sf
            view.sketch_builder_keys, view.builders_line = _dict_literal_keys(
                sf.tree, "SKETCH_BUILDERS"
            )
            view.encoder_type_tags = _encoder_type_tags(sf.tree)
        elif path.endswith(_SPECS_SUFFIX):
            _collect_specs(sf, view)
        elif "repro/sketches/" in path:
            _collect_sketch_classes(sf, view)
    return view


def _has_oracle(cls: _SketchClass, view: RegistryView) -> bool:
    """summarize_reference defined on the class or an ancestor we can
    see (single inheritance within the sketches package)."""
    seen: set[str] = set()
    stack = [cls.name]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        current = view.sketch_classes.get(name)
        if current is None:
            continue
        if "summarize_reference" in current.methods:
            return True
        stack.extend(current.bases)
    return False


@register
class BuilderEncoderParity(ProjectRule):
    """R001: every SKETCH_BUILDERS key has a JSON encoder inverse."""

    rule_id = "R001"

    def check_project(self, files: list[SourceFile]) -> Iterator[Finding]:
        view = extract_registry_view(files)
        if view.rpc_file is None or not view.sketch_builder_keys:
            return
        for key in view.sketch_builder_keys:
            if key not in view.encoder_type_tags:
                yield self.finding(
                    view.rpc_file,
                    view.builders_line,
                    f"sketch type {key!r} has a builder but no _encode_* "
                    "inverse emitting that \"type\" tag: the root cannot "
                    "broadcast it to worker daemons",
                )


@register
class VectorizedSketchEnrollment(ProjectRule):
    """R003: vectorized sketches keep their oracle and a spec entry."""

    rule_id = "R003"

    def check_project(self, files: list[SourceFile]) -> Iterator[Finding]:
        view = extract_registry_view(files)
        for cls in sorted(view.sketch_classes.values(), key=lambda c: c.name):
            vectorized = cls.uses_kernel or "summarize_reference" in cls.methods
            if not vectorized:
                continue
            if not _has_oracle(cls, view):
                yield self.finding(
                    cls.sf,
                    cls.line,
                    f"{cls.name} uses the vectorized binning kernel but "
                    "defines no summarize_reference per-row oracle: the "
                    "differential harness cannot check it",
                )
            if (
                view.specs_file is not None
                and cls.name not in view.spec_referenced_classes
            ):
                yield self.finding(
                    cls.sf,
                    cls.line,
                    f"vectorized sketch {cls.name} is not registered in "
                    "sketches/specs.py: it silently skips the kernel-"
                    "equivalence fuzz and the leaf perf gate",
                )
