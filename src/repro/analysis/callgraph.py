"""Name-based call-graph reachability over a :class:`ProjectIndex`.

Python's dynamism rules out sound call resolution without running the
code, so RC001 uses the standard lint compromise: a call to ``x.foo(...)``
or ``foo(...)`` may reach *any* function or method named ``foo`` anywhere
in the index.  That over-approximates reachability — which is the safe
direction for a determinism checker: a nondeterministic call is flagged if
it *might* be reachable from a replay entry point, and the baseline
absorbs the deliberate cases.

Dispatch tables get the same treatment: ``OPS[kind].apply(workbook, op)``
names no handler, so reaching any definition of a module also "calls"
every name that module's top-level statements mention — the function
references a table such as ``OPS = {"set_cell": _apply_set_cell}`` holds.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set

from repro.analysis.core import Module, ProjectIndex, walk_scoped

__all__ = ["DefInfo", "collect_defs", "reachable"]


@dataclass
class DefInfo:
    """One function/method definition and where it lives."""

    module: Module
    scope: str                 # dotted scope inside the module, e.g. "EventLog.record"
    node: ast.AST              # FunctionDef / AsyncFunctionDef

    @property
    def simple_name(self) -> str:
        return self.scope.rsplit(".", 1)[-1]

    @property
    def qualname(self) -> str:
        return f"{self.module.name}.{self.scope}"


def collect_defs(index: ProjectIndex) -> Dict[str, List[DefInfo]]:
    """Simple name → every definition carrying it (methods, functions,
    nested closures alike)."""
    by_name: Dict[str, List[DefInfo]] = {}
    for module in index.modules:
        for scope, node in walk_scoped(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # walk_scoped's scope for a def node already ends in its name
                by_name.setdefault(node.name, []).append(DefInfo(module, scope, node))
    return by_name


def _called_names(node: ast.AST) -> Set[str]:
    """Every simple name this definition's body could be calling."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def _table_names(module: Module) -> Set[str]:
    """Every name the module's top-level statements (its tables and
    registries, not its definitions) mention or call."""
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names: Set[str] = set()
    for statement in module.tree.body:
        if not isinstance(statement, definitions):
            names |= _called_names(statement)
            names |= {n.id for n in ast.walk(statement) if isinstance(n, ast.Name)}
    return names


def reachable(
    index: ProjectIndex, entry_names: Iterable[str]
) -> List[DefInfo]:
    """Every definition reachable (by name) from the entry points.

    ``entry_names`` are simple names; all definitions carrying one of them
    are seeds.  Returns a deterministic (module path, scope) ordering."""
    by_name = collect_defs(index)
    worklist: List[DefInfo] = []
    seen: Set[int] = set()
    modules_seen: Set[str] = set()

    def push(candidates: Sequence[DefInfo]) -> None:
        for info in candidates:
            if id(info.node) not in seen:
                seen.add(id(info.node))
                worklist.append(info)

    for name in entry_names:
        push(by_name.get(name, []))

    result: List[DefInfo] = []
    while worklist:
        info = worklist.pop()
        result.append(info)
        names = _called_names(info.node)
        if info.module.path not in modules_seen:
            modules_seen.add(info.module.path)
            names |= _table_names(info.module)
        for name in names:
            push(by_name.get(name, []))
    result.sort(key=lambda i: (i.module.path, i.scope))
    return result
