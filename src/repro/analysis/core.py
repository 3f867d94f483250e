"""Framework for the engine-invariant static checkers.

Zero-dependency, AST-based: a :class:`ProjectIndex` parses every ``.py``
file under the requested paths once, each registered checker walks the
shared index and returns :class:`Diagnostic` records with a stable
``RC0xx`` code.  Diagnostics are keyed by ``(code, path, symbol)`` — the
*symbol* is a line-independent fingerprint (enclosing scope + offending
construct) so a committed baseline survives unrelated edits that shift
line numbers.

Checkers live in :mod:`repro.analysis.checkers`; the baseline workflow in
:mod:`repro.analysis.baseline`; the CLI in ``python -m repro.analysis``.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Diagnostic",
    "Module",
    "ProjectIndex",
    "register",
    "registered_checkers",
    "run_checks",
    "analyze_paths",
    "walk_scoped",
    "own_nodes",
]


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a location, and a baseline fingerprint."""

    code: str     # "RC001" .. "RC007"
    path: str     # path relative to the analysis root, forward slashes
    line: int     # 1-based line of the offending node
    symbol: str   # line-independent fingerprint (scope:construct)
    message: str

    @property
    def key(self) -> str:
        """The baseline identity — deliberately excludes the line number."""
        return f"{self.code}\t{self.path}\t{self.symbol}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


@dataclass
class Module:
    """One parsed source file."""

    path: str        # display path (relative to the analysis root)
    name: str        # dotted module name, best-effort (fixtures get the stem)
    tree: ast.Module


class ProjectIndex:
    """Every module of one analysis run, parsed once and shared."""

    def __init__(self, modules: Sequence[Module]):
        self.modules: List[Module] = list(modules)
        self.by_name: Dict[str, Module] = {m.name: m for m in self.modules}

    @classmethod
    def load(cls, paths: Sequence[str], root: Optional[str] = None) -> "ProjectIndex":
        """Parse every ``.py`` file under ``paths`` (files or directories).

        ``root`` anchors the display paths (defaults to the current
        directory) so baseline keys are stable no matter where the caller
        sits relative to the files."""
        base = os.path.abspath(root) if root else os.getcwd()
        files: List[str] = []
        for path in paths:
            full = os.path.abspath(path)
            if os.path.isfile(full):
                files.append(full)
                continue
            for dirpath, dirnames, filenames in os.walk(full):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        files.append(os.path.join(dirpath, filename))
        modules = []
        for filename in files:
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
            try:
                tree = ast.parse(source, filename=filename)
            except SyntaxError:
                continue  # not our job; the interpreter will complain
            display = os.path.relpath(filename, base)
            if display.startswith(".."):
                display = filename
            modules.append(
                Module(display.replace(os.sep, "/"), _module_name(filename), tree)
            )
        return cls(modules)


def _module_name(filename: str) -> str:
    """Dotted module name by walking up through ``__init__.py`` packages."""
    directory, basename = os.path.split(os.path.abspath(filename))
    parts = [] if basename == "__init__.py" else [basename[:-3]]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.insert(0, package)
    return ".".join(parts) if parts else os.path.splitext(basename)[0]


# ---------------------------------------------------------------------------
# AST walking helpers shared by the checkers
# ---------------------------------------------------------------------------

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def walk_scoped(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(scope, node)`` for every node, where ``scope`` is the
    dotted chain of enclosing class/function names ('' at module level)."""

    def visit(node: ast.AST, scope: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                inner = f"{scope}.{child.name}" if scope else child.name
                yield inner, child
                yield from visit(child, inner)
            else:
                yield scope, child
                yield from visit(child, scope)

    yield from visit(tree, "")


def own_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested function or
    class definitions (those are separate scopes with their own rules)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPE_NODES):
            continue
        yield child
        yield from own_nodes(child)


# ---------------------------------------------------------------------------
# Checker registry
# ---------------------------------------------------------------------------

CheckerFn = Callable[[ProjectIndex], List[Diagnostic]]

_REGISTRY: Dict[str, Tuple[str, CheckerFn]] = {}


def register(code: str, title: str) -> Callable[[CheckerFn], CheckerFn]:
    """Class decorator-style registration: ``@register("RC001", "...")``."""

    def wrap(fn: CheckerFn) -> CheckerFn:
        _REGISTRY[code] = (title, fn)
        return fn

    return wrap


def registered_checkers() -> Dict[str, Tuple[str, CheckerFn]]:
    import repro.analysis.checkers  # noqa: F401  (registration side effect)

    return dict(sorted(_REGISTRY.items()))


def run_checks(
    index: ProjectIndex, codes: Optional[Iterable[str]] = None
) -> List[Diagnostic]:
    wanted: Optional[Set[str]] = set(codes) if codes is not None else None
    out: List[Diagnostic] = []
    for code, (_, fn) in registered_checkers().items():
        if wanted is not None and code not in wanted:
            continue
        out.extend(fn(index))
    out.sort(key=lambda d: (d.path, d.line, d.code, d.symbol))
    return out


def analyze_paths(
    paths: Sequence[str],
    codes: Optional[Iterable[str]] = None,
    root: Optional[str] = None,
) -> List[Diagnostic]:
    """Parse ``paths`` and run the (optionally filtered) checkers."""
    return run_checks(ProjectIndex.load(paths, root=root), codes)
