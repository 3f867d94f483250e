"""The RC0xx checkers — one engine invariant each.

=======  ====================================================================
code     invariant
=======  ====================================================================
RC001    WAL replay / recovery / snapshot-restore call paths must be
         deterministic: no wall clock, no unseeded randomness, no iteration
         over unordered sets (call-graph walk from the recovery entry
         points).
RC005    No swallowed exceptions: an ``except Exception:`` / bare
         ``except:`` handler must re-raise or record a structured EventLog
         entry.
RC007    Lock discipline: in a class that owns a mutation lock, methods
         mutating the guarded shared structures (``_groups`` and a group
         record's ``.chain`` / ``.rid_page``, ``_frames``, ``_pins``) must
         take the lock
         (``with self._mutation_lock`` / ``with self._lock`` /
         ``with ....mutation_lock``) or declare the caller-holds-lock
         contract in their docstring (``__init__`` is exempt — the
         object is not yet shared).
=======  ====================================================================

Codes are never reused.  The gaps in the numbering are retired checks
whose invariants now hold by construction, each pinned by a test in
``tests/test_analysis.py`` where a test is needed:

* RC002, pager discipline: the buffer pool's disk is private
  (``BufferPool._disk``), and an allow-list test pins that no module
  but ``pager.py`` names it, so page I/O cannot bypass the per-group
  tag accounting;
* RC003, op-registry completeness: the op vocabulary is one table,
  ``OPS`` in ``repro.server.service``;
* RC004, metrics-collector drift: counter structs derive from
  :class:`repro.obs.counters.Counters` and collectors export them with
  ``.metrics(prefix)``, so a collector cannot name a counter that does
  not exist;
* RC006, frozen-group mutation: an encoded page's rows live only in its
  codec payload, and the store's page helpers that assign ``.records``
  get their page from ``_new_page`` or the copy-on-write gate and thaw
  it first — an allow-list test pins that set.
"""
from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analysis.callgraph import reachable
from repro.analysis.core import (
    Diagnostic,
    ProjectIndex,
    own_nodes,
    register,
    walk_scoped,
)

__all__ = ["REPLAY_ENTRY_POINTS"]


# ---------------------------------------------------------------------------
# RC001 — replay determinism
# ---------------------------------------------------------------------------

#: Recovery/replay roots: every definition carrying one of these names
#: seeds the call-graph walk.
REPLAY_ENTRY_POINTS = (
    "recover_state",      # service: snapshot + committed WAL suffix
    "apply_op",           # service: the replay interpreter
    "read_wal",           # wal: record scan
    "committed_ops",      # wal: the replay rule
    "load_workbook",      # persist + SnapshotStore.load_workbook
    "workbook_from_dict", # persist: snapshot restore
    "restore_group_io",   # store: snapshot restore of per-group I/O
)

#: ``module.attr`` calls that read the environment nondeterministically.
_NONDET_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("os", "urandom"),
    ("os", "getpid"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}


def _nondet_call(call: ast.Call) -> Optional[str]:
    """The dotted name of a nondeterministic call, or None."""
    func = call.func
    if not isinstance(func, ast.Attribute) or not isinstance(func.value, ast.Name):
        return None
    base, attr = func.value.id, func.attr
    if (base, attr) in _NONDET_CALLS:
        return f"{base}.{attr}"
    if base == "random":
        if attr != "Random":
            return f"random.{attr}"
        if not call.args and not call.keywords:
            return "random.Random()"  # unseeded; a seeded Random is deterministic
    return None


def _unordered_iteration(node: ast.For) -> bool:
    """Iterating a set display / comprehension / bare ``set(...)`` call —
    the textbook hash-order dependence (``sorted(...)`` wrappers pass)."""
    source = node.iter
    if isinstance(source, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(source, ast.Call)
        and isinstance(source.func, ast.Name)
        and source.func.id in ("set", "frozenset")
    )


@register("RC001", "replay determinism")
def check_replay_determinism(index: ProjectIndex) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for info in reachable(index, REPLAY_ENTRY_POINTS):
        for node in own_nodes(info.node):
            if isinstance(node, ast.Call):
                name = _nondet_call(node)
                if name is not None:
                    out.append(
                        Diagnostic(
                            "RC001",
                            info.module.path,
                            node.lineno,
                            f"{info.scope}:{name}",
                            f"{name}() in {info.scope}, reachable from a "
                            "replay entry point — recovery must be "
                            "deterministic",
                        )
                    )
            elif isinstance(node, ast.For) and _unordered_iteration(node):
                out.append(
                    Diagnostic(
                        "RC001",
                        info.module.path,
                        node.lineno,
                        f"{info.scope}:set-iteration",
                        f"iteration over an unordered set in {info.scope}, "
                        "reachable from a replay entry point — wrap in "
                        "sorted() for a stable order",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# RC005 — exception swallowing
# ---------------------------------------------------------------------------


def _is_broad(handler: ast.ExceptHandler) -> Optional[str]:
    """The caught-too-much name ('', 'Exception', 'BaseException')."""
    if handler.type is None:
        return "bare except"
    names = []
    if isinstance(handler.type, ast.Name):
        names = [handler.type.id]
    elif isinstance(handler.type, ast.Tuple):
        names = [e.id for e in handler.type.elts if isinstance(e, ast.Name)]
    for name in names:
        if name in ("Exception", "BaseException"):
            return f"except {name}"
    return None


@register("RC005", "exception swallowing")
def check_exception_swallowing(index: ProjectIndex) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for module in index.modules:
        counters: Dict[str, int] = {}
        for scope, node in walk_scoped(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = _is_broad(node)
            if caught is None:
                continue
            reraises = records = False
            for child in node.body:
                for sub in [child, *own_nodes(child)]:
                    if isinstance(sub, ast.Raise):
                        reraises = True
                    elif (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "record"
                    ):
                        records = True
            if reraises or records:
                continue
            where = scope or "<module>"
            index_in_scope = counters.get(where, 0)
            counters[where] = index_in_scope + 1
            out.append(
                Diagnostic(
                    "RC005",
                    module.path,
                    node.lineno,
                    f"{where}:handler{index_in_scope}",
                    f"{caught} in {where} neither re-raises nor records an "
                    "EventLog entry — the failure vanishes",
                )
            )
    return out


# ---------------------------------------------------------------------------
# RC007 — lock discipline
# ---------------------------------------------------------------------------

#: List methods that mutate their receiver in place.
_MUTATORS = ("append", "extend", "insert", "remove", "pop", "clear", "sort")

#: Shared structures the HTAP refactor guards with a mutation lock:
#: the store's group records, buffer-pool frames and pins.
_GUARDED_ATTRS = ("_groups", "_frames", "_pins")

#: A group record's page chain and rid directory, guarded wherever they
#: are reached: through ``self._groups[i]`` or a local bound to a record.
_RECORD_ATTRS = ("chain", "rid_page")

#: Lock attribute names a class may own.
_LOCK_NAMES = ("_mutation_lock", "_lock")

#: Docstring phrases that declare the caller-holds-the-lock contract.
_LOCK_CONTRACTS = ("mutation lock", "lock held", "caller holds")


def _guarded_attr(node: ast.expr) -> Optional[str]:
    """The guarded structure ``node`` reaches (directly or as subscript
    base), else None: ``self.<guarded>``, or a record's ``.chain`` /
    ``.rid_page`` reached from ``self._groups[...]`` or a local."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    if isinstance(base, ast.Name) and base.id == "self":
        return node.attr if node.attr in _GUARDED_ATTRS else None
    if node.attr in _RECORD_ATTRS and (
        isinstance(base, ast.Name) or _guarded_attr(base) == "_groups"
    ):
        return node.attr
    return None


def _mutates_guarded(node: ast.AST) -> Optional[str]:
    """The guarded attribute this statement/expression mutates, or None.

    Covers rebinds and item assignment (``self._groups[i] = ...``,
    ``group.chain = ...``), augmented assignment, ``del
    self._frames[...]``, and mutator method calls on the structure or an
    item of it (``self._groups[i].chain.append(...)``,
    ``self._pins.pop(...)``)."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            attr = _guarded_attr(target)
            if attr is not None:
                return attr
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            attr = _guarded_attr(target)
            if attr is not None:
                return attr
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in (*_MUTATORS, "popitem", "setdefault", "update"):
            return _guarded_attr(node.func.value)
    return None


def _takes_lock(method: ast.AST) -> bool:
    """True when the method body contains ``with <lock>`` over one of the
    owned lock names or any ``...mutation_lock`` attribute (e.g. the
    table layer's ``with self.store.mutation_lock``)."""
    for node in ast.walk(method):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Attribute) and (
                expr.attr in _LOCK_NAMES or expr.attr.endswith("mutation_lock")
            ):
                return True
    return False


def _declares_lock_contract(method: ast.AST) -> bool:
    doc = ast.get_docstring(method) or ""
    lowered = doc.lower()
    return any(phrase in lowered for phrase in _LOCK_CONTRACTS)


@register("RC007", "lock discipline")
def check_lock_discipline(index: ProjectIndex) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for module in index.modules:
        for _, node in walk_scoped(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = [
                item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            owns_lock = any(
                isinstance(sub, ast.Assign)
                and any(
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr in _LOCK_NAMES
                    for target in sub.targets
                )
                for method in methods
                for sub in ast.walk(method)
            )
            if not owns_lock:
                continue
            for method in methods:
                if method.name == "__init__":
                    continue  # not shared yet; also where the lock is born
                mutated: Optional[str] = None
                lineno = method.lineno
                for sub in ast.walk(method):
                    attr = _mutates_guarded(sub)
                    if attr is not None:
                        mutated = attr
                        lineno = getattr(sub, "lineno", method.lineno)
                        break
                if mutated is None:
                    continue
                if _takes_lock(method) or _declares_lock_contract(method):
                    continue
                target = (
                    f"self.{mutated}"
                    if mutated in _GUARDED_ATTRS
                    else f"a group record's .{mutated}"
                )
                out.append(
                    Diagnostic(
                        "RC007",
                        module.path,
                        lineno,
                        f"{node.name}.{method.name}:{mutated}",
                        f"{node.name}.{method.name} mutates {target} "
                        "without taking the mutation lock or declaring the "
                        "caller-holds-lock contract in its docstring — a "
                        "concurrent snapshot scan or maintenance beat could "
                        "observe the structure mid-update",
                    )
                )
    return out
