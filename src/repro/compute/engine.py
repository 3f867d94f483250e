"""The compute engine: dirty propagation + demand evaluation + lazy drain.

Wiring (kept free of circular imports): the engine talks to its *host* — in
practice :class:`repro.core.workbook.Workbook` — through the small
:class:`ComputeHost` interface.  The host stores cells; the engine decides
*when* and *in what order* formulas are (re)computed:

* an edit marks the cell's transitive dependents dirty,
* visible dirty cells are recomputed first (``recalc_visible``), the rest
  lazily in background steps (``background_step``) — paper §2.2(d,e),
* reading a dirty cell (demand evaluation) recomputes it on the spot, so
  results are always consistent regardless of scheduling,
* cycles render ``#CIRC!`` into every participating cell.

Everything in here is **physical**: a :data:`CellKey` is ``(sheet, row key,
col key)`` over the sheet's positional mappers; ``_formulas`` — the only
stored form of a formula — maps such a key to a parsed AST whose references
are bound to such keys; the scheduler's dirty set holds such keys.  The
host translates logical addresses in and positions out
(``ComputeHost.locate``); the engine only asks it for a sheet's mappers
(``ComputeHost.axes``) to lay a bound range out in its current logical
order.  Inserting or deleting rows and columns therefore changes no
formula, edge or dirty mark: :meth:`ComputeEngine.rekey_formulas`
re-buckets the range subscriptions that reach the edit and reports the
formulas a delete left pointing at a freed key — work proportional to
those, not to the sheet.

``ComputeStats.evaluations`` counts formula executions — the metric E7 uses
to show that time-to-visible work is proportional to the window, not to the
sheet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.compute.graph import CellKey, DependencyGraph
from repro.compute.scheduler import RecalcScheduler
from repro.core.address import CellAddress, RangeAddress
from repro.errors import CircularDependencyError, FormulaEvalError
from repro.formula.dependency import extract_dependencies
from repro.formula.evaluator import EvalContext, RangeValues, evaluate_formula
from repro.formula.nodes import FormulaNode
from repro.formula.parser import parse_formula
from repro.obs.counters import Counters

__all__ = ["ComputeHost", "ComputeEngine", "ComputeStats"]


class ComputeHost:
    """Callbacks the engine needs from the spreadsheet layer."""

    def read_value(self, key: CellKey) -> Any:
        raise NotImplementedError

    def write_value(self, key: CellKey, value: Any) -> None:
        raise NotImplementedError

    def write_error(self, key: CellKey, code: str) -> None:
        raise NotImplementedError

    def call_extension(self, name: str, args: List[Any], at: CellKey) -> Any:
        raise FormulaEvalError(f"unknown function {name}", "#NAME?")

    def locate(self, key: CellKey) -> Optional[Tuple[int, int]]:
        """Current logical (row, col) of a key; ``None`` once a delete
        freed it.  The identity for a host without structural edits."""
        return key[1], key[2]

    def axes(self, sheet: str) -> Optional[Tuple[Any, Any]]:
        """The sheet's (row, column) positional mappers; ``None`` where
        keys are positions (no such sheet, a host without structural
        edits)."""
        return None


@dataclass
class ComputeStats(Counters):
    evaluations: int = 0
    demand_evaluations: int = 0
    scheduled_evaluations: int = 0
    errors: int = 0
    cycles: int = 0
    #: formula installs via register_formula: one per formula set or
    #: restored, and one per range a structural delete clamped.
    reparses: int = 0
    #: entries a structural edit looked at — range subscriptions reaching
    #: the edit, formulas on or referencing a deleted key.  The logical-work
    #: metric showing a splice does not depend on the size of the sheet.
    splice_touched: int = 0


class _EngineEvalContext(EvalContext):
    """Resolves bound references by demanding values from the engine."""

    def __init__(self, engine: "ComputeEngine", base_sheet: str, at: CellKey):
        self._engine = engine
        self._base_sheet = base_sheet
        self._at = at

    def cell_value(self, address: CellAddress) -> Any:
        sheet = address.sheet or self._base_sheet
        return self._engine.demand_value((sheet, address.row, address.col))

    def range_values(self, reference: RangeAddress) -> RangeValues:
        sheet = reference.sheet or self._base_sheet
        demand = self._engine.demand_value
        row_keys, col_keys = self._engine.keys_between(sheet, reference)
        col_keys = list(col_keys)
        return RangeValues(
            [[demand((sheet, row, col)) for col in col_keys] for row in row_keys]
        )

    def call_extension(self, name: str, args: List[Any]) -> Any:
        return self._engine.host.call_extension(name, args, self._at)


class ComputeEngine:
    """Owns the dependency graph, the scheduler, and evaluation."""

    def __init__(self, host: ComputeHost, eager: bool = True):
        self.host = host
        self.graph = DependencyGraph(host.locate)
        self.scheduler = RecalcScheduler()
        self.stats = ComputeStats()
        self.eager = eager
        self._formulas: Dict[CellKey, FormulaNode] = {}
        self._eval_stack: List[CellKey] = []

    def keys_between(
        self, sheet: str, reference: RangeAddress
    ) -> Tuple[Iterable[int], Iterable[int]]:
        """The row keys and the column keys a bound range spans right now,
        each in logical order (``mapper.keys`` walks ``mapper.intervals``)."""
        start, end = reference.start, reference.end
        axes = self.host.axes(sheet)
        if axes is None:
            return range(start.row, end.row + 1), range(start.col, end.col + 1)
        spans = []
        for mapper, lo_key, hi_key in (
            (axes[0], start.row, end.row),
            (axes[1], start.col, end.col),
        ):
            if mapper.pristine:
                spans.append(range(lo_key, hi_key + 1))
                continue
            lo, hi = mapper.position_of(lo_key), mapper.position_of(hi_key)
            if lo is None or hi is None:
                raise FormulaEvalError("range corner was deleted", "#REF!")
            spans.append(mapper.keys(lo, hi))
        return spans[0], spans[1]

    # -- formula registration ------------------------------------------------

    def register_formula(self, key: CellKey, formula: Union[str, FormulaNode]) -> None:
        """Install (or replace) a formula at ``key`` and schedule it.

        ``formula`` is a bound AST.  Text is parsed as is, which binds it
        only where keys are positions; it raises
        :class:`FormulaSyntaxError` on parse failure.  Renders ``#CIRC!``
        if the new edge set closes a cycle.
        """
        node = parse_formula(formula) if isinstance(formula, str) else formula
        self.stats.reparses += 1
        precedents = extract_dependencies(node, base_sheet=key[0])
        self._formulas[key] = node
        self.graph.set_dependencies(key, precedents.cells, precedents.ranges)
        self.scheduler.mark_dirty(key)
        self._mark_dependents_dirty(key)
        if self.eager and not self._eval_stack:
            self.drain()

    def unregister_formula(self, key: CellKey) -> None:
        self._formulas.pop(key, None)
        self.graph.clear_dependencies(key)
        self.scheduler.discard(key)

    def has_formula(self, key: CellKey) -> bool:
        return key in self._formulas

    @property
    def n_formulas(self) -> int:
        return len(self._formulas)

    # -- structural-edit support ---------------------------------------------

    def rekey_formulas(
        self,
        sheet: str,
        axis: str,
        at: int,
        freed: List[Tuple[int, int]],
        dropped: Iterable[CellKey],
    ) -> Set[CellKey]:
        """The single splice entry point: rows (``axis='row'``) or columns
        of ``sheet`` were inserted or deleted at ``at``; ``freed`` are the
        key intervals a delete released and ``dropped`` the keys of the
        cells that lived on them.

        No formula, cell edge or dirty mark is keyed by position, so none
        moves.  Formulas on a dropped cell are forgotten (their readers
        scheduled); the range subscriptions reaching the edit are
        re-bucketed and the readers of those that gained or lost rows
        scheduled.  Returns the formulas still holding a reference to a
        freed key — a cell reference or a range corner — for the host to
        re-bind or turn into ``#REF!``.  Nothing is recomputed here."""
        for key in dropped:
            if key in self._formulas:
                self.stats.splice_touched += 1
                self.drop_formula(key)
        stale = self.graph.readers_of_keys(sheet, axis, freed) if freed else set()
        resized, broken, touched = self.graph.resubscribe(sheet, axis, at)
        self.stats.splice_touched += touched + len(stale)
        stale.update(sub.dependent for sub in broken)
        for sub in resized:
            if sub.dependent not in stale:
                self.invalidate_formula(sub.dependent)
        return stale

    def invalidate_formula(self, key: CellKey) -> None:
        """Schedule ``key`` (and its transitive dependents) without
        re-registering — used when a formula's *inputs* changed under an
        untouched tree (a range that gained or lost rows, a DBSQL anchor
        whose SQL-level precedent shifted)."""
        if key in self._formulas:
            self.scheduler.mark_dirty(key)
        self._mark_dependents_dirty(key)

    def drop_formula(self, key: CellKey) -> None:
        """Unregister ``key`` after marking its dependents dirty — the
        structural-edit path for formulas whose cell was deleted (or whose
        references died): readers of the now-#REF! cell must recompute."""
        self._mark_dependents_dirty(key)
        self.unregister_formula(key)

    # -- change notification ------------------------------------------------------

    def on_value_changed(self, key: CellKey) -> None:
        """A plain value was edited: schedule every transitive dependent.

        Re-entrancy guard: when called from inside an evaluation (e.g. a
        DBSQL spill writing result cells), the dependents are only marked —
        the outer drain loop picks them up."""
        self._mark_dependents_dirty(key)
        if self.eager and not self._eval_stack:
            self.drain()

    def on_values_changed(self, keys: Iterable[CellKey]) -> None:
        for key in keys:
            self._mark_dependents_dirty(key)
        if self.eager and not self._eval_stack:
            self.drain()

    def _mark_dependents_dirty(self, key: CellKey) -> None:
        for dependent in self.graph.all_dependents([key]):
            if dependent in self._formulas:
                self.scheduler.mark_dirty(dependent)

    # -- evaluation ----------------------------------------------------------------

    def demand_value(self, key: CellKey) -> Any:
        """Value of a cell, recomputing first if it is a dirty formula."""
        if key in self._formulas:
            if key in self._eval_stack:
                # Demanding a cell that is currently being evaluated: the
                # chain closed on itself.  _evaluate raises and renders
                # #CIRC! into every cycle member.
                self._evaluate(key)
            if self.scheduler.is_dirty(key):
                self.stats.demand_evaluations += 1
                self._evaluate(key)
                self.scheduler.discard(key)
        return self.host.read_value(key)

    def _evaluate(self, key: CellKey) -> None:
        if key in self._eval_stack:
            cycle = self._eval_stack[self._eval_stack.index(key):]
            self.stats.cycles += 1
            for member in cycle:
                self.host.write_error(member, "#CIRC!")
                self.scheduler.discard(member)
            raise CircularDependencyError(
                " -> ".join(f"{s}!({r},{c})" for s, r, c in cycle + [key])
            )
        node = self._formulas.get(key)
        if node is None:
            return
        self._eval_stack.append(key)
        try:
            context = _EngineEvalContext(self, key[0], key)
            value = evaluate_formula(node, context)
            if isinstance(value, RangeValues):
                # A bare range formula displays its single value or #VALUE!.
                if value.n_rows == 1 and value.n_cols == 1:
                    value = value.grid[0][0]
                else:
                    raise FormulaEvalError("range result in a single cell")
            self.host.write_value(key, value)
            self.stats.evaluations += 1
        except CircularDependencyError:
            raise
        except FormulaEvalError as error:
            self.stats.errors += 1
            self.host.write_error(key, error.code)
        finally:
            self._eval_stack.pop()

    def _evaluate_scheduled(self, key: CellKey) -> None:
        self.stats.scheduled_evaluations += 1
        try:
            self._evaluate(key)
        except CircularDependencyError:
            pass  # cells already marked #CIRC!

    # -- scheduling modes -----------------------------------------------------------

    def set_visible_predicate(self, predicate) -> None:
        """``predicate`` sees this engine's physical keys (the workbook
        wraps a viewport's logical one before handing it down)."""
        self.scheduler.set_visible_predicate(predicate)

    def recalc_visible(self) -> int:
        """Drain only the visible dirty cells; returns count computed."""
        computed = 0
        while True:
            key = self.scheduler.pop_visible()
            if key is None:
                return computed
            self._evaluate_scheduled(key)
            computed += 1

    def background_step(self, budget: int = 32) -> int:
        """Compute up to ``budget`` pending cells (visible first); returns
        count computed.  This is the 'async' slice a UI thread would run
        between interactions (paper §2.2(e))."""
        computed = 0
        while computed < budget:
            key = self.scheduler.pop()
            if key is None:
                break
            self._evaluate_scheduled(key)
            computed += 1
        return computed

    def drain(self) -> int:
        """Compute everything pending (eager mode)."""
        computed = 0
        while True:
            key = self.scheduler.pop()
            if key is None:
                return computed
            self._evaluate_scheduled(key)
            computed += 1

    @property
    def pending(self) -> int:
        return self.scheduler.pending
