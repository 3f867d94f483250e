"""Maintained DBSQL results: fold each row change into what is shown.

Paper Feature 3 (§2.2(b), Fig 2c) promises that a DBSQL region is
"immediately updated" when its table changes.  Re-running the query for
every change makes that cost a table scan per DML; most of the result did
not change.  A table emits exactly one
:class:`~repro.engine.table.ChangeEvent` ``(position, rid, row,
old_row)`` per row change — including the inverse changes a rollback or a
failed statement replays — so a region whose result is a function of the
*multiset* of rows it selects can apply each event to its current result
instead: fold ``old_row`` out, fold ``row`` in.

:func:`classify` decides, once per parsed statement, what a region can
do with an event:

* any single-table, subquery-free ``SELECT`` gets a :class:`Shape`: an
  event whose ``old_row`` and ``row`` both fail the compiled ``WHERE``
  cannot change its result;
* a *maintainable aggregate* — no ``DISTINCT``/``LIMIT``/``OFFSET``,
  every select item and the ``HAVING`` built from ``GROUP BY`` keys and
  non-``DISTINCT`` ``COUNT(*)``/``COUNT``/``SUM``/``AVG``/``MIN``/``MAX``,
  and with ``GROUP BY`` an ``ORDER BY`` that orders the groups by all
  their keys (first-seen order would differ from a re-query's) — also
  gets a :class:`GroupView` per refresh: per-group state that one event
  updates in O(1) and that renders only the groups it changed.

Everything row-level — the ``WHERE``, the keys, the aggregate arguments,
the ``HAVING`` and the select items over the group state — is compiled
with the engine's own :func:`~repro.engine.expr.compile_expression`, and
the groups are ordered with the executor's ``ORDER BY`` comparator, so
there is no second expression semantics.

Sums are exact: integers stay Python ints, and float contributions are
kept as one integer multiple of 2**-1074 (every finite double is one), so
adding and removing values in any order gives the correctly rounded sum of
the current multiset — a region never drifts under a long run of updates.
The magnitudes of the summed values are bounded too: past 2**1022 (per
kind) the executor's plain float ``+`` could overflow to ``inf`` in some
scan order where the exact sum does not, so such a group is
:class:`Unmaintainable` and the region shows the executor's result.
The state is never persisted: a region's first refresh builds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.engine import sql_ast as ast
from repro.engine.executor import sort_decorated
from repro.engine.expr import Scope, collect_aggregates, compile_expression
from repro.engine.functions import _number
from repro.engine.planner import order_by_output, output_name
from repro.engine.table import Table
from repro.engine.types import compare_values
from repro.errors import PlanError

__all__ = ["ROW_EVENTS", "Shape", "GroupView", "Unmaintainable", "classify"]

#: the event kinds that carry a row change (the rest are schema changes).
ROW_EVENTS = frozenset({"insert", "update", "delete"})

_MAINTAINED = frozenset({"count", "sum", "avg", "min", "max"})
_OPAQUE = (ast.ScalarSubquery, ast.InSubquery, ast.RangeValue, ast.Parameter)
#: every finite double is an integer multiple of 2**-_SCALE.
_SCALE = 1074
#: bound on the summed magnitudes of the int and of the float
#: contributions each: below it no partial sum, exact or plain float, can
#: reach the overflow range of a double.
_BREADTH = 1 << 1022
_SPREAD = _BREADTH << _SCALE


class Unmaintainable(Exception):
    """An event the state cannot absorb (the last holder of a group's
    MIN/MAX left, a non-finite float, a sum that may overflow): the region
    re-queries instead."""


@dataclass(frozen=True)
class Shape:
    """What :func:`classify` learns from a statement once, at install."""

    table: str
    binding: str
    where: Optional[ast.Expression]
    #: the statement, when its result is a maintainable aggregate.
    aggregate: Optional[ast.SelectStmt]

    def scope(self, table: Table) -> Scope:
        return Scope([(self.binding, name) for name in table.column_names])

    def compile_filter(self, table: Table) -> Callable[[Tuple[Any, ...]], bool]:
        """``row -> passes WHERE`` against ``table``'s current schema."""
        if self.where is None:
            return lambda row: True
        predicate = compile_expression(self.where, self.scope(table))
        return lambda row: predicate(row, ()) is True


def _opaque(expressions: Iterable[Optional[ast.Expression]]) -> bool:
    return any(
        isinstance(node, _OPAQUE)
        for expression in expressions
        if expression is not None
        for node in ast.walk_expression(expression)
    )


def classify(statement: Any) -> Optional[Shape]:
    """The :class:`Shape` of a single-table, subquery-free ``SELECT``;
    None for anything else (joins, compounds, RANGE references, ...)."""
    if not isinstance(statement, ast.SelectStmt) or not isinstance(
        statement.source, ast.TableRef
    ):
        return None
    items = [item.expression for item in statement.items]
    orders = [order.expression for order in statement.order_by]
    if _opaque(
        [*items, statement.where, *statement.group_by, statement.having, *orders,
         statement.limit, statement.offset]
    ):
        return None
    source = statement.source
    aggregate = statement if _maintainable(statement) else None
    return Shape(source.name, source.binding, statement.where, aggregate)


def _aggregate_calls(statement: ast.SelectStmt) -> List[ast.FuncCall]:
    """The aggregate calls the planner would compute, in its order."""
    calls: List[ast.FuncCall] = []
    expressions = [item.expression for item in statement.items]
    if statement.having is not None:
        expressions.append(statement.having)
    for expression in expressions:
        if isinstance(expression, ast.Star):
            continue
        for call in collect_aggregates(expression):
            if call not in calls:
                calls.append(call)
    return calls


def _maintainable(statement: ast.SelectStmt) -> bool:
    if statement.distinct or statement.limit is not None or statement.offset is not None:
        return False
    if any(isinstance(item.expression, ast.Star) for item in statement.items):
        return False
    calls = _aggregate_calls(statement)
    if not calls and not statement.group_by:
        return False
    for call in calls:
        if call.name not in _MAINTAINED or call.distinct or len(call.args) != 1:
            return False
        (argument,) = call.args
        if isinstance(argument, ast.Star):
            if call.name != "count":
                return False
        elif collect_aggregates(argument):
            return False
    keys = set(statement.group_by)
    if any(collect_aggregates(key) for key in keys):
        return False

    def keyed(expression: ast.Expression) -> bool:
        # Columns may only be read through a group key or an aggregate:
        # anything else would come from the executor's first-seen row.
        if expression in keys or expression in calls:
            return True
        if isinstance(expression, (ast.ColumnRef, ast.Star)):
            return False
        return all(keyed(child) for child in ast.expression_children(expression))

    if not all(keyed(item.expression) for item in statement.items):
        return False
    if statement.having is not None and not keyed(statement.having):
        return False
    return not statement.group_by or _order_positions(statement) is not None


def _order_positions(statement: ast.SelectStmt) -> Optional[List[Tuple[int, bool]]]:
    """``(group key index, descending)`` per ORDER BY item when the ORDER
    BY orders the groups by all their keys, resolved as the planner
    resolves it."""
    keys = list(statement.group_by)
    items = statement.items
    names = [output_name(item, index) for index, item in enumerate(items)]
    positions: List[Tuple[int, bool]] = []
    for order in statement.order_by:
        try:
            index = order_by_output(order.expression, names)
        except PlanError:
            return None
        expression = order.expression if index is None else items[index].expression
        if expression not in keys:
            return None
        positions.append((keys.index(expression), order.descending))
    if {index for index, _ in positions} != set(range(len(keys))):
        return None
    return positions


class _Argument:
    """Exact running state of one aggregate argument within one group."""

    __slots__ = (
        "count", "whole", "breadth", "scaled", "spread", "floats",
        "low", "lows", "high", "highs",
    )

    def __init__(self) -> None:
        self.count = 0  # non-NULL values
        self.whole = 0  # sum of the int contributions
        self.breadth = 0  # sum of their magnitudes
        self.scaled = 0  # sum of the float contributions, times 2**_SCALE
        self.spread = 0  # sum of their magnitudes, times 2**_SCALE
        self.floats = 0  # how many contributions were floats
        self.low: Any = None
        self.lows = 0  # values equal to ``low``
        self.high: Any = None
        self.highs = 0

    def total(self) -> Any:
        """The correctly rounded sum (an int while no float contributes)."""
        if not self.floats:
            return self.whole
        return ((self.whole << _SCALE) + self.scaled) / (1 << _SCALE)

    def average(self) -> Any:
        if not self.floats:
            return self.whole / self.count
        return ((self.whole << _SCALE) + self.scaled) / (self.count << _SCALE)

    def fold(
        self, value: Any, sign: int, summed: bool, lowest: bool, highest: bool
    ) -> None:
        """Fold one non-NULL value in (``sign`` +1) or out (-1), keeping
        the sum and only the extremes the query shows."""
        kind = type(value)
        if kind is float and not math.isfinite(value):
            raise Unmaintainable("non-finite value")
        self.count += sign
        if summed:
            number = value if kind is int or kind is float else _number(value)
            if type(number) is float:
                numerator, denominator = number.as_integer_ratio()
                scaled = numerator << (_SCALE + 1 - denominator.bit_length())
                self.scaled += sign * scaled
                self.spread += sign * abs(scaled)
                self.floats += sign
            else:
                self.whole += sign * number
                self.breadth += sign * abs(number)
            if self.breadth >= _BREADTH or self.spread >= _SPREAD:
                raise Unmaintainable("the sum may overflow a double")
        if lowest:
            self.low, self.lows = self._extreme(self.low, self.lows, value, sign, -1)
        if highest:
            self.high, self.highs = self._extreme(self.high, self.highs, value, sign, 1)

    def _extreme(
        self, best: Any, holders: int, value: Any, sign: int, better: int
    ) -> Tuple[Any, int]:
        """A running MIN (``better`` -1) or MAX (+1) and how many values
        equal it, after folding ``value``."""
        if sign > 0:
            if best is None:
                return value, 1
            order = compare_values(value, best)
            if order == better:
                return value, 1
            return best, holders + (order == 0)
        if not self.count:
            return None, 0
        if compare_values(value, best) == 0:
            holders -= 1
            if not holders:
                raise Unmaintainable("the last holder of a MIN/MAX left")
        return best, holders


class _Group:
    __slots__ = ("witness", "rows", "arguments")

    def __init__(self, witness: Tuple[Any, ...], n_arguments: int):
        #: a row of the group: the keys' expressions are evaluated on it.
        self.witness = witness
        self.rows = 0
        self.arguments = [_Argument() for _ in range(n_arguments)]


class GroupView:
    """The maintained result of one maintainable aggregate over ``table``.

    :meth:`fold` applies one row that passes the ``WHERE`` in (``sign`` +1)
    or out (-1); the groups it touched are remembered until :meth:`changes`
    renders them."""

    def __init__(self, shape: Shape, table: Table):
        statement = shape.aggregate
        assert statement is not None
        scope = shape.scope(table)
        self.keys = [compile_expression(key, scope) for key in statement.group_by]
        self.grouped = bool(statement.group_by)
        calls = _aggregate_calls(statement)
        arguments: List[ast.Expression] = []
        #: per aggregate call: (name, argument index or None for COUNT(*)).
        self.calls: List[Tuple[str, Optional[int]]] = []
        for call in calls:
            (argument,) = call.args
            index = None
            if not isinstance(argument, ast.Star):
                if argument not in arguments:
                    arguments.append(argument)
                index = arguments.index(argument)
            self.calls.append((call.name, index))
        self.n_arguments = len(arguments)
        #: per argument: (index, compiled, summed, lowest, highest).
        self.plan = [
            (
                i,
                compile_expression(argument, scope),
                ("sum", i) in self.calls or ("avg", i) in self.calls,
                ("min", i) in self.calls,
                ("max", i) in self.calls,
            )
            for i, argument in enumerate(arguments)
        ]
        # Post-aggregation expressions see the executor's widened row:
        # the group's row followed by one slot per aggregate call.
        wide = Scope(scope.columns + [(None, f"agg{i}") for i in range(len(calls))])
        slots = {call: len(scope) + i for i, call in enumerate(calls)}
        self.outputs = [
            compile_expression(item.expression, wide, slots) for item in statement.items
        ]
        self.having = (
            compile_expression(statement.having, wide, slots)
            if statement.having is not None
            else None
        )
        self.columns = [output_name(item, i) for i, item in enumerate(statement.items)]
        self.order = _order_positions(statement) or []
        self.width = len(scope)
        self.groups: Dict[Tuple[Any, ...], _Group] = {}
        if not self.grouped:
            self.groups[()] = _Group((None,) * self.width, self.n_arguments)
        #: output row of every displayed group, and the displayed order.
        self.shown: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
        self.shown_order: List[Tuple[Any, ...]] = []
        self.slot: Dict[Tuple[Any, ...], int] = {}
        #: groups folded since the last render (a dict: insertion-ordered).
        self.dirty: Dict[Tuple[Any, ...], None] = {}

    # -- folding ---------------------------------------------------------------

    def fold(self, row: Tuple[Any, ...], sign: int) -> None:
        key = tuple([fn(row, ()) for fn in self.keys])
        group = self.groups.get(key)
        if group is None:
            if sign < 0:
                raise Unmaintainable("a row left a group the view does not hold")
            group = self.groups[key] = _Group(row, self.n_arguments)
        group.rows += sign
        arguments = group.arguments
        for index, fn, summed, lowest, highest in self.plan:
            value = fn(row, ())
            if value is not None:
                arguments[index].fold(value, sign, summed, lowest, highest)
        if not group.rows and self.grouped:
            del self.groups[key]
        self.dirty[key] = None

    # -- rendering -----------------------------------------------------------------

    def _output(self, key: Tuple[Any, ...]) -> Optional[Tuple[Any, ...]]:
        """The group's result row, or None when it is gone or HAVING
        rejects it."""
        group = self.groups.get(key)
        if group is None:
            return None
        results = []
        for name, index in self.calls:
            if index is None:
                results.append(group.rows)
                continue
            argument = group.arguments[index]
            if name == "count":
                results.append(argument.count)
            elif name == "min":
                results.append(argument.low)
            elif name == "max":
                results.append(argument.high)
            elif not argument.count:
                results.append(None)
            else:
                results.append(argument.total() if name == "sum" else argument.average())
        wide = group.witness + tuple(results)
        if self.having is not None and self.having(wide, ()) is not True:
            return None
        return tuple(fn(wide, ()) for fn in self.outputs)

    def rows(self) -> List[Tuple[Any, ...]]:
        """Every displayed row, in order (a full render)."""
        self.shown = {}
        for key in self.groups:
            row = self._output(key)
            if row is not None:
                self.shown[key] = row
        self.dirty = {}
        self._sort()
        return [self.shown[key] for key in self.shown_order]

    def _sort(self) -> None:
        decorated = [
            (tuple(key[index] for index, _ in self.order), key) for key in self.shown
        ]
        sort_decorated(decorated, [descending for _, descending in self.order])
        self.shown_order = [key for _, key in decorated]
        self.slot = {key: index for index, key in enumerate(self.shown_order)}

    def changes(self) -> Optional[Dict[int, Tuple[Any, ...]]]:
        """Result rows of the groups folded since the last render, by
        displayed index — or None when a group appeared or disappeared,
        which moves the rows below it (re-render with :meth:`rows`)."""
        patched: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
        moved = False
        for key in self.dirty:
            row = self._output(key)
            if row is None:
                moved = moved or key in self.shown
            else:
                moved = moved or key not in self.shown
                patched[key] = row
        if moved:
            return None
        self.dirty = {}
        self.shown.update(patched)
        return {self.slot[key]: row for key, row in patched.items()}


def build_view(
    shape: Shape, table: Table, passes: Callable[[Tuple[Any, ...]], bool]
) -> GroupView:
    """A view over the rows of ``table`` that ``passes`` selects (raises
    :class:`Unmaintainable` when they hold a value it cannot keep)."""
    view = GroupView(shape, table)
    for _, _, row in table.scan():
        if passes(row):
            view.fold(row, 1)
    return view
