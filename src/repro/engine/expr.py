"""Expression compilation and evaluation.

Expressions are compiled once per query into Python closures operating on
flat row tuples; the executor then calls the closure per row.  NULL follows
SQL three-valued logic: comparisons with NULL yield UNKNOWN (``None``),
``AND``/``OR`` use Kleene logic, and a WHERE clause keeps a row only when
its predicate is exactly ``True``.

A :class:`Scope` maps qualified/unqualified column names to row-tuple
indexes, detecting ambiguity ("which ``id`` did you mean?") at compile time
— the error PostgreSQL would raise.

Aggregate calls are *not* evaluated here; the executor pre-computes each
aggregate per group and supplies the values via ``agg_values`` keyed by the
AST node (frozen dataclasses hash structurally, so equal aggregate
expressions share one accumulator).
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import sql_ast as ast
from repro.engine.functions import SCALAR_FUNCTIONS
from repro.engine.types import DBType, coerce_value, compare_values
from repro.errors import ExecutionError, PlanError

__all__ = [
    "Scope",
    "compile_expression",
    "compile_batch_predicate",
    "collect_aggregates",
    "expression_is_constant",
    "IntervalSet",
    "extract_sargable_ranges",
    "UNKNOWN_BOUND",
]

RowFn = Callable[[Tuple[Any, ...], Sequence[Any]], Any]

#: ``fn(columns, params, n) -> values`` over rid-aligned column lists;
#: the result list is the selection vector (keep rows where it is True).
BatchFn = Callable[[Sequence[List[Any]], Sequence[Any], int], List[Any]]


class Scope:
    """Column-name → row-index resolution for one plan node's output."""

    def __init__(self, columns: Sequence[Tuple[Optional[str], str]]):
        """``columns``: ordered ``(binding, column_name)`` pairs; binding is
        the table alias (or None for anonymous/derived columns)."""
        self.columns = [
            ((binding.lower() if binding else None), name.lower())
            for binding, name in columns
        ]

    def __len__(self) -> int:
        return len(self.columns)

    def resolve(self, name: str, table: Optional[str] = None) -> int:
        name_l = name.lower()
        table_l = table.lower() if table else None
        matches = [
            index
            for index, (binding, column) in enumerate(self.columns)
            if column == name_l and (table_l is None or binding == table_l)
        ]
        if not matches:
            qualified = f"{table}.{name}" if table else name
            raise PlanError(f"no such column {qualified!r}")
        if len(matches) > 1:
            raise PlanError(f"ambiguous column reference {name!r}")
        return matches[0]

    def indexes_of_binding(self, binding: str) -> List[int]:
        binding_l = binding.lower()
        return [
            index
            for index, (owner, _) in enumerate(self.columns)
            if owner == binding_l
        ]

    def merged_with(self, other: "Scope") -> "Scope":
        merged = Scope([])
        merged.columns = self.columns + other.columns
        return merged


def _like_to_regex(pattern: str) -> "re.Pattern":
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE | re.DOTALL)


def _truncate(value: Any) -> int:
    """SQLite's REAL → INTEGER cast: toward zero, saturating at the 64-bit
    ends, NaN as 0.  TEXT raises ``TypeError``, as Python arithmetic does."""
    if isinstance(value, int):
        return value
    if value != value:
        return 0
    return int(max(-(2 ** 63), min(2 ** 63 - 1, value)))


def _arith(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if isinstance(left, bool):
        left = int(left)
    if isinstance(right, bool):
        right = int(right)
    try:
        if op == "+":
            result = left + right
        elif op == "-":
            result = left - right
        elif op == "*":
            result = left * right
        elif op == "/":
            if right == 0:
                return None  # sqlite semantics: x/0 is NULL
            if isinstance(left, int) and isinstance(right, int):
                # SQLite: INTEGER / INTEGER truncates toward zero, exactly.
                quotient = abs(left) // abs(right)
                return -quotient if (left < 0) != (right < 0) else quotient
            result = left / right
        elif op == "%":
            # SQLite: both sides truncate to integers, the remainder takes
            # the dividend's sign, and a REAL operand makes it REAL.
            dividend, divisor = _truncate(left), _truncate(right)
            if divisor == 0:
                return None
            result = abs(dividend) % abs(divisor) * (-1 if dividend < 0 else 1)
            return float(result) if float in (type(left), type(right)) else result
        else:
            raise ExecutionError(f"unknown arithmetic operator {op!r}")
    except TypeError:
        raise ExecutionError(
            f"operator {op!r} not applicable to {left!r} and {right!r}"
        ) from None
    # SQLite has no NaN: inf - inf, inf * 0 and inf / inf are NULL there,
    # as a stored NaN already is here.
    return None if result != result else result


_COMPARISONS = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c == -1,
    "<=": lambda c: c in (-1, 0),
    ">": lambda c: c == 1,
    ">=": lambda c: c in (0, 1),
}


def collect_aggregates(expression: ast.Expression) -> List[ast.FuncCall]:
    """All aggregate FuncCall nodes in an expression (deduplicated,
    preserving first-seen order)."""
    seen: Dict[ast.FuncCall, None] = {}
    for node in ast.walk_expression(expression):
        if isinstance(node, ast.FuncCall) and node.is_aggregate and _is_aggregate_form(node):
            seen.setdefault(node)
    return list(seen)


def _is_aggregate_form(call: ast.FuncCall) -> bool:
    """``min(a)``/``max(a)`` with one argument aggregate; with two or more
    they are the scalar GREATEST/LEAST-style functions."""
    if call.name in ("min", "max") and len(call.args) != 1:
        return False
    return True


def expression_is_constant(expression: ast.Expression) -> bool:
    """True when the expression references no columns (safe to fold)."""
    for node in ast.walk_expression(expression):
        if isinstance(node, (ast.ColumnRef, ast.Star)):
            return False
        if isinstance(node, (ast.ScalarSubquery, ast.InSubquery)):
            return False
    return True


def compile_expression(
    expression: ast.Expression,
    scope: Scope,
    agg_values: Optional[Dict[ast.FuncCall, int]] = None,
    subquery_runner: Optional[Callable[[ast.SelectStmt], List[Tuple[Any, ...]]]] = None,
    range_resolver: Optional[Callable[[str], Any]] = None,
) -> RowFn:
    """Compile to a ``fn(row, params) -> value`` closure.

    ``agg_values`` maps aggregate AST nodes to *row indexes* holding their
    pre-computed per-group results (the executor appends them to the group
    row).  ``subquery_runner`` executes uncorrelated subselects (memoised
    here).  ``range_resolver`` resolves any ``RANGEVALUE`` that survived to
    execution (normally the DataSpread layer substitutes them earlier).
    """

    def compile_node(node: ast.Expression) -> RowFn:
        if agg_values is not None and isinstance(node, ast.FuncCall) and node in agg_values:
            index = agg_values[node]
            return lambda row, params: row[index]

        if isinstance(node, ast.Literal):
            value = node.value
            return lambda row, params: value

        if isinstance(node, ast.Parameter):
            index = node.index
            def param_fn(row, params):
                if index >= len(params):
                    raise ExecutionError(
                        f"statement uses parameter ?{index + 1} but only "
                        f"{len(params)} values were bound"
                    )
                return params[index]
            return param_fn

        if isinstance(node, ast.ColumnRef):
            index = scope.resolve(node.name, node.table)
            return lambda row, params: row[index]

        if isinstance(node, ast.Star):
            raise PlanError("'*' is only valid in a select list or COUNT(*)")

        if isinstance(node, ast.RangeValue):
            if range_resolver is None:
                raise PlanError(
                    "RANGEVALUE used outside a spreadsheet context "
                    f"({node.reference!r})"
                )
            value = range_resolver(node.reference)
            return lambda row, params: value

        if isinstance(node, ast.UnaryOp):
            operand = compile_node(node.operand)
            if node.op == "NOT":
                def not_fn(row, params):
                    value = operand(row, params)
                    if value is None:
                        return None
                    return not _truthy(value)
                return not_fn
            if node.op == "-":
                def neg_fn(row, params):
                    value = operand(row, params)
                    return None if value is None else -value
                return neg_fn
            return operand  # unary +

        if isinstance(node, ast.BinaryOp):
            left = compile_node(node.left)
            right = compile_node(node.right)
            op = node.op
            if op == "AND":
                def and_fn(row, params):
                    lhs = left(row, params)
                    if lhs is not None and not _truthy(lhs):
                        return False
                    rhs = right(row, params)
                    if rhs is not None and not _truthy(rhs):
                        return False
                    if lhs is None or rhs is None:
                        return None
                    return True
                return and_fn
            if op == "OR":
                def or_fn(row, params):
                    lhs = left(row, params)
                    if lhs is not None and _truthy(lhs):
                        return True
                    rhs = right(row, params)
                    if rhs is not None and _truthy(rhs):
                        return True
                    if lhs is None or rhs is None:
                        return None
                    return False
                return or_fn
            if op == "||":
                def concat_fn(row, params):
                    lhs = left(row, params)
                    rhs = right(row, params)
                    if lhs is None or rhs is None:
                        return None
                    return coerce_value(lhs, DBType.TEXT) + coerce_value(rhs, DBType.TEXT)
                return concat_fn
            if op in _COMPARISONS:
                check = _COMPARISONS[op]
                def cmp_fn(row, params):
                    ordering = compare_values(left(row, params), right(row, params))
                    if ordering is None:
                        return None
                    return check(ordering)
                return cmp_fn
            return lambda row, params: _arith(op, left(row, params), right(row, params))

        if isinstance(node, ast.IsNull):
            operand = compile_node(node.operand)
            if node.negated:
                return lambda row, params: operand(row, params) is not None
            return lambda row, params: operand(row, params) is None

        if isinstance(node, ast.InList):
            operand = compile_node(node.operand)
            items = [compile_node(item) for item in node.items]
            negated = node.negated
            def in_fn(row, params):
                value = operand(row, params)
                if value is None:
                    return None
                saw_null = False
                for item in items:
                    candidate = item(row, params)
                    if candidate is None:
                        saw_null = True
                        continue
                    if compare_values(value, candidate) == 0:
                        return not negated
                if saw_null:
                    return None
                return negated
            return in_fn

        if isinstance(node, ast.InSubquery):
            if subquery_runner is None:
                raise PlanError("subqueries are not available in this context")
            operand = compile_node(node.operand)
            negated = node.negated
            memo: Dict[str, List[Any]] = {}
            select = node.select
            def in_subquery_fn(row, params):
                if "rows" not in memo:
                    rows = subquery_runner(select)
                    memo["rows"] = [r[0] for r in rows]
                value = operand(row, params)
                if value is None:
                    return None
                saw_null = False
                for candidate in memo["rows"]:
                    if candidate is None:
                        saw_null = True
                        continue
                    if compare_values(value, candidate) == 0:
                        return not negated
                if saw_null:
                    return None
                return negated
            return in_subquery_fn

        if isinstance(node, ast.ScalarSubquery):
            if subquery_runner is None:
                raise PlanError("subqueries are not available in this context")
            memo: Dict[str, Any] = {}
            select = node.select
            def scalar_subquery_fn(row, params):
                if "value" not in memo:
                    rows = subquery_runner(select)
                    if len(rows) > 1:
                        raise ExecutionError("scalar subquery returned more than one row")
                    memo["value"] = rows[0][0] if rows else None
                return memo["value"]
            return scalar_subquery_fn

        if isinstance(node, ast.Between):
            operand = compile_node(node.operand)
            low = compile_node(node.low)
            high = compile_node(node.high)
            negated = node.negated
            def between_fn(row, params):
                value = operand(row, params)
                lo = low(row, params)
                hi = high(row, params)
                low_cmp = compare_values(value, lo)
                high_cmp = compare_values(value, hi)
                if low_cmp is None or high_cmp is None:
                    return None
                inside = low_cmp >= 0 and high_cmp <= 0
                return (not inside) if negated else inside
            return between_fn

        if isinstance(node, ast.Like):
            operand = compile_node(node.operand)
            pattern = compile_node(node.pattern)
            negated = node.negated
            cache: Dict[str, Any] = {}
            def like_fn(row, params):
                value = operand(row, params)
                pat = pattern(row, params)
                if value is None or pat is None:
                    return None
                regex = cache.get(pat)
                if regex is None:
                    regex = _like_to_regex(str(pat))
                    cache[pat] = regex
                matched = bool(regex.match(coerce_value(value, DBType.TEXT)))
                return (not matched) if negated else matched
            return like_fn

        if isinstance(node, ast.Case):
            operand = compile_node(node.operand) if node.operand is not None else None
            whens = [(compile_node(c), compile_node(r)) for c, r in node.whens]
            default = compile_node(node.default) if node.default is not None else None
            def case_fn(row, params):
                if operand is not None:
                    subject = operand(row, params)
                    for condition, result in whens:
                        if compare_values(subject, condition(row, params)) == 0:
                            return result(row, params)
                else:
                    for condition, result in whens:
                        verdict = condition(row, params)
                        if verdict is not None and _truthy(verdict):
                            return result(row, params)
                return default(row, params) if default is not None else None
            return case_fn

        if isinstance(node, ast.FuncCall):
            if node.is_aggregate and _is_aggregate_form(node):
                raise PlanError(
                    f"aggregate {node.name}() is not allowed here"
                )
            fn = SCALAR_FUNCTIONS.get(node.name)
            if fn is None:
                raise PlanError(f"unknown function {node.name!r}")
            args = [compile_node(argument) for argument in node.args]
            return lambda row, params: fn(*(argument(row, params) for argument in args))

        raise PlanError(f"cannot compile expression node {type(node).__name__}")

    return compile_node(expression)


#: Python operators matching ``_COMPARISONS`` for same-kind numerics
#: (bool/int/float share one slot in the SQL type order, so Python's own
#: comparison agrees with ``compare_values`` there).
_PY_COMPARISONS = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}

_SWAPPED_COMPARISON = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def compile_batch_predicate(
    expression: ast.Expression, scope: Scope
) -> Optional[BatchFn]:
    """Compile a ``column <cmp> constant`` conjunct (either orientation)
    to a whole-batch selection function.

    Returns ``fn(columns, params, n) -> values`` where ``columns`` holds
    one rid-aligned value list per scope column, or ``None`` for every
    other shape — the scan then runs that conjunct's
    :func:`compile_expression` closure on the kernel's survivors.  The
    shape is the sargable extractor's (a literal, a ``?`` or a negated
    numeric literal against a column), and the constant side evaluates
    through its own row closure, so the values, the three-valued logic
    and the unbound-parameter error are :func:`compile_expression`'s.
    """
    if not isinstance(expression, ast.BinaryOp) or expression.op not in _COMPARISONS:
        return None
    column, constant, op = expression.left, expression.right, expression.op
    if _ref_column(column, None) is None:
        column, constant, op = constant, column, _SWAPPED_COMPARISON[op]
    if _ref_column(column, None) is None or not _const_bound(constant, None)[0]:
        return None
    index = scope.resolve(column.name, column.table)
    const_side = compile_expression(constant, scope)
    py_op = _PY_COMPARISONS[op]
    check = _COMPARISONS[op]

    def compare_column(cols, params, n):
        value = const_side((), params)
        values = cols[index]
        if value is None:
            return [None] * n
        if type(value) is int or type(value) is float:
            out: Optional[List[Any]] = []
            for v in values:
                tv = type(v)
                if tv is int or tv is float or tv is bool:
                    out.append(py_op(v, value))
                elif v is None:
                    out.append(None)
                else:
                    out = None  # mixed types: use compare_values
                    break
            if out is not None:
                return out
        result = []
        for v in values:
            ordering = compare_values(v, value)
            result.append(None if ordering is None else check(ordering))
        return result

    return compare_column


def _truthy(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return value != ""
    return value is not None


# -- sargable predicate ranges (data skipping + index probes) -----------------


class _Unknown:
    """Placeholder bound for a ``?`` parameter at *plan* time: the shape of
    the constraint is known (point / range), the value is not."""

    def __repr__(self) -> str:
        return "?"


#: Singleton plan-time parameter bound (see :func:`extract_sargable_ranges`).
UNKNOWN_BOUND = _Unknown()


class _Incomparable(Exception):
    """A bound comparison involved :data:`UNKNOWN_BOUND`."""


def _cmp_bounds(left: Any, right: Any) -> int:
    if left is UNKNOWN_BOUND or right is UNKNOWN_BOUND:
        raise _Incomparable
    ordering = compare_values(left, right)
    if ordering is None:  # defensive: bounds are never SQL NULL here
        raise _Incomparable
    return ordering


class IntervalSet:
    """The set of column values for which a sargable predicate *could* be
    TRUE: a union of ``(low, low_incl, high, high_incl)`` intervals (a
    ``None`` bound is unbounded) plus whether SQL NULL could satisfy it.

    Bound comparisons use :func:`repro.engine.types.compare_values` — the
    same total cross-type order the compiled predicates evaluate with — so
    a zone-map or index decision can never disagree with the predicate.
    Consumers over-approximate on any uncertainty: an interval touching
    :data:`UNKNOWN_BOUND` always "may match"."""

    __slots__ = ("intervals", "includes_null")

    def __init__(
        self,
        intervals: List[Tuple[Any, bool, Any, bool]],
        includes_null: bool = False,
    ):
        self.intervals = intervals
        self.includes_null = includes_null

    def __repr__(self) -> str:
        parts = []
        for low, low_incl, high, high_incl in self.intervals:
            parts.append(
                ("[" if low_incl else "(")
                + repr(low)
                + ", "
                + repr(high)
                + ("]" if high_incl else ")")
            )
        if self.includes_null:
            parts.append("NULL")
        return "IntervalSet{" + ", ".join(parts) + "}"

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls([], False)

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls([(None, False, None, False)], True)

    def is_empty(self) -> bool:
        return not self.intervals and not self.includes_null

    def points(self) -> Optional[List[Any]]:
        """All values when every interval is a closed single point (the
        index point-probe form); ``None`` otherwise."""
        out: List[Any] = []
        for low, low_incl, high, high_incl in self.intervals:
            if not low_incl or not high_incl or low is None or high is None:
                return None
            if low is high:
                out.append(low)
                continue
            try:
                if _cmp_bounds(low, high) != 0:
                    return None
            except _Incomparable:
                return None
            out.append(low)
        return out

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """AND combination.  Raises :class:`_Incomparable` (caught by the
        extractor, which then drops the column's constraint — a safe
        over-approximation) when bounds cannot be ordered."""
        intervals: List[Tuple[Any, bool, Any, bool]] = []
        for a in self.intervals:
            for b in other.intervals:
                merged = _intersect_one(a, b)
                if merged is not None:
                    intervals.append(merged)
        return IntervalSet(intervals, self.includes_null and other.includes_null)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """OR combination (no normalisation; consumers test overlap)."""
        return IntervalSet(
            self.intervals + other.intervals,
            self.includes_null or other.includes_null,
        )

    def may_match(self, lo: Any, hi: Any, nulls: int, count: int) -> bool:
        """Could any value on a page with zone ``(lo, hi, nulls)`` over
        ``count`` records satisfy this set?  True on any uncertainty."""
        if nulls > 0 and self.includes_null:
            return True
        if count - nulls <= 0:
            return False
        if lo is None:
            return True
        for low, low_incl, high, high_incl in self.intervals:
            try:
                if low is not None:
                    ordering = _cmp_bounds(low, hi)
                    if ordering > 0 or (ordering == 0 and not low_incl):
                        continue
                if high is not None:
                    ordering = _cmp_bounds(high, lo)
                    if ordering < 0 or (ordering == 0 and not high_incl):
                        continue
            except _Incomparable:
                return True
            return True
        return False

    def contains(self, value: Any) -> bool:
        """Membership with the same over-approximation rules (used by
        index probes to post-filter candidate keys)."""
        if value is None:
            return self.includes_null
        return self.may_match(value, value, 0, 1)


def _intersect_one(
    a: Tuple[Any, bool, Any, bool], b: Tuple[Any, bool, Any, bool]
) -> Optional[Tuple[Any, bool, Any, bool]]:
    low, low_incl = a[0], a[1]
    if b[0] is not None:
        if low is None:
            low, low_incl = b[0], b[1]
        else:
            ordering = _cmp_bounds(b[0], low)
            if ordering > 0:
                low, low_incl = b[0], b[1]
            elif ordering == 0:
                low_incl = low_incl and b[1]
    high, high_incl = a[2], a[3]
    if b[2] is not None:
        if high is None:
            high, high_incl = b[2], b[3]
        else:
            ordering = _cmp_bounds(b[2], high)
            if ordering < 0:
                high, high_incl = b[2], b[3]
            elif ordering == 0:
                high_incl = high_incl and b[3]
    if low is not None and high is not None:
        ordering = _cmp_bounds(low, high)
        if ordering > 0 or (ordering == 0 and not (low_incl and high_incl)):
            return None
    return (low, low_incl, high, high_incl)


def extract_sargable_ranges(
    expression: ast.Expression,
    params: Optional[Sequence[Any]] = None,
    binding: Optional[str] = None,
) -> Dict[str, "IntervalSet"]:
    """Compile a predicate into per-column sargable interval sets.

    Returns ``{lower-cased column name: IntervalSet}`` such that a row can
    make ``expression`` evaluate TRUE only if every named column's value
    lies in its set.  Handles ``= <> < <= > >=``, ``BETWEEN`` (and ``NOT
    BETWEEN``), non-negated ``IN`` over constants, ``IS [NOT] NULL``, and
    Kleene-safe ``AND``/``OR`` combination; everything else contributes no
    constraint (which only *under*-skips, never excludes a live match).
    Kleene safety: WHERE keeps only rows where the predicate is TRUE, so a
    comparison against NULL (always UNKNOWN) yields the *empty* set.

    With ``params=None`` (plan time) a ``?`` bound becomes
    :data:`UNKNOWN_BOUND` — usable for access-path shape decisions, never
    for value tests.  Pass the real ``params`` at execution time.
    ``binding`` ignores refs qualified with a different table alias.
    """
    extracted = _extract_ranges(expression, params, binding)
    return extracted if extracted is not None else {}


def _const_bound(
    node: ast.Expression, params: Optional[Sequence[Any]]
) -> Tuple[bool, Any]:
    """``(is_constant, value)`` for a bound expression; parameters resolve
    to their bound value or to :data:`UNKNOWN_BOUND` at plan time."""
    if isinstance(node, ast.Literal):
        return True, node.value
    if isinstance(node, ast.Parameter):
        if params is None:
            return True, UNKNOWN_BOUND
        if node.index < len(params):
            return True, params[node.index]
        return False, None
    if isinstance(node, ast.UnaryOp) and node.op == "-":
        known, value = _const_bound(node.operand, params)
        if known and isinstance(value, (int, float)) and not isinstance(value, bool):
            return True, -value
        return False, None
    return False, None


def _ref_column(node: ast.Expression, binding: Optional[str]) -> Optional[str]:
    if not isinstance(node, ast.ColumnRef):
        return None
    if (
        binding is not None
        and node.table is not None
        and node.table.lower() != binding.lower()
    ):
        return None
    return node.name.lower()


def _comparison_set(op: str, value: Any) -> Optional[IntervalSet]:
    if value is None:
        # ``col <op> NULL`` is UNKNOWN for every row — never TRUE.
        return IntervalSet.empty()
    if op == "=":
        return IntervalSet([(value, True, value, True)])
    if op == "<":
        return IntervalSet([(None, False, value, False)])
    if op == "<=":
        return IntervalSet([(None, False, value, True)])
    if op == ">":
        return IntervalSet([(value, False, None, False)])
    if op == ">=":
        return IntervalSet([(value, True, None, False)])
    if op == "<>":
        return IntervalSet(
            [(None, False, value, False), (value, False, None, False)]
        )
    return None


def _extract_ranges(
    node: ast.Expression,
    params: Optional[Sequence[Any]],
    binding: Optional[str],
) -> Optional[Dict[str, IntervalSet]]:
    """Recursive body of :func:`extract_sargable_ranges`; ``None`` means
    "no information" (distinct from ``{}`` only in OR combination)."""
    if isinstance(node, ast.BinaryOp):
        op = node.op
        if op == "AND":
            left = _extract_ranges(node.left, params, binding)
            right = _extract_ranges(node.right, params, binding)
            if left is None:
                return right
            if right is None:
                return left
            merged = dict(left)
            for name, ranges in right.items():
                have = merged.get(name)
                if have is None:
                    merged[name] = ranges
                else:
                    try:
                        merged[name] = have.intersect(ranges)
                    except _Incomparable:
                        del merged[name]
            return merged
        if op == "OR":
            left = _extract_ranges(node.left, params, binding)
            right = _extract_ranges(node.right, params, binding)
            if left is None or right is None:
                return None
            return {
                name: left[name].union(right[name])
                for name in left.keys() & right.keys()
            }
        if op in _COMPARISONS:
            column = _ref_column(node.left, binding)
            if column is not None:
                known, value = _const_bound(node.right, params)
                if known:
                    ranges = _comparison_set(op, value)
                    if ranges is not None:
                        return {column: ranges}
            column = _ref_column(node.right, binding)
            if column is not None:
                known, value = _const_bound(node.left, params)
                if known:
                    ranges = _comparison_set(_SWAPPED_COMPARISON[op], value)
                    if ranges is not None:
                        return {column: ranges}
        return None
    if isinstance(node, ast.IsNull):
        column = _ref_column(node.operand, binding)
        if column is None:
            return None
        if node.negated:
            return {column: IntervalSet([(None, False, None, False)], False)}
        return {column: IntervalSet([], True)}
    if isinstance(node, ast.Between):
        column = _ref_column(node.operand, binding)
        if column is None:
            return None
        low_known, low = _const_bound(node.low, params)
        high_known, high = _const_bound(node.high, params)
        if not low_known or not high_known:
            return None
        if low is None or high is None:
            # Either bound NULL makes the comparison UNKNOWN for every
            # row — never TRUE, negated or not (as compile_expression's
            # BETWEEN evaluates it).
            return {column: IntervalSet.empty()}
        if node.negated:
            return {
                column: IntervalSet(
                    [(None, False, low, False), (high, False, None, False)]
                )
            }
        return {column: IntervalSet([(low, True, high, True)])}
    if isinstance(node, ast.InList):
        if node.negated:
            return None
        column = _ref_column(node.operand, binding)
        if column is None:
            return None
        points: List[Any] = []
        for item in node.items:
            known, value = _const_bound(item, params)
            if not known:
                return None
            if value is None:
                continue  # a NULL item can never make IN return TRUE
            points.append(value)
        return {column: IntervalSet([(v, True, v, True) for v in points])}
    return None
