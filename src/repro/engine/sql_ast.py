"""SQL abstract syntax trees.

Covers the dialect DataSpread needs: single- and multi-table SELECT with
(NATURAL / INNER / LEFT / CROSS) joins, WHERE/GROUP BY/HAVING/ORDER
BY/LIMIT/OFFSET, DISTINCT, aggregates, scalar functions, CASE,
IN/BETWEEN/LIKE/IS NULL, uncorrelated subqueries, the DML statements, DDL
with the cheap-schema-change ALTERs, and the two DataSpread SQL extensions:

* ``RANGEVALUE(<cell>)`` — a scalar whose value comes from a spreadsheet
  cell (paper §2.2),
* ``RANGETABLE(<range>)`` — a relation whose tuples come from a spreadsheet
  range, usable anywhere a table is (paper §2.2),

plus one positional extension motivated by §3's positional index:
``INSERT ... AT POSITION <n>`` inserts a row at a presentation position.

Nodes are plain frozen dataclasses; evaluation lives in
:mod:`repro.engine.expr` and planning in :mod:`repro.engine.planner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, Union

__all__ = [
    "Expression",
    "Literal",
    "ColumnRef",
    "Star",
    "Parameter",
    "BinaryOp",
    "UnaryOp",
    "FuncCall",
    "IsNull",
    "InList",
    "InSubquery",
    "Between",
    "Like",
    "Case",
    "ScalarSubquery",
    "RangeValue",
    "SelectItem",
    "OrderItem",
    "TableRef",
    "RangeTable",
    "SubquerySource",
    "Join",
    "FromItem",
    "SelectStmt",
    "CompoundSelect",
    "InsertStmt",
    "UpdateStmt",
    "DeleteStmt",
    "ColumnDef",
    "CreateIndexStmt",
    "CreateTableStmt",
    "AlterAddColumn",
    "AlterDropColumn",
    "AlterRenameColumn",
    "AlterSetLayout",
    "AlterTableStmt",
    "DropTableStmt",
    "DropIndexStmt",
    "Statement",
    "AGGREGATE_NAMES",
]

#: Function names treated as aggregates by the planner.
AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max", "group_concat"})


class Expression:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expression):
    value: Any


@dataclass(frozen=True)
class ColumnRef(Expression):
    name: str
    table: Optional[str] = None

    def display(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``t.*`` in a select list, or ``COUNT(*)``."""

    table: Optional[str] = None


@dataclass(frozen=True)
class Parameter(Expression):
    """A ``?`` placeholder, bound at execution time by ordinal."""

    index: int


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str  # + - * / % || = <> < <= > >= AND OR
    left: Expression
    right: Expression


@dataclass(frozen=True)
class UnaryOp(Expression):
    op: str  # - + NOT
    operand: Expression


@dataclass(frozen=True)
class FuncCall(Expression):
    name: str  # lower-cased
    args: Tuple[Expression, ...]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_NAMES


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False


@dataclass(frozen=True)
class InList(Expression):
    operand: Expression
    items: Tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True)
class Like(Expression):
    operand: Expression
    pattern: Expression
    negated: bool = False


@dataclass(frozen=True)
class Case(Expression):
    operand: Optional[Expression]
    whens: Tuple[Tuple[Expression, Expression], ...]
    default: Optional[Expression]


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    select: "SelectStmt"


@dataclass(frozen=True)
class InSubquery(Expression):
    operand: Expression
    select: "SelectStmt"
    negated: bool = False


@dataclass(frozen=True)
class RangeValue(Expression):
    """DataSpread: ``RANGEVALUE(B1)`` — the value of a spreadsheet cell."""

    reference: str  # A1-style text, resolved by the range resolver


# ---------------------------------------------------------------------------
# FROM clause
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class RangeTable:
    """DataSpread: ``RANGETABLE(A1:D100)`` — a sheet range as a relation."""

    reference: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or f"rangetable({self.reference})"


@dataclass(frozen=True)
class SubquerySource:
    select: "SelectStmt"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias


@dataclass(frozen=True)
class Join:
    left: "FromItem"
    right: "FromItem"
    kind: str = "inner"  # inner | left | cross
    condition: Optional[Expression] = None
    natural: bool = False
    using: Tuple[str, ...] = ()


FromItem = Union[TableRef, RangeTable, SubquerySource, Join]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectItem:
    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectStmt:
    items: Tuple[SelectItem, ...]
    source: Optional[FromItem] = None
    where: Optional[Expression] = None
    group_by: Tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None
    distinct: bool = False


@dataclass(frozen=True)
class InsertStmt:
    table: str
    columns: Tuple[str, ...] = ()
    rows: Tuple[Tuple[Expression, ...], ...] = ()
    select: Optional[SelectStmt] = None
    position: Optional[Expression] = None  # DataSpread: AT POSITION n


@dataclass(frozen=True)
class UpdateStmt:
    table: str
    assignments: Tuple[Tuple[str, Expression], ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class DeleteStmt:
    table: str
    where: Optional[Expression] = None


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str = "TEXT"
    primary_key: bool = False
    not_null: bool = False
    default: Optional[Expression] = None


@dataclass(frozen=True)
class CreateTableStmt:
    table: str
    columns: Tuple[ColumnDef, ...] = ()
    if_not_exists: bool = False
    as_select: Optional[SelectStmt] = None


@dataclass(frozen=True)
class AlterAddColumn:
    column: ColumnDef
    # DataSpread extension: choose the attribute group placement.
    into_group: Optional[int] = None


@dataclass(frozen=True)
class AlterDropColumn:
    name: str


@dataclass(frozen=True)
class AlterRenameColumn:
    old: str
    new: str


@dataclass(frozen=True)
class AlterSetLayout:
    # DataSpread extension: adaptive physical layout control.
    # ``auto``/``manual`` toggle the advisor loop; ``row``/``column``
    # migrate immediately to a static extreme.
    mode: str


@dataclass(frozen=True)
class AlterTableStmt:
    table: str
    action: Union[AlterAddColumn, AlterDropColumn, AlterRenameColumn, AlterSetLayout]


@dataclass(frozen=True)
class DropTableStmt:
    table: str
    if_exists: bool = False


@dataclass(frozen=True)
class CreateIndexStmt:
    name: str
    table: str
    column: str
    unique: bool = False
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropIndexStmt:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class CompoundSelect:
    """``SELECT ... UNION [ALL] SELECT ...`` chains.

    ``operators[i]`` ('union' | 'union all') combines ``selects[i]`` with
    ``selects[i+1]``.  ORDER BY/LIMIT inside a member select bind to that
    member (parenthesise to control); compound-level ordering is applied by
    wrapping in a subquery source."""

    selects: Tuple[SelectStmt, ...]
    operators: Tuple[str, ...]


Statement = Union[
    SelectStmt,
    CompoundSelect,
    InsertStmt,
    UpdateStmt,
    DeleteStmt,
    CreateTableStmt,
    AlterTableStmt,
    DropTableStmt,
    CreateIndexStmt,
    DropIndexStmt,
]


def walk_expression(expression: Expression):
    """Yield the expression node and all descendants (pre-order)."""
    yield expression
    for child in expression_children(expression):
        yield from walk_expression(child)


def expression_children(expression: Expression) -> Tuple[Expression, ...]:
    """The direct sub-expressions of one node (a subquery's select is a
    statement, not a child)."""
    if isinstance(expression, BinaryOp):
        return (expression.left, expression.right)
    if isinstance(expression, (UnaryOp, IsNull, InSubquery)):
        return (expression.operand,)
    if isinstance(expression, FuncCall):
        return expression.args
    if isinstance(expression, InList):
        return (expression.operand,) + expression.items
    if isinstance(expression, Between):
        return (expression.operand, expression.low, expression.high)
    if isinstance(expression, Like):
        return (expression.operand, expression.pattern)
    if isinstance(expression, Case):
        parts: List[Expression] = []
        if expression.operand is not None:
            parts.append(expression.operand)
        for condition, result in expression.whens:
            parts.extend((condition, result))
        if expression.default is not None:
            parts.append(expression.default)
        return tuple(parts)
    return ()
