"""``DBSQL``: arbitrary SQL in a cell, spilling its result onto the sheet.

Paper §2.2: "DBSQL enables users to pose arbitrary queries combining data
present on the spreadsheet, and data stored in the relational database" —
with ``RANGEVALUE`` for scalar cell references and ``RANGETABLE`` to treat
any sheet range as a relation.  Paper §4, Feature 1: "The output of the
query is not limited to a single cell, but spans the range B3:B10.  This
enables the collection of cells to be computed collectively in a single
pass (as opposed to traditional spreadsheet formulae that are
one-per-cell)."

Implementation: a cell formula ``=DBSQL("SELECT ...")`` creates a
:class:`DBSQLRegion`.  The region

* resolves ``RANGEVALUE``/``RANGETABLE`` against the live sheet through a
  :class:`SheetRangeResolver` (demand-evaluating referenced formulas first),
* executes the statement **once** and spills the whole result grid below
  the anchor (the single-pass claim E10 measures),
* registers the referenced cells/ranges as compute-graph precedents of the
  anchor (editing ``B1`` re-runs the query) and the referenced tables in
  its display context (Feature 3: a back-end change is folded into a
  maintained aggregate, skipped when the ``WHERE`` selects neither side
  of it, and re-runs the query otherwise — see :mod:`repro.core.maintain`).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

from repro.core.address import CellAddress, RangeAddress, column_label
from repro.core.context import DisplayContext
from repro.core.maintain import ROW_EVENTS, GroupView, Unmaintainable, build_view, classify
from repro.core.spill import SpillRegion
from repro.engine import sql_ast as ast
from repro.engine.planner import RangeResolver
from repro.engine.sql_parser import parse_statement
from repro.errors import DataSpreadError, SqlError

__all__ = ["SheetRangeResolver", "DBSQLRegion", "extract_sql_dependencies"]


class SheetRangeResolver(RangeResolver):
    """Resolves DataSpread SQL constructs against workbook sheets."""

    def __init__(self, workbook, base_sheet: str):
        self.workbook = workbook
        self.base_sheet = base_sheet

    def resolve_range_value(self, reference: str) -> Any:
        address = CellAddress.parse(reference)
        return self.workbook.get(address.sheet or self.base_sheet, address)

    def resolve_range_table(
        self, reference: str
    ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
        rng = RangeAddress.parse(reference)
        grid = self.workbook.get_range(rng.sheet or self.base_sheet, rng)
        return grid_to_relation(grid, rng)


def grid_to_relation(
    grid: List[List[Any]], rng: RangeAddress
) -> Tuple[List[str], List[Tuple[Any, ...]]]:
    """Interpret a value grid as a relation.

    Header detection mirrors table creation (Fig 2b): if the first row is
    all non-empty text, unique, and at least one later row contains a
    non-text value, the first row provides attribute names; otherwise
    attributes are named after their spreadsheet columns (``a``, ``b``,…).
    """
    if not grid:
        return ([], [])
    first = grid[0]
    names_ok = (
        all(isinstance(value, str) and value.strip() for value in first)
        and len({str(v).strip().lower() for v in first}) == len(first)
    )
    body_has_nontext = any(
        any(not isinstance(value, str) and value is not None for value in row)
        for row in grid[1:]
    )
    if names_ok and (body_has_nontext or len(grid) > 1):
        columns = [str(value).strip().lower().replace(" ", "_") for value in first]
        rows = [tuple(row) for row in grid[1:]]
    else:
        columns = [
            column_label(rng.start.col + offset).lower()
            for offset in range(rng.n_cols)
        ]
        rows = [tuple(row) for row in grid]
    return (columns, rows)


def extract_sql_dependencies(
    statement: ast.Statement, base_sheet: str
) -> Tuple[Set[CellAddress], Set[RangeAddress], Set[str]]:
    """Cells (RANGEVALUE), ranges (RANGETABLE) and table names a statement
    reads — the precedents of a DBSQL region."""
    cells: Set[CellAddress] = set()
    ranges: Set[RangeAddress] = set()
    tables: Set[str] = set()

    def on_expression(expression: ast.Expression) -> None:
        for node in ast.walk_expression(expression):
            if isinstance(node, ast.RangeValue):
                address = CellAddress.parse(node.reference)
                if address.sheet is None:
                    address = address.with_sheet(base_sheet)
                cells.add(address)
            elif isinstance(node, (ast.ScalarSubquery, ast.InSubquery)):
                on_select(node.select)

    def on_source(item: Optional[ast.FromItem]) -> None:
        if item is None:
            return
        if isinstance(item, ast.TableRef):
            tables.add(item.name.lower())
        elif isinstance(item, ast.RangeTable):
            reference = RangeAddress.parse(item.reference)
            if reference.sheet is None:
                reference = RangeAddress(
                    reference.start.with_sheet(base_sheet),
                    reference.end.with_sheet(base_sheet),
                )
            ranges.add(reference)
        elif isinstance(item, ast.SubquerySource):
            on_select(item.select)
        elif isinstance(item, ast.Join):
            on_source(item.left)
            on_source(item.right)
            if item.condition is not None:
                on_expression(item.condition)

    def on_select(select: ast.SelectStmt) -> None:
        for select_item in select.items:
            if not isinstance(select_item.expression, ast.Star):
                on_expression(select_item.expression)
        on_source(select.source)
        if select.where is not None:
            on_expression(select.where)
        for group in select.group_by:
            on_expression(group)
        if select.having is not None:
            on_expression(select.having)
        for order in select.order_by:
            on_expression(order.expression)

    if isinstance(statement, ast.SelectStmt):
        on_select(statement)
    elif isinstance(statement, ast.CompoundSelect):
        for member in statement.selects:
            on_select(member)
    elif isinstance(statement, ast.InsertStmt):
        tables.add(statement.table.lower())
        if statement.select is not None:
            on_select(statement.select)
        for row in statement.rows:
            for expression in row:
                on_expression(expression)
    elif isinstance(statement, (ast.UpdateStmt, ast.DeleteStmt)):
        tables.add(statement.table.lower())
        if statement.where is not None:
            on_expression(statement.where)
        if isinstance(statement, ast.UpdateStmt):
            for _, expression in statement.assignments:
                on_expression(expression)
    return cells, ranges, tables


class DBSQLRegion(SpillRegion):
    """A live query result displayed on a sheet.

    A single-table aggregate the :mod:`~repro.core.maintain` classifier
    accepts keeps a :class:`~repro.core.maintain.GroupView` that each
    change event of its table updates; :meth:`render` then rewrites only
    the groups that changed.  Everything else — and any event the view
    cannot absorb — marks the region stale, and :meth:`refresh`, the one
    fallback, re-runs the held statement and rebuilds the view."""

    def __init__(
        self,
        workbook,
        region_id: int,
        sheet: str,
        anchor: CellAddress,
        sql: str,
        include_headers: bool = False,
    ):
        self.workbook = workbook
        self.sql = sql
        self.include_headers = include_headers
        self.statement = parse_statement(sql)
        if not isinstance(self.statement, (ast.SelectStmt, ast.CompoundSelect)):
            raise SqlError("DBSQL only embeds SELECT statements")
        cells, ranges, tables = extract_sql_dependencies(self.statement, sheet)
        self.precedent_cells = cells
        self.precedent_ranges = ranges
        self.context = DisplayContext(
            region_id=region_id,
            kind="dbsql",
            sheet=sheet,
            anchor=anchor,
            extent=RangeAddress(anchor, anchor),
            source_tables=set(tables),
            description=sql,
        )
        self.shape = classify(self.statement)
        #: compiled WHERE of the last refresh (None: every event re-queries).
        self._passes: Optional[Callable[[Tuple[Any, ...]], bool]] = None
        #: the maintained result (None: not maintainable, or stale).
        self._view: Optional[GroupView] = None
        self.refresh_count = 0
        self.last_row_count = 0

    # -- rendering ------------------------------------------------------------

    def refresh(self) -> Any:
        """Re-query and spill; returns the anchor cell's value."""
        self.refresh_count += 1
        self._passes = self._view = None
        try:
            return self._show(*self._query())
        except DataSpreadError as error:
            self._passes = self._view = None
            return self.show_error(error)

    def _show(self, columns: Sequence[str], rows: List[Sequence[Any]]) -> Any:
        grid: List[Sequence[Any]] = [columns] if self.include_headers else []
        grid.extend(rows)
        value = self._spill(grid or [[None]], max(len(columns), 1))
        self.last_row_count = len(rows)
        return value

    def _query(self) -> Tuple[List[str], List[Sequence[Any]]]:
        database = self.workbook.database
        shape = self.shape
        if shape is not None:
            table = database.table(shape.table)
            self._passes = shape.compile_filter(table)
            if shape.aggregate is not None:
                try:
                    self._view = build_view(shape, table, self._passes)
                except Unmaintainable:
                    self._view = None
                else:
                    # The rebuild scanned the table outside the executor.
                    database.tracer.current.annotate_child(
                        "GroupView", rows_scanned=table.n_rows
                    )
                    return self._view.columns, self._view.rows()
        resolver = SheetRangeResolver(self.workbook, self.context.sheet)
        result = database.execute_statement(self.statement, resolver=resolver)
        return list(result.columns), result.rows

    def render(self) -> None:
        """Show the groups the events since the last render changed."""
        view = self._view
        if view is None:
            return
        try:
            rows = view.changes()
            if rows is None:
                self._show(view.columns, view.rows())
            else:
                offset = 1 if self.include_headers else 0
                self._write_rows({offset + index: row for index, row in rows.items()})
        except DataSpreadError as error:
            self._passes = self._view = None
            self.show_error(error)

    # -- sync hooks --------------------------------------------------------------

    def on_db_change(self, event) -> None:
        """Fold a change of a source table into the shown result, or mark
        the region stale when that is not possible."""
        passes = self._passes
        if passes is not None and event.kind in ROW_EVENTS:
            old_row, row = event.old_row, event.row
            try:
                old_in = old_row is not None and passes(old_row)
                new_in = row is not None and passes(row)
                if not (old_in or new_in):
                    return  # neither side is selected: nothing shown changed
                view = self._view
                if view is not None:
                    if old_in:
                        view.fold(old_row, -1)
                    if new_in:
                        view.fold(row, 1)
                    self.workbook.mark_region_patched(self)
                    return
            except (DataSpreadError, Unmaintainable, ArithmeticError, TypeError, ValueError):
                pass
        self._passes = self._view = None
        self.workbook.mark_region_stale(self)
