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
  its display context (a back-end change re-runs it too — Feature 3).
"""

from __future__ import annotations

from typing import Any, List, Optional, Set, Tuple

from repro.core.address import CellAddress, RangeAddress, parse_reference
from repro.core.cell import Cell
from repro.core.context import DisplayContext
from repro.engine import sql_ast as ast
from repro.engine.planner import RangeResolver
from repro.engine.sql_parser import parse_statement
from repro.errors import FormulaEvalError, RegionError, SqlError
from repro.core.address import column_label

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


class DBSQLRegion:
    """A live query result displayed on a sheet."""

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
        self.refresh_count = 0
        self.last_row_count = 0

    # -- rendering ------------------------------------------------------------

    def refresh(self) -> Any:
        """Run the query once and spill; returns the anchor cell's value."""
        workbook = self.workbook
        resolver = SheetRangeResolver(workbook, self.context.sheet)
        result = workbook.database.execute(self.sql, resolver=resolver)
        self.refresh_count += 1
        self.last_row_count = len(result.rows)
        grid: List[List[Any]] = []
        if self.include_headers:
            grid.append(list(result.columns))
        grid.extend(list(row) for row in result.rows)
        if not grid:
            grid = [[None]]
        anchor_value = self._spill(grid)
        return anchor_value

    def _spill(self, grid: List[List[Any]]) -> Any:
        sheet = self.workbook.sheet(self.context.sheet)
        anchor = self.context.anchor
        n_rows = len(grid)
        n_cols = max(len(row) for row in grid)
        new_extent = RangeAddress.from_dimensions(
            anchor.row, anchor.col, n_rows, n_cols, sheet=self.context.sheet
        )
        # Clear cells from the previous extent that the new one doesn't cover
        # (only cells this region owns).
        changed = []
        old_extent = self.context.extent
        if old_extent is not None:
            for address, cell in list(sheet.range_cells(old_extent)):
                if cell.region_id == self.context.region_id and not new_extent.contains(address):
                    sheet.clear_cell(address)
                    changed.append(address.anchor())
        for row_offset, row in enumerate(grid):
            for col_offset in range(n_cols):
                value = row[col_offset] if col_offset < len(row) else None
                address = CellAddress(anchor.row + row_offset, anchor.col + col_offset)
                cell = sheet.ensure_cell(address)
                if (
                    cell.region_id not in (None, self.context.region_id)
                    and not (address.row == anchor.row and address.col == anchor.col)
                ):
                    raise RegionError(
                        f"DBSQL spill at {address.to_a1()} would overwrite "
                        f"region {cell.region_id}"
                    )
                cell.set_value(value)
                cell.region_id = self.context.region_id
                changed.append(address.anchor())
        self.context.extent = new_extent
        # Anchor keeps its formula; dependents of any spilled cell react.
        self.workbook.on_cells_changed(self.context.sheet, changed)
        return grid[0][0] if grid and grid[0] else None

    # -- sync hooks --------------------------------------------------------------

    def on_db_change(self, event) -> None:
        """A source table changed: re-queue the anchor for recomputation."""
        self.workbook.mark_region_stale(self)

    def clear(self) -> None:
        """Remove the spill from the sheet (region teardown)."""
        sheet = self.workbook.sheet(self.context.sheet)
        if self.context.extent is not None:
            for address, cell in list(sheet.range_cells(self.context.extent)):
                if cell.region_id == self.context.region_id:
                    sheet.clear_cell(address)
