"""``DBTABLE``: a sheet region that *is* a database table.

Paper §2.2: "DBTABLE enables users to declare a portion of the spreadsheet
as being either exported to or imported from the relational database, i.e.,
that portion of the spreadsheet directly reflects the contents of a
relational database table."  Fig 2b/2c: after *create table*, the data on
the sheet is replaced by a ``DBTABLE`` formula; edits on the region update
the database and dependents refresh immediately.

A :class:`DBTableRegion`:

* renders a **window** of the table (all rows, or a viewport-sized slice —
  the paper's scalability story: only the window is materialised; the
  positional index makes any window O(log n + w)),
* maintains the key↔position mapping the interface manager needs ("the
  interface manager maintains a mapping between a tuple's key attribute and
  its corresponding location", §3),
* translates front-end cell edits into ``UPDATE``s (by primary key when
  available, by position otherwise), appended rows into ``INSERT``s and row
  deletions into ``DELETE``s,
* refreshes from back-end :class:`~repro.engine.table.ChangeEvent`s.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.address import CellAddress, RangeAddress
from repro.core.cell import Cell, coerce_scalar
from repro.core.context import DisplayContext
from repro.engine.table import ChangeEvent, Table
from repro.errors import RegionError, SyncError
from repro.window.cache import WindowCache

__all__ = ["DBTableRegion"]


class DBTableRegion:
    """A live, two-way-synchronised view of one table."""

    def __init__(
        self,
        workbook,
        region_id: int,
        sheet: str,
        anchor: CellAddress,
        table_name: str,
        include_headers: bool = True,
        window_rows: Optional[int] = None,
        use_cache: bool = True,
    ):
        self.workbook = workbook
        self.table_name = table_name
        self.include_headers = include_headers
        self.window_rows = window_rows
        self.offset = 0  # first table position displayed
        table = workbook.database.table(table_name)
        self.context = DisplayContext(
            region_id=region_id,
            kind="dbtable",
            sheet=sheet,
            anchor=anchor,
            extent=RangeAddress(anchor, anchor),
            source_tables={table_name.lower()},
            description=f"DBTABLE({table_name})",
        )
        #: display data-row offset -> primary key (or position when no PK)
        self.row_keys: List[Any] = []
        self.cache: Optional[WindowCache] = (
            WindowCache(lambda start, count: table.window(start, count))
            if use_cache
            else None
        )
        self._suppress_events = False
        self.refresh_count = 0

    # -- geometry ---------------------------------------------------------------

    @property
    def table(self) -> Table:
        return self.workbook.database.table(self.table_name)

    @property
    def header_rows(self) -> int:
        return 1 if self.include_headers else 0

    def data_row_of(self, sheet_row: int) -> int:
        """Display data-row index (0-based) for an absolute sheet row."""
        return sheet_row - self.context.anchor.row - self.header_rows

    def column_of(self, sheet_col: int) -> str:
        offset = sheet_col - self.context.anchor.col
        names = self.table.column_names
        if not (0 <= offset < len(names)):
            raise RegionError(f"column offset {offset} outside DBTABLE width")
        return names[offset]

    # -- rendering -----------------------------------------------------------------

    def _fetch_window(self) -> List[Tuple[Any, ...]]:
        table = self.table
        if self.window_rows is None:
            return [row for _, _, row in table.scan()]
        if self.cache is not None:
            return self.cache.window(self.offset, self.window_rows)
        return table.window(self.offset, self.window_rows)

    def refresh(self) -> Any:
        """Re-render the window; returns the anchor cell value."""
        workbook = self.workbook
        sheet = workbook.sheet(self.context.sheet)
        table = self.table
        anchor = self.context.anchor
        rows = self._fetch_window()
        names = table.column_names
        grid: List[List[Any]] = []
        if self.include_headers:
            grid.append(list(names))
        grid.extend(list(row) for row in rows)
        if not grid:
            grid = [[None] * max(len(names), 1)]
        n_rows = len(grid)
        n_cols = max(len(names), 1)
        new_extent = RangeAddress.from_dimensions(
            anchor.row, anchor.col, n_rows, n_cols, sheet=self.context.sheet
        )
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
                if cell.region_id not in (None, self.context.region_id) and not (
                    address.row == anchor.row and address.col == anchor.col
                ):
                    raise RegionError(
                        f"DBTABLE render at {address.to_a1()} would overwrite "
                        f"region {cell.region_id}"
                    )
                cell.set_value(value)
                cell.region_id = self.context.region_id
                changed.append(address.anchor())
        self.context.extent = new_extent
        # Key↔position mapping for edit translation.
        pk = table.schema.primary_key
        if pk is not None:
            key_index = table.schema.column_index(pk)
            self.row_keys = [row[key_index] for row in rows]
        else:
            self.row_keys = list(range(self.offset, self.offset + len(rows)))
        self.refresh_count += 1
        self.workbook.on_cells_changed(self.context.sheet, changed)
        return grid[0][0] if grid and grid[0] else None

    def scroll_to(self, offset: int) -> None:
        """Pan the window (only meaningful with bounded ``window_rows``)."""
        self.offset = max(0, offset)
        self.refresh()

    # -- front-end edits → database ----------------------------------------------------

    def apply_edit(self, sheet_row: int, sheet_col: int, raw: Any) -> None:
        """Translate an edit of a region cell into a database mutation."""
        table = self.table
        data_row = self.data_row_of(sheet_row)
        if data_row < -self.header_rows:
            raise RegionError("edit above the DBTABLE region")
        if self.include_headers and data_row == -1:
            raise RegionError("DBTABLE header cells are read-only")
        value = coerce_scalar(raw)
        column = self.column_of(sheet_col)
        self._suppress_events = True
        try:
            if data_row >= len(self.row_keys):
                self._insert_row_from_sheet(sheet_row, sheet_col, column, value)
            else:
                position = self.offset + data_row
                rid = table.rid_at(position)
                table.update_rid(rid, {column: value}, position=position)
        finally:
            self._suppress_events = False
        self._invalidate_cache()
        self.refresh()

    def _insert_row_from_sheet(
        self, sheet_row: int, sheet_col: int, column: str, value: Any
    ) -> None:
        """An edit one row below the region appends a new tuple (the
        spreadsheet idiom for adding a record)."""
        table = self.table
        if self.data_row_of(sheet_row) != len(self.row_keys):
            raise RegionError(
                "new rows must be added immediately below the DBTABLE region"
            )
        sheet = self.workbook.sheet(self.context.sheet)
        names = table.column_names
        values: List[Any] = []
        for offset, name in enumerate(names):
            if name == column:
                values.append(value)
            else:
                cell = sheet.cell_at(sheet_row, self.context.anchor.col + offset)
                values.append(cell.value if cell is not None else None)
        table.insert(values)

    def delete_row(self, sheet_row: int) -> None:
        """Delete the tuple displayed on ``sheet_row``."""
        data_row = self.data_row_of(sheet_row)
        if not (0 <= data_row < len(self.row_keys)):
            raise RegionError(f"sheet row {sheet_row} is not a DBTABLE data row")
        self._suppress_events = True
        try:
            self.table.delete_at(self.offset + data_row)
        finally:
            self._suppress_events = False
        self._invalidate_cache()
        self.refresh()

    def insert_row(self, sheet_row: int, values: List[Any]) -> None:
        """Insert a tuple at the displayed position (positional insert)."""
        data_row = self.data_row_of(sheet_row)
        if not (0 <= data_row <= len(self.row_keys)):
            raise RegionError(f"sheet row {sheet_row} is not inside the DBTABLE")
        self._suppress_events = True
        try:
            self.table.insert(values, position=self.offset + data_row)
        finally:
            self._suppress_events = False
        self._invalidate_cache()
        self.refresh()

    # -- database → front-end -----------------------------------------------------------

    def _invalidate_cache(self) -> None:
        if self.cache is not None:
            self.cache.invalidate()

    def on_db_change(self, event: ChangeEvent) -> None:
        if self._suppress_events:
            # Our own write; refresh() already runs after the edit.
            return
        self._invalidate_cache()
        self.workbook.mark_region_stale(self)

    def clear(self) -> None:
        sheet = self.workbook.sheet(self.context.sheet)
        if self.context.extent is not None:
            for address, cell in list(sheet.range_cells(self.context.extent)):
                if cell.region_id == self.context.region_id:
                    sheet.clear_cell(address)
