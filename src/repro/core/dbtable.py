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
* follows back-end :class:`~repro.engine.table.ChangeEvent`s: it keeps the
  rids it displays, so an update of one of them rewrites that row, any
  other update or an insert/delete below the window changes nothing shown,
  and only an insert/delete inside or above the window (or a schema
  change) re-fetches the O(log n + w) window.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.address import CellAddress, RangeAddress
from repro.core.cell import coerce_scalar
from repro.core.context import DisplayContext
from repro.core.spill import SpillRegion
from repro.engine.table import ChangeEvent, Table
from repro.errors import DataSpreadError, RegionError
from repro.window.cache import WindowCache

__all__ = ["DBTableRegion"]


class DBTableRegion(SpillRegion):
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
    ):
        self.workbook = workbook
        self.table_name = table_name
        self.include_headers = include_headers
        self.window_rows = window_rows
        self.offset = 0  # first table position displayed
        workbook.database.table(table_name)
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
        # Blocks of rids, not rows: an update never makes a block stale.
        self.cache = WindowCache(
            lambda start, count: self.table.positions.window(start, count)
        )
        #: rid -> display data row, while the window shown is current.
        self._slot: Optional[Dict[int, int]] = None
        #: display data row -> updated row, until the next render.
        self._pending: Dict[int, Tuple[Any, ...]] = {}
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

    def _fetch_window(self) -> Tuple[List[int], List[Tuple[Any, ...]]]:
        table = self.table
        if self.window_rows is None:
            shown = [(rid, row) for _, rid, row in table.scan()]
            return [rid for rid, _ in shown], [row for _, row in shown]
        rids = self.cache.window(self.offset, self.window_rows)
        return rids, [table.get(rid) for rid in rids]

    def refresh(self) -> Any:
        """Re-fetch and re-render the window; returns the anchor cell value."""
        self.refresh_count += 1
        self._slot = None
        self._pending = {}
        try:
            table = self.table
            rids, rows = self._fetch_window()
            names = table.column_names
            grid: List[Sequence[Any]] = [names] if self.include_headers else []
            grid.extend(rows)
            value = self._spill(grid or [[None] * max(len(names), 1)], max(len(names), 1))
        except DataSpreadError as error:
            return self.show_error(error)
        self._slot = {rid: index for index, rid in enumerate(rids)}
        self.row_keys = [self._row_key(index, row) for index, row in enumerate(rows)]
        return value

    def _row_key(self, index: int, row: Tuple[Any, ...]) -> Any:
        """Key↔position mapping for edit translation."""
        schema = self.table.schema
        if schema.primary_key is None:
            return self.offset + index
        return row[schema.column_index(schema.primary_key)]

    def render(self) -> None:
        """Rewrite the displayed rows updated since the last render."""
        pending, self._pending = self._pending, {}
        if self._slot is None:
            return  # a refresh already showed them
        for index, row in pending.items():
            self.row_keys[index] = self._row_key(index, row)
        self._write_rows({self.header_rows + index: row for index, row in pending.items()})

    def scroll_to(self, offset: int) -> None:
        """Pan the window (only meaningful with bounded ``window_rows``)."""
        self.offset = max(0, offset)
        self.refresh()

    # -- front-end edits → database ----------------------------------------------------
    #
    # An edit is a table mutation and nothing else: its change event comes
    # back through the sync manager like anyone else's and patches (or, for
    # a row inserted into the window, re-fetches) what this region shows.

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
        if data_row >= len(self.row_keys):
            self._insert_row_from_sheet(sheet_row, sheet_col, column, value)
        else:
            position = self.offset + data_row
            rid = table.rid_at(position)
            table.update_rid(rid, {column: value}, position=position)

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
        self.table.delete_at(self.offset + data_row)

    def insert_row(self, sheet_row: int, values: List[Any]) -> None:
        """Insert a tuple at the displayed position (positional insert)."""
        data_row = self.data_row_of(sheet_row)
        if not (0 <= data_row <= len(self.row_keys)):
            raise RegionError(f"sheet row {sheet_row} is not inside the DBTABLE")
        self.table.insert(values, position=self.offset + data_row)

    # -- database → front-end -----------------------------------------------------------

    def on_db_change(self, event: ChangeEvent) -> None:
        """An update of a displayed row patches it; an update of any other
        row, or an insert/delete below the window, shows nothing new;
        anything else re-fetches the window."""
        kind = event.kind
        if kind in ("insert", "delete"):
            self.cache.invalidate()
        slot = self._slot
        if slot is not None:
            if kind == "update":
                index = slot.get(event.rid)
                if index is not None:
                    self._pending[index] = event.row
                    self.workbook.mark_region_patched(self)
                return
            if (
                kind in ("insert", "delete")
                and self.window_rows is not None
                and event.position >= self.offset + self.window_rows
            ):
                return
        self._slot = None
        self.workbook.mark_region_stale(self)
