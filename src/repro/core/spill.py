"""What a DBSQL and a DBTABLE region share: the cells they own.

A region owns a rectangle of cells anchored at its formula cell.  It
writes that rectangle in one of two ways — a whole grid after a full
re-query (:meth:`SpillRegion._spill`), or a few rows after a change event
was folded into the result it already shows
(:meth:`SpillRegion._write_rows`) — and either way only a cell whose value
actually changed is written, passed to the compute engine and announced
to the region listeners.  A region whose cells did not change announces
nothing.

A refresh or render that fails shows an error at the anchor instead of
raising out of the mutation that triggered it (:meth:`show_error`):
``#SPILL!`` when the result would overwrite another region, the error's
formula code otherwise.  Nothing is spilled, and the next change that
reaches the region re-queries it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.core.address import CellAddress, RangeAddress
from repro.core.cell import CellKind
from repro.errors import DataSpreadError, RegionError

__all__ = ["SpillRegion"]


def _same(old: Any, new: Any) -> bool:
    return type(old) is type(new) and old == new


class SpillRegion:
    """Base of the display regions: owned cells, diffed writes, errors."""

    workbook: Any
    context: Any
    #: the error code the anchor shows, or None while the region renders.
    error = None

    def _put(
        self, sheet, row: int, col: int, value: Any, changed: List[Tuple[int, int]]
    ) -> None:
        cell = sheet.cell_at(row, col)
        region_id = self.context.region_id
        if cell is None:
            cell = sheet.ensure_cell(CellAddress(row, col))
        elif cell.region_id == region_id and _same(cell.value, value):
            return
        cell.set_value(value)
        cell.region_id = region_id
        changed.append((row, col))

    def _spill(self, grid: List[Sequence[Any]], n_cols: int) -> Any:
        """Show ``grid`` (rows of at most ``n_cols`` values) below the
        anchor; returns the anchor's value.  Raises :class:`RegionError`
        before writing anything if a cell belongs to another region."""
        sheet = self.workbook.sheet(self.context.sheet)
        anchor = self.context.anchor
        region_id = self.context.region_id
        new_extent = RangeAddress.from_dimensions(
            anchor.row, anchor.col, len(grid), n_cols, sheet=self.context.sheet
        )
        for address, cell in sheet.range_cells(new_extent):
            if cell.region_id not in (None, region_id) and (
                address.row,
                address.col,
            ) != (anchor.row, anchor.col):
                raise RegionError(
                    f"{self.context.kind.upper()} spill at {address.to_a1()} "
                    f"would overwrite region {cell.region_id}"
                )
        changed: List[Tuple[int, int]] = []
        old_extent = self.context.extent
        if old_extent is not None:
            for address, cell in list(sheet.range_cells(old_extent)):
                if cell.region_id == region_id and not new_extent.contains(address):
                    sheet.clear_cell(address)
                    changed.append(address.anchor())
        for row_offset, row in enumerate(grid):
            for col_offset in range(n_cols):
                value = row[col_offset] if col_offset < len(row) else None
                self._put(
                    sheet, anchor.row + row_offset, anchor.col + col_offset, value, changed
                )
        self.context.extent = new_extent
        self.error = None
        self._publish(changed)
        return grid[0][0] if grid and grid[0] else None

    def _write_rows(self, rows: Dict[int, Sequence[Any]]) -> None:
        """Rewrite whole grid rows (index 0 = the anchor's row) inside the
        current extent; the cells that kept their value are left alone."""
        sheet = self.workbook.sheet(self.context.sheet)
        anchor = self.context.anchor
        changed: List[Tuple[int, int]] = []
        for index, values in rows.items():
            for col_offset, value in enumerate(values):
                self._put(sheet, anchor.row + index, anchor.col + col_offset, value, changed)
        self._publish(changed)

    def _publish(self, changed: List[Tuple[int, int]]) -> None:
        if changed:
            self.workbook.on_cells_changed(self.context.sheet, changed)
            self.workbook._notify_region_refreshed(self)

    def show_error(self, error: DataSpreadError) -> str:
        """Clear the spill and show ``error``'s code at the anchor; returns
        the code (the anchor's value)."""
        code = "#SPILL!" if isinstance(error, RegionError) else getattr(error, "code", "#VALUE!")
        sheet = self.workbook.sheet(self.context.sheet)
        anchor = self.context.anchor
        changed: List[Tuple[int, int]] = []
        if self.context.extent is not None:
            for address, cell in list(sheet.range_cells(self.context.extent)):
                if cell.region_id == self.context.region_id and (
                    address.row,
                    address.col,
                ) != (anchor.row, anchor.col):
                    sheet.clear_cell(address)
                    changed.append(address.anchor())
        cell = sheet.ensure_cell(anchor)
        if cell.value != code or cell.kind is not CellKind.ERROR:
            cell.set_error(code)
            changed.append((anchor.row, anchor.col))
        cell.region_id = self.context.region_id
        self.context.extent = RangeAddress(anchor, anchor)
        self.error = code
        self._publish(changed)
        return code

    def clear(self) -> None:
        """Remove the spill from the sheet (region teardown)."""
        sheet = self.workbook.sheet(self.context.sheet)
        if self.context.extent is not None:
            for address, cell in list(sheet.range_cells(self.context.extent)):
                if cell.region_id == self.context.region_id:
                    sheet.clear_cell(address)
