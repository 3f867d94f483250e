"""A sheet: a sparse, unbounded grid of cells over the interface storage
manager.

The sheet is deliberately *passive*: it stores :class:`~repro.core.cell.Cell`
objects in a :class:`~repro.interface_storage.CellStore` and answers
geometric queries.  Formula evaluation, DBSQL/DBTABLE semantics and sync
are orchestrated by the :class:`~repro.core.workbook.Workbook`, which owns
the compute engine and the database — mirroring the paper's architecture
where the interface storage manager is dumb storage and the interface
manager supplies the intelligence.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple, Union

from repro.core.address import CellAddress, RangeAddress, parse_reference
from repro.core.cell import Cell, CellKind
from repro.errors import SheetError
from repro.interface_storage import CellStore

__all__ = ["Sheet"]

RefLike = Union[str, CellAddress]
RangeLike = Union[str, RangeAddress]


class Sheet:
    """One named sheet of a workbook."""

    def __init__(self, name: str, tile_rows: int = 64, tile_cols: int = 16):
        if not name:
            raise SheetError("sheet name must be non-empty")
        self.name = name
        self.store = CellStore(tile_rows, tile_cols)

    # -- address helpers ------------------------------------------------------

    def _addr(self, ref: RefLike) -> CellAddress:
        if isinstance(ref, CellAddress):
            return ref
        return CellAddress.parse(ref)

    def _range(self, ref: RangeLike) -> RangeAddress:
        if isinstance(ref, RangeAddress):
            return ref
        return RangeAddress.parse(ref)

    # -- cell access ------------------------------------------------------------

    def cell(self, ref: RefLike) -> Optional[Cell]:
        address = self._addr(ref)
        return self.store.get(address.row, address.col)

    def cell_at(self, row: int, col: int) -> Optional[Cell]:
        return self.store.get(row, col)

    def ensure_cell(self, ref: RefLike) -> Cell:
        address = self._addr(ref)
        cell = self.store.get(address.row, address.col)
        if cell is None:
            cell = Cell()
            self.store.set(address.row, address.col, cell)
        return cell

    def value(self, ref: RefLike) -> Any:
        cell = self.cell(ref)
        return cell.value if cell is not None else None

    def value_at(self, row: int, col: int) -> Any:
        cell = self.store.get(row, col)
        return cell.value if cell is not None else None

    def display(self, ref: RefLike) -> str:
        cell = self.cell(ref)
        return cell.display() if cell is not None else ""

    def set_value(self, ref: RefLike, value: Any) -> Cell:
        """Set a plain (already-computed) value; does NOT route through the
        compute engine — use Workbook.set for user input."""
        cell = self.ensure_cell(ref)
        cell.set_value(value)
        return cell

    def clear_cell(self, ref: RefLike) -> None:
        address = self._addr(ref)
        self.store.delete(address.row, address.col)

    # -- range access --------------------------------------------------------------

    def range_cells(self, ref: RangeLike) -> Iterator[Tuple[CellAddress, Cell]]:
        """Occupied cells in the range, row-major."""
        reference = self._range(ref)
        for row, col, cell in self.store.get_range(
            reference.start.row,
            reference.start.col,
            reference.end.row,
            reference.end.col,
        ):
            yield CellAddress(row, col, sheet=self.name), cell

    def grid(self, ref: RangeLike) -> List[List[Any]]:
        """Dense value grid for a range (blanks are None)."""
        reference = self._range(ref)
        grid = [[None] * reference.n_cols for _ in range(reference.n_rows)]
        for address, cell in self.range_cells(reference):
            grid[address.row - reference.start.row][address.col - reference.start.col] = cell.value
        return grid

    def set_grid(self, anchor: RefLike, rows: List[List[Any]]) -> RangeAddress:
        """Write a dense grid of plain values anchored at ``anchor``."""
        top_left = self._addr(anchor)
        n_rows = len(rows)
        n_cols = max((len(row) for row in rows), default=0)
        for row_offset, row in enumerate(rows):
            for col_offset, value in enumerate(row):
                self.set_value(
                    CellAddress(top_left.row + row_offset, top_left.col + col_offset),
                    value,
                )
        return RangeAddress.from_dimensions(
            top_left.row, top_left.col, max(n_rows, 1), max(n_cols, 1), sheet=self.name
        )

    def clear_range(self, ref: RangeLike) -> int:
        reference = self._range(ref)
        return self.store.clear_range(
            reference.start.row,
            reference.start.col,
            reference.end.row,
            reference.end.col,
        )

    def used_range(self) -> Optional[RangeAddress]:
        bounds = self.store.used_bounds()
        if bounds is None:
            return None
        top, left, bottom, right = bounds
        return RangeAddress(
            CellAddress(top, left, sheet=self.name),
            CellAddress(bottom, right, sheet=self.name),
        )

    @property
    def n_cells(self) -> int:
        return len(self.store)

    # -- formula inventory ----------------------------------------------------

    def formula_cells(self) -> Iterator[Tuple[CellAddress, Cell]]:
        for row, col, cell in self.store.items():
            if cell.is_formula:
                yield CellAddress(row, col, sheet=self.name), cell

    # -- structural edits (key-space splices in the store — no cell moves;
    #    the workbook re-anchors regions and tells the compute engine) ------

    def insert_rows(self, at: int, count: int = 1) -> int:
        return self.store.insert_rows(at, count)

    def delete_rows(self, at: int, count: int = 1) -> int:
        return self.store.delete_rows(at, count)

    def insert_cols(self, at: int, count: int = 1) -> int:
        return self.store.insert_cols(at, count)

    def delete_cols(self, at: int, count: int = 1) -> int:
        return self.store.delete_cols(at, count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sheet({self.name!r}, {self.n_cells} cells)"
