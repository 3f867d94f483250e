"""Schema-free cell storage with proximity blocking and positional mapping.

Paper §3, *Interface Storage Manager*: "This interface data requires special
treatment as it does not have a schema.  The interface storage component
stores this data as a collection of cells.  To enable efficient retrieval
for a given range, the component groups the cells together by proximity and
splits the groups into data blocks ... the blocks are further indexed by a
two-dimensional indexing method."

:class:`CellStore` is that component.  Cells live in fixed-geometry *blocks*
(tiles) managed by the 2-D grid index from :mod:`repro.index.index2d`;
a range fetch touches only the blocks overlapping the range — the property
experiment E8 charts against a flat per-cell dictionary.

Structural edits are where the paper's positional index earns its keep at
the interface layer: cells are stored under **stable physical keys**, and a
:class:`~repro.index.posmap.PositionalMapper` per axis (the positional
index's key sequence over a fixed universe) translates the logical
row/column the user sees into the physical key the 2-D index stores.
``insert_rows``/``delete_rows`` splice the mapper's key space in
O(log s) — **zero stored cells move**; deletes only purge the cells that
actually occupied the removed slice.  The 2-D index keeps operating on
physical keys and never notices a structural edit happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.index.index2d import GridIndex
from repro.index.posmap import LOGICAL_MAX, PositionalMapper
from repro.obs.counters import Counters

__all__ = ["CellStore", "CellStoreStats"]

#: Upper bound on physical keys (mapper allocates fresh keys past
#: LOGICAL_MAX; a whole-axis purge query uses this as its far edge).
_PHYS_MAX = 1 << 44


@dataclass
class CellStoreStats(Counters):
    """Logical-work counters: how many blocks/cells operations touched.

    ``cells_moved`` counts cells physically relocated by a structural edit
    (zero on the positional-mapping path — the E8 headline number);
    ``cells_dropped`` counts cells destroyed because their row/column was
    deleted.  They are deliberately separate: a drop is mandatory work
    proportional to the removed slice, a move is pure overhead.
    """

    point_reads: int = 0
    point_writes: int = 0
    range_queries: int = 0
    blocks_scanned: int = 0
    cells_moved: int = 0
    cells_dropped: int = 0


class CellStore:
    """A sparse, unbounded 2-D map of cells grouped into proximity blocks."""

    def __init__(self, tile_rows: int = 64, tile_cols: int = 16):
        self.tile_rows = tile_rows
        self.tile_cols = tile_cols
        self._index = GridIndex(tile_rows, tile_cols)
        self.rows = PositionalMapper(seed=0xA11)
        self.cols = PositionalMapper(seed=0xB22)
        self.stats = CellStoreStats()

    # -- coordinate mapping -------------------------------------------------

    @property
    def pristine(self) -> bool:
        """True until the first structural edit: keys are positions."""
        return self.rows.pristine and self.cols.pristine

    def key_of(self, row: int, col: int) -> Tuple[int, int]:
        """Physical (row key, col key) of a logical position — what the
        compute layer and bound formulas address cells by."""
        # Fast path: until the first structural edit both mappers are the
        # identity, and point access pays nothing for the indirection.
        prow = row if self.rows.pristine else self.rows.key_at(row)
        pcol = col if self.cols.pristine else self.cols.key_at(col)
        return prow, pcol

    def position_of(self, prow: int, pcol: int) -> Optional[Tuple[int, int]]:
        """Logical (row, col) a physical key pair currently answers to;
        ``None`` once either key was freed by a delete."""
        row = prow if self.rows.pristine else self.rows.position_of(prow)
        col = pcol if self.cols.pristine else self.cols.position_of(pcol)
        return None if row is None or col is None else (row, col)

    # -- access by physical key (no translation) -----------------------------

    def at_key(self, prow: int, pcol: int, default: Any = None) -> Any:
        self.stats.point_reads += 1
        return self._index.get(prow, pcol, default)

    def put_key(self, prow: int, pcol: int, value: Any) -> None:
        self.stats.point_writes += 1
        self._index.put(prow, pcol, value)

    # -- point access ------------------------------------------------------

    def set(self, row: int, col: int, value: Any) -> None:
        if row < 0 or col < 0:
            raise ValueError("cell coordinates must be non-negative")
        if row >= LOGICAL_MAX or col >= LOGICAL_MAX:
            raise ValueError("cell coordinates exceed the addressable sheet")
        self.stats.point_writes += 1
        prow, pcol = self.key_of(row, col)
        self._index.put(prow, pcol, value)

    def get(self, row: int, col: int, default: Any = None) -> Any:
        self.stats.point_reads += 1
        if row < 0 or col < 0 or row >= LOGICAL_MAX or col >= LOGICAL_MAX:
            return default
        prow, pcol = self.key_of(row, col)
        return self._index.get(prow, pcol, default)

    def delete(self, row: int, col: int) -> bool:
        self.stats.point_writes += 1
        if row < 0 or col < 0 or row >= LOGICAL_MAX or col >= LOGICAL_MAX:
            return False
        prow, pcol = self.key_of(row, col)
        return self._index.remove(prow, pcol)

    def __len__(self) -> int:
        return len(self._index)

    @property
    def n_blocks(self) -> int:
        return self._index.n_tiles

    # -- range access --------------------------------------------------------

    def get_range(
        self, top: int, left: int, bottom: int, right: int
    ) -> Iterator[Tuple[int, int, Any]]:
        """All occupied cells in the inclusive rectangle, row-major.

        The logical rectangle maps to a small grid of physical rectangles
        (one per overlapping mapper span pair — a single one on a sheet
        with no structural edits)."""
        self.stats.range_queries += 1
        results: List[Tuple[int, int, Any]] = []
        for prow_lo, prow_hi, lrow_lo in self.rows.intervals(top, bottom):
            for pcol_lo, pcol_hi, lcol_lo in self.cols.intervals(left, right):
                self.stats.blocks_scanned += self._index.tiles_overlapping(
                    prow_lo, pcol_lo, prow_hi, pcol_hi
                )
                for prow, pcol, payload in self._index.query_range(
                    prow_lo, pcol_lo, prow_hi, pcol_hi
                ):
                    results.append(
                        (lrow_lo + (prow - prow_lo), lcol_lo + (pcol - pcol_lo), payload)
                    )
        results.sort(key=lambda item: (item[0], item[1]))
        return iter(results)

    def items(self) -> Iterator[Tuple[int, int, Any]]:
        """All occupied cells at their *logical* coordinates (unordered)."""
        for prow, pcol, payload in self._index.items():
            lrow = self.rows.position_of(prow)
            lcol = self.cols.position_of(pcol)
            if lrow is None or lcol is None:  # pragma: no cover - purged keys
                continue
            yield lrow, lcol, payload

    def used_bounds(self) -> Optional[Tuple[int, int, int, int]]:
        """Bounding box of occupied cells: (top, left, bottom, right).

        Derived from the 2-D index's tile metadata instead of a full cell
        scan: per mapper span, only the extreme occupied tile stripe is
        inspected.  An un-spliced sheet (a single span per axis) pays one
        metadata probe per edge."""
        if len(self._index) == 0:
            return None
        row_spans = self.rows.intervals(0, LOGICAL_MAX - 1)
        col_spans = self.cols.intervals(0, LOGICAL_MAX - 1)
        top = bottom = left = right = None
        for plo, phi, llo in row_spans:
            found = self._index.extreme_row_in(plo, phi, smallest=True)
            if found is not None:
                top = llo + (found - plo)
                break
        for plo, phi, llo in reversed(row_spans):
            found = self._index.extreme_row_in(plo, phi, smallest=False)
            if found is not None:
                bottom = llo + (found - plo)
                break
        for plo, phi, llo in col_spans:
            found = self._index.extreme_col_in(plo, phi, smallest=True)
            if found is not None:
                left = llo + (found - plo)
                break
        for plo, phi, llo in reversed(col_spans):
            found = self._index.extreme_col_in(plo, phi, smallest=False)
            if found is not None:
                right = llo + (found - plo)
                break
        if top is None or left is None:  # pragma: no cover - index said non-empty
            return None
        return (top, left, bottom, right)

    # -- structural edits ------------------------------------------------------

    def _purge(self, intervals: List[Tuple[int, int]], axis: str) -> List[Tuple[int, int, Any]]:
        """Remove every cell whose physical row/col falls in ``intervals``;
        returns the dropped ``(row key, col key, payload)`` triples.  Cost
        is proportional to the blocks overlapping the removed slice, not to
        the sheet."""
        doomed: List[Tuple[int, int, Any]] = []
        for lo, hi in intervals:
            if axis == "row":
                doomed.extend(self._index.query_range(lo, 0, hi, _PHYS_MAX))
            else:
                doomed.extend(self._index.query_range(0, lo, _PHYS_MAX, hi))
        for prow, pcol, _ in doomed:
            self._index.remove(prow, pcol)
        self.stats.cells_dropped += len(doomed)
        return doomed

    def splice(
        self, axis: str, at: int, count: int
    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int, Any]]]:
        """Insert (``count > 0``) or delete (``count < 0``) ``abs(count)``
        rows (``axis='row'``) or columns at ``at`` by splicing the mapper's
        key space: every cell past the edit answers to a shifted logical
        position and **no stored cell moves**.  Returns the freed physical
        key intervals (a delete's slice; an insert frees only what it
        pushes off the end of the universe) and the cells that lived on
        them, which are dropped."""
        freed = (self.rows if axis == "row" else self.cols).splice(at, count)
        return freed, self._purge(freed, axis)

    def insert_rows(self, at: int, count: int = 1) -> int:
        """Returns the number of cells physically relocated (always 0)."""
        if count > 0:
            self.splice("row", at, count)
        return 0

    def delete_rows(self, at: int, count: int = 1) -> int:
        """Returns the number of cells dropped."""
        return len(self.splice("row", at, -count)[1]) if count > 0 else 0

    def insert_cols(self, at: int, count: int = 1) -> int:
        if count > 0:
            self.splice("col", at, count)
        return 0

    def delete_cols(self, at: int, count: int = 1) -> int:
        return len(self.splice("col", at, -count)[1]) if count > 0 else 0

    def clear_range(self, top: int, left: int, bottom: int, right: int) -> int:
        """Empty the rectangle; returns the number of cells removed."""
        doomed = [
            (row, col) for row, col, _ in self.get_range(top, left, bottom, right)
        ]
        removed = 0
        for row, col in doomed:
            prow, pcol = self.key_of(row, col)
            removed += bool(self._index.remove(prow, pcol))
        return removed
