"""Cell dependency graph.

Tracks, for every formula cell, which cells and ranges it reads.  A
:data:`CellKey` names a cell by the **physical** row/column keys of its
sheet's positional mappers (``CellStore.rows``/``.cols``) — the keys a
structural edit never changes — so formula keys and the cell edges,
which ``_cell_subs`` holds in physical tiles, are all untouched by an
insert or delete of rows or columns.

Range precedents (``SUM(A1:A1000)``) are kept as *subscriptions* rather
than being expanded into a thousand edges.  A subscription holds the bound
range (a pair of corner keys) plus the logical rectangle those corners
currently span, and is bucketed by the tiles of that rectangle — the one
structure here indexed by *position*.  When a cell changes, its dependents
are its direct edges plus the subscriptions whose rectangle contains its
current position; after a splice, :meth:`DependencyGraph.resubscribe`
re-reads the rectangle of just the subscriptions that reach the shifted
half-space and moves them to their new buckets.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.address import CellAddress, RangeAddress
from repro.errors import CircularDependencyError

__all__ = ["CellKey", "DependencyGraph", "RangeSub"]

#: (sheet_name, row key, col key) — sheet names are case-sensitive
#: identifiers here; the keys are positions until the sheet is first spliced.
CellKey = Tuple[str, int, int]

#: Logical (top, left, bottom, right).
Extent = Tuple[int, int, int, int]

_TILE = 256


def key_of(address: CellAddress, default_sheet: str) -> CellKey:
    return (address.sheet or default_sheet, address.row, address.col)


class RangeSub:
    """``dependent`` reads the bound range ``reference`` of ``sheet``,
    which currently spans the logical rectangle ``extent``."""

    __slots__ = ("sheet", "reference", "dependent", "extent")

    def __init__(self, sheet: str, reference: RangeAddress, dependent: CellKey, extent: Extent):
        self.sheet = sheet
        self.reference = reference
        self.dependent = dependent
        self.extent = extent


class DependencyGraph:
    """Bidirectional formula dependency tracking."""

    def __init__(
        self, locate: Optional[Callable[[CellKey], Optional[Tuple[int, int]]]] = None
    ) -> None:
        #: physical key -> current logical (row, col), ``None`` for a key a
        #: delete freed.  The identity until a sheet is spliced.
        self._locate = locate or (lambda key: (key[1], key[2]))
        # dependent -> its direct cell precedents
        self._precedent_cells: Dict[CellKey, Tuple[CellKey, ...]] = {}
        # dependent -> its range subscriptions
        self._precedent_ranges: Dict[CellKey, List[RangeSub]] = {}
        # sheet -> logical tile -> subscriptions whose extent overlaps it
        self._range_subs: Dict[str, Dict[Tuple[int, int], Set[RangeSub]]] = (
            defaultdict(lambda: defaultdict(set))
        )
        # sheet -> physical tile -> precedent cell -> its dependents: the
        # cell edges, tiled so that a delete finds every formula reading a
        # freed key without scanning all of them.
        self._cell_subs: Dict[str, Dict[Tuple[int, int], Dict[CellKey, Set[CellKey]]]] = (
            defaultdict(lambda: defaultdict(dict))
        )

    # -- registration -----------------------------------------------------

    @staticmethod
    def _tiles_of(extent: Extent) -> Iterable[Tuple[int, int]]:
        top, left, bottom, right = extent
        for tile_row in range(top // _TILE, bottom // _TILE + 1):
            for tile_col in range(left // _TILE, right // _TILE + 1):
                yield (tile_row, tile_col)

    def _extent_of(self, sheet: str, reference: RangeAddress) -> Optional[Extent]:
        """The logical rectangle between the corner keys; ``None`` when a
        corner's key was freed."""
        start = self._locate((sheet, reference.start.row, reference.start.col))
        end = self._locate((sheet, reference.end.row, reference.end.col))
        if start is None or end is None:
            return None
        return start + end

    def set_dependencies(
        self,
        dependent: CellKey,
        cells: Iterable[CellAddress],
        ranges: Iterable[RangeAddress],
        default_sheet: Optional[str] = None,
    ) -> None:
        """Replace the precedent set of ``dependent`` (addresses are bound:
        their coordinates are keys)."""
        sheet = default_sheet or dependent[0]
        self.clear_dependencies(dependent)
        cell_keys = tuple(dict.fromkeys(key_of(address, sheet) for address in cells))
        self._precedent_cells[dependent] = cell_keys
        for cell_key in cell_keys:
            tile = (cell_key[1] // _TILE, cell_key[2] // _TILE)
            self._cell_subs[cell_key[0]][tile].setdefault(cell_key, set()).add(dependent)
        subs = self._precedent_ranges[dependent] = []
        for reference in ranges:
            range_sheet = reference.sheet or sheet
            extent = self._extent_of(range_sheet, reference)
            if extent is None:
                continue  # a dead range has no cells to hear from
            sub = RangeSub(range_sheet, reference, dependent, extent)
            subs.append(sub)
            for tile in self._tiles_of(extent):
                self._range_subs[range_sheet][tile].add(sub)

    def clear_dependencies(self, dependent: CellKey) -> None:
        """Remove every edge of ``dependent``."""
        for cell_key in self._precedent_cells.pop(dependent, ()):
            tiles = self._cell_subs[cell_key[0]]
            tile = (cell_key[1] // _TILE, cell_key[2] // _TILE)
            readers = tiles[tile][cell_key]
            readers.discard(dependent)
            if not readers:
                del tiles[tile][cell_key]
                if not tiles[tile]:
                    del tiles[tile]
        for sub in self._precedent_ranges.pop(dependent, ()):
            self._unbucket(sub)

    def _unbucket(self, sub: RangeSub) -> None:
        sheet_subs = self._range_subs.get(sub.sheet)
        if sheet_subs is None:
            return
        for tile in self._tiles_of(sub.extent):
            bucket = sheet_subs.get(tile)
            if bucket is not None:
                bucket.discard(sub)
                if not bucket:
                    del sheet_subs[tile]

    # -- structural edits ---------------------------------------------------

    def resubscribe(
        self, sheet: str, axis: str, at: int
    ) -> Tuple[List[RangeSub], List[RangeSub], int]:
        """Rows (``axis='row'``) or columns of ``sheet`` were inserted or
        deleted at ``at``.  Re-reads the extent of every subscription that
        reached the half-space ``>= at`` and moves it to its new tile
        buckets; cost is those subscriptions, not the sheet's formulas.

        Returns ``(resized, broken, touched)``: subscriptions whose span
        along the axis changed (rows entered or left the range — their
        readers must recompute), those with a corner on a freed key
        (left as they were, for the caller to re-bind or drop), and how
        many were looked at."""
        lo, hi = (0, 2) if axis == "row" else (1, 3)
        floor = at // _TILE
        reached = {
            sub
            for tile, bucket in self._range_subs.get(sheet, {}).items()
            if tile[lo] >= floor
            for sub in bucket
            if sub.extent[hi] >= at
        }
        resized: List[RangeSub] = []
        broken: List[RangeSub] = []
        for sub in sorted(reached, key=lambda sub: sub.dependent):  # replay-stable
            extent = self._extent_of(sheet, sub.reference)
            if extent is None:
                broken.append(sub)
                continue
            if extent[hi] - extent[lo] != sub.extent[hi] - sub.extent[lo]:
                resized.append(sub)
            self._unbucket(sub)
            sub.extent = extent
            for tile in self._tiles_of(extent):
                self._range_subs[sheet][tile].add(sub)
        return resized, broken, len(reached)

    def readers_of_keys(
        self, sheet: str, axis: str, intervals: List[Tuple[int, int]]
    ) -> Set[CellKey]:
        """Dependents holding a direct cell reference to a row (column) key
        inside ``intervals`` — the keys a delete just freed.  Walks only
        the physical tiles those intervals cover."""
        index = 1 if axis == "row" else 2
        readers: Set[CellKey] = set()
        for tile, bucket in self._cell_subs.get(sheet, {}).items():
            for lo, hi in intervals:
                if lo // _TILE <= tile[index - 1] <= hi // _TILE:
                    for cell_key, dependents in bucket.items():
                        if lo <= cell_key[index] <= hi:
                            readers.update(dependents)
        return readers

    # -- queries ------------------------------------------------------------

    def dependents_of(self, key: CellKey) -> Set[CellKey]:
        """Formula cells that read ``key`` directly or via a range."""
        tile = (key[1] // _TILE, key[2] // _TILE)
        result = set(self._cell_subs.get(key[0], {}).get(tile, {}).get(key, ()))
        sheet_subs = self._range_subs.get(key[0])
        if sheet_subs:
            position = self._locate(key)
            if position is not None:
                row, col = position
                for sub in sheet_subs.get((row // _TILE, col // _TILE), ()):
                    top, left, bottom, right = sub.extent
                    if top <= row <= bottom and left <= col <= right:
                        result.add(sub.dependent)
        return result

    def has_node(self, key: CellKey) -> bool:
        return key in self._precedent_cells or key in self._precedent_ranges

    # -- transitive closure ------------------------------------------------------

    def all_dependents(self, keys: Iterable[CellKey]) -> Set[CellKey]:
        """Transitive dependents of a set of changed cells (excluding the
        seeds themselves unless they also depend on another seed)."""
        result: Set[CellKey] = set()
        frontier: List[CellKey] = list(keys)
        while frontier:
            current = frontier.pop()
            for dependent in self.dependents_of(current):
                if dependent not in result:
                    result.add(dependent)
                    frontier.append(dependent)
        return result

    def check_no_cycle(self, start: CellKey) -> None:
        """DFS from ``start`` through dependents; raises on reaching
        ``start`` again.  (The compute engine also detects cycles at
        evaluation time; this is the cheap static check applied on edit.)"""
        stack = [start]
        seen: Set[CellKey] = set()
        while stack:
            current = stack.pop()
            for dependent in self.dependents_of(current):
                if dependent == start:
                    raise CircularDependencyError(
                        f"cell {start[0]}!({start[1]},{start[2]}) depends on itself"
                    )
                if dependent not in seen:
                    seen.add(dependent)
                    stack.append(dependent)

    def topo_order(self, keys: Set[CellKey]) -> List[CellKey]:
        """Order ``keys`` so precedents come before dependents (edges
        restricted to the given set; cycles raise)."""
        indegree: Dict[CellKey, int] = {key: 0 for key in keys}
        edges: Dict[CellKey, List[CellKey]] = {key: [] for key in keys}
        for key in keys:
            for dependent in self.dependents_of(key):
                if dependent in indegree:
                    edges[key].append(dependent)
                    indegree[dependent] += 1
        ready = sorted(key for key, degree in indegree.items() if degree == 0)
        order: List[CellKey] = []
        while ready:
            current = ready.pop()
            order.append(current)
            for dependent in edges[current]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(keys):
            raise CircularDependencyError("cycle detected in recalculation set")
        return order
