"""Two-dimensional index over spreadsheet cell blocks.

Paper §3, *Interface Storage Manager*: "the component groups the cells
together by proximity and splits the groups into data blocks ... the blocks
are further indexed by a two-dimensional indexing method."

:class:`GridIndex` partitions the cells plane into fixed-size tiles; a hash
map keyed by tile coordinate gives O(1) point access and
O(tiles-overlapping-range) range queries.  Tiles suit spreadsheets because
edits cluster strongly, and per-tile bounding boxes answer used-range
probes from tile summaries instead of cells.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["GridIndex"]


class GridIndex:
    """Fixed-tile spatial hash: (row, col) → payload, tile-bucketed."""

    def __init__(self, tile_rows: int = 64, tile_cols: int = 16):
        if tile_rows <= 0 or tile_cols <= 0:
            raise ValueError("tile dimensions must be positive")
        self.tile_rows = tile_rows
        self.tile_cols = tile_cols
        self._tiles: Dict[Tuple[int, int], Dict[Tuple[int, int], Any]] = {}
        # Per-tile bounding boxes [min_row, min_col, max_row, max_col]:
        # the metadata that lets used_bounds-style probes answer from
        # tile summaries instead of scanning cells.  Kept exact: puts
        # expand, removes shrink-by-rescan only when an extreme cell left.
        self._bounds: Dict[Tuple[int, int], List[int]] = {}
        self._count = 0

    def _tile_key(self, row: int, col: int) -> Tuple[int, int]:
        return (row // self.tile_rows, col // self.tile_cols)

    def __len__(self) -> int:
        return self._count

    @property
    def n_tiles(self) -> int:
        return len(self._tiles)

    def put(self, row: int, col: int, payload: Any) -> None:
        key = self._tile_key(row, col)
        tile = self._tiles.setdefault(key, {})
        if (row, col) not in tile:
            self._count += 1
        tile[(row, col)] = payload
        bounds = self._bounds.get(key)
        if bounds is None:
            self._bounds[key] = [row, col, row, col]
        else:
            if row < bounds[0]:
                bounds[0] = row
            if col < bounds[1]:
                bounds[1] = col
            if row > bounds[2]:
                bounds[2] = row
            if col > bounds[3]:
                bounds[3] = col

    def get(self, row: int, col: int, default: Any = None) -> Any:
        tile = self._tiles.get(self._tile_key(row, col))
        if tile is None:
            return default
        return tile.get((row, col), default)

    def remove(self, row: int, col: int) -> bool:
        key = self._tile_key(row, col)
        tile = self._tiles.get(key)
        if tile is None or (row, col) not in tile:
            return False
        del tile[(row, col)]
        self._count -= 1
        if not tile:
            del self._tiles[key]
            del self._bounds[key]
            return True
        bounds = self._bounds[key]
        if row in (bounds[0], bounds[2]) or col in (bounds[1], bounds[3]):
            rows = [r for r, _ in tile]
            cols = [c for _, c in tile]
            bounds[0], bounds[1] = min(rows), min(cols)
            bounds[2], bounds[3] = max(rows), max(cols)
        return True

    def query_range(
        self, top: int, left: int, bottom: int, right: int
    ) -> Iterator[Tuple[int, int, Any]]:
        """All occupied cells in the inclusive rectangle, row-major order."""
        results: List[Tuple[int, int, Any]] = []
        tile_top = top // self.tile_rows
        tile_bottom = bottom // self.tile_rows
        tile_left = left // self.tile_cols
        tile_right = right // self.tile_cols
        n_candidate_tiles = (tile_bottom - tile_top + 1) * (tile_right - tile_left + 1)
        if n_candidate_tiles <= len(self._tiles):
            candidates = (
                (tr, tc)
                for tr in range(tile_top, tile_bottom + 1)
                for tc in range(tile_left, tile_right + 1)
            )
        else:
            candidates = (
                key
                for key in self._tiles
                if tile_top <= key[0] <= tile_bottom and tile_left <= key[1] <= tile_right
            )
        for key in candidates:
            tile = self._tiles.get(key)
            if not tile:
                continue
            for (row, col), payload in tile.items():
                if top <= row <= bottom and left <= col <= right:
                    results.append((row, col, payload))
        results.sort(key=lambda item: (item[0], item[1]))
        return iter(results)

    def tiles_overlapping(self, top: int, left: int, bottom: int, right: int) -> int:
        """How many *occupied* tiles a range query touches (E8 metric)."""
        tile_top, tile_bottom = top // self.tile_rows, bottom // self.tile_rows
        tile_left, tile_right = left // self.tile_cols, right // self.tile_cols
        return sum(
            1
            for key in self._tiles
            if tile_top <= key[0] <= tile_bottom and tile_left <= key[1] <= tile_right
        )

    def items(self) -> Iterator[Tuple[int, int, Any]]:
        for tile in self._tiles.values():
            for (row, col), payload in tile.items():
                yield row, col, payload

    # -- bounds from tile metadata ----------------------------------------

    def _extreme_in(
        self, axis: int, lo: int, hi: int, smallest: bool
    ) -> Optional[int]:
        """Extreme occupied coordinate on ``axis`` (0=row, 1=col) within
        ``[lo, hi]``.  One pass over the tile directory groups tiles by
        stripe; the extreme stripe is then answered from the per-tile
        bounding boxes — cells are only inspected in *boundary* tiles
        whose bounds straddle the interval edge.  Only a boundary stripe
        with no in-interval cells forces a second stripe."""
        tile_span = self.tile_rows if axis == 0 else self.tile_cols
        stripe_lo, stripe_hi = lo // tile_span, hi // tile_span
        by_stripe: Dict[int, List[Tuple[Tuple[int, int], List[int]]]] = {}
        for key, bounds in self._bounds.items():
            stripe = key[axis]
            if stripe_lo <= stripe <= stripe_hi:
                by_stripe.setdefault(stripe, []).append((key, bounds))
        for stripe in sorted(by_stripe, reverse=not smallest):
            # The best any cell in this stripe can do:
            limit = max(lo, stripe * tile_span) if smallest else min(
                hi, stripe * tile_span + tile_span - 1
            )
            best: Optional[int] = None
            for key, bounds in by_stripe[stripe]:
                tile_lo, tile_hi = bounds[axis], bounds[axis + 2]
                if tile_hi < lo or tile_lo > hi:
                    continue  # metadata says: nothing in the interval
                if lo <= tile_lo and tile_hi <= hi:
                    candidate = tile_lo if smallest else tile_hi  # metadata only
                else:
                    matches = [
                        coords[axis]
                        for coords in self._tiles[key]
                        if lo <= coords[axis] <= hi
                    ]
                    if not matches:
                        continue
                    candidate = min(matches) if smallest else max(matches)
                if best is None or (candidate < best if smallest else candidate > best):
                    best = candidate
                    if best == limit:
                        return best
            if best is not None:
                return best
        return None

    def extreme_row_in(self, lo: int, hi: int, smallest: bool = True) -> Optional[int]:
        """Smallest (or largest) occupied row within rows ``[lo, hi]``,
        derived from tile metadata — see :meth:`_extreme_in`."""
        return self._extreme_in(0, lo, hi, smallest)

    def extreme_col_in(self, lo: int, hi: int, smallest: bool = True) -> Optional[int]:
        """Column-axis twin of :meth:`extreme_row_in`."""
        return self._extreme_in(1, lo, hi, smallest)
