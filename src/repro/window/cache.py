"""Window block cache with sequential prefetch.

When the user pans through a large `DBTABLE`, consecutive viewports overlap
heavily.  The cache stores fixed-size *row blocks* per source (table or
query), serves window requests from cached blocks, and prefetches the next
block in the scroll direction — the optimisation §2.2(d) alludes to
("leverage the presentation information for prioritizing computations for
the data that is displayed").

The cache is deliberately source-agnostic: a *fetcher* callable supplies
``(start_row, count) -> rows``; hit/miss/prefetch counters feed E4.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.counters import Counters

__all__ = ["WindowCache"]

Fetcher = Callable[[int, int], List[Tuple[Any, ...]]]


@dataclass
class _CacheStats(Counters):
    hits: int = 0
    misses: int = 0
    prefetches: int = 0
    evictions: int = 0


class WindowCache:
    """LRU cache of row blocks for one scrollable source."""

    def __init__(
        self,
        fetcher: Fetcher,
        block_rows: int = 128,
        capacity_blocks: int = 16,
        prefetch: bool = True,
    ):
        if block_rows <= 0 or capacity_blocks <= 0:
            raise ValueError("block_rows and capacity_blocks must be positive")
        self._fetcher = fetcher
        self.block_rows = block_rows
        self.capacity_blocks = capacity_blocks
        self.prefetch = prefetch
        self._blocks: "OrderedDict[int, List[Tuple[Any, ...]]]" = OrderedDict()
        self._last_block: Optional[int] = None
        self.stats = _CacheStats()

    # -- block plumbing -----------------------------------------------------

    def _load_block(self, block_index: int, count_as_prefetch: bool = False) -> List[Tuple[Any, ...]]:
        cached = self._blocks.get(block_index)
        if cached is not None:
            self._blocks.move_to_end(block_index)
            self.stats.hits += 1
            return cached
        if count_as_prefetch:
            self.stats.prefetches += 1
        else:
            self.stats.misses += 1
        rows = self._fetcher(block_index * self.block_rows, self.block_rows)
        self._blocks[block_index] = rows
        self._blocks.move_to_end(block_index)
        while len(self._blocks) > self.capacity_blocks:
            self._blocks.popitem(last=False)
            self.stats.evictions += 1
        return rows

    # -- public API -----------------------------------------------------------

    def window(self, start_row: int, count: int) -> List[Tuple[Any, ...]]:
        """Rows ``[start_row, start_row+count)`` assembled from blocks."""
        if count <= 0:
            return []
        first_block = start_row // self.block_rows
        last_block = (start_row + count - 1) // self.block_rows
        rows: List[Tuple[Any, ...]] = []
        for block_index in range(first_block, last_block + 1):
            block = self._load_block(block_index)
            block_start = block_index * self.block_rows
            lo = max(start_row - block_start, 0)
            hi = min(start_row + count - block_start, len(block))
            if lo < hi:
                rows.extend(block[lo:hi])
        # Directional prefetch: if the user keeps scrolling down, warm the
        # next block; scrolling up warms the previous one.
        if self.prefetch and self._last_block is not None:
            if last_block > self._last_block:
                self._load_block(last_block + 1, count_as_prefetch=True)
            elif first_block < self._last_block and first_block > 0:
                self._load_block(first_block - 1, count_as_prefetch=True)
        self._last_block = last_block
        return rows

    def invalidate(self, row: Optional[int] = None) -> None:
        """Drop all blocks, or only the block containing ``row`` (after a
        sync update touches that row)."""
        if row is None:
            self._blocks.clear()
            self._last_block = None
            return
        block_index = row // self.block_rows
        self._blocks.pop(block_index, None)
        if self._last_block == block_index:
            # The scroll-direction hint pointed at the dropped block; keep
            # it and the next window() would prefetch in a stale direction
            # (or re-fetch a neighbour of data that no longer exists).
            self._last_block = None

    @property
    def cached_blocks(self) -> int:
        return len(self._blocks)

    @property
    def hit_ratio(self) -> float:
        total = self.stats.hits + self.stats.misses
        return self.stats.hits / total if total else 0.0
