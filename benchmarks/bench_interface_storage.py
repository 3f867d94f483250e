"""E8 — §3 interface storage manager: proximity blocks + 2-D index.

Paper claim: grouping schema-free cells "by proximity" into blocks indexed
"by a two-dimensional indexing method" makes range retrieval efficient.

We populate a sparse sheet (dense islands on a huge canvas — the realistic
spreadsheet shape) and measure window-sized range queries under:

* the grid (tile) index — DataSpread's 2-D index,
* a flat dict scanned per query — the no-index strawman.

Expected shape: the grid answers a 40×20 window in time proportional to
the cells in the window; the flat dict scans all occupied cells per query,
linear in sheet size.  Tile-size ablation included (DESIGN.md §5).
"""

import random

import pytest

from repro.interface_storage import CellStore
from repro.workloads.traces import random_jump_trace

N_ISLANDS = 40
ISLAND = 50  # each island is ISLAND x 10 cells
WINDOW_ROWS, WINDOW_COLS = 40, 20


def island_cells(seed=11):
    rng = random.Random(seed)
    cells = []
    for _ in range(N_ISLANDS):
        top = rng.randrange(0, 100_000)
        left = rng.randrange(0, 500)
        for dr in range(ISLAND):
            for dc in range(10):
                cells.append((top + dr, left + dc, dr * dc))
    return cells


CELLS = island_cells()
QUERY_ANCHORS = [(row, col) for row, col, _ in CELLS[:: len(CELLS) // 200]]


def populated_store(tile_rows: int = 64, tile_cols: int = 16):
    store = CellStore(tile_rows=tile_rows, tile_cols=tile_cols)
    for row, col, value in CELLS:
        store.set(row, col, value)
    return store


def test_window_range_query(benchmark):
    store = populated_store()
    anchors = iter(QUERY_ANCHORS * 10_000)

    def query():
        row, col = next(anchors)
        return sum(1 for _ in store.get_range(row, col, row + WINDOW_ROWS - 1,
                                              col + WINDOW_COLS - 1))

    hits = benchmark(query)
    benchmark.extra_info["index"] = "grid"
    benchmark.extra_info["occupied_cells"] = len(store)
    benchmark.extra_info["hits_last_query"] = hits


def test_window_range_query_flat_dict(benchmark):
    flat = {(row, col): value for row, col, value in CELLS}
    anchors = iter(QUERY_ANCHORS * 10_000)

    def query():
        row, col = next(anchors)
        bottom, right = row + WINDOW_ROWS - 1, col + WINDOW_COLS - 1
        return sum(
            1
            for (r, c) in flat
            if row <= r <= bottom and col <= c <= right
        )

    benchmark(query)
    benchmark.extra_info["index"] = "flat-dict-scan"
    benchmark.extra_info["occupied_cells"] = len(flat)


@pytest.mark.parametrize("tile_rows,tile_cols", [(16, 4), (64, 16), (256, 64)])
def test_grid_tile_size_ablation(benchmark, tile_rows, tile_cols):
    store = populated_store(tile_rows, tile_cols)
    anchors = iter(QUERY_ANCHORS * 10_000)

    def query():
        row, col = next(anchors)
        return sum(1 for _ in store.get_range(row, col, row + WINDOW_ROWS - 1,
                                              col + WINDOW_COLS - 1))

    benchmark(query)
    benchmark.extra_info["tile"] = f"{tile_rows}x{tile_cols}"
    benchmark.extra_info["n_blocks"] = store.n_blocks
    benchmark.extra_info["blocks_scanned_total"] = store.stats.blocks_scanned


def test_point_writes(benchmark):
    store = populated_store()
    rng = random.Random(7)
    coordinates = iter(
        [(rng.randrange(100_000), rng.randrange(500)) for _ in range(100_000)] * 10
    )

    def write():
        row, col = next(coordinates)
        store.set(row, col, 1)

    benchmark(write)
    benchmark.extra_info["index"] = "grid"
