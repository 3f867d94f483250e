"""E6 — §3 relational storage manager: schema-change cost by layout.

Paper claim: attribute-group storage "radically reduc[es] the disk blocks
that need an update during a schema change", making ADD COLUMN as cheap as
a tuple update.

We measure, per layout (row / column / hybrid with varying group size):

* blocks written by ``ADD COLUMN`` (the headline claim),
* blocks written by a single-column tuple update (the parity target),
* tuple insert cost (the trade-off: one page per group).

Expected shape: row store rewrites all ~n/page_capacity blocks on ADD
COLUMN but pays 1 block per insert; hybrid/column write ~0 blocks on ADD
COLUMN and ``n_groups`` blocks per insert.  The crossover argument: for
schema-change-heavy (spreadsheet-like) workloads the hybrid wins.
"""

import pytest

from repro.engine.schema import Column, TableSchema
from repro.engine.store import GroupedTupleStore, LayoutPolicy
from repro.engine.types import DBType

N_ROWS = 4096
N_COLS = 8
PAGE_CAPACITY = 64


def make_store(layout: str, group_size: int = 2):
    pairs = [(f"c{i}", DBType.INTEGER) for i in range(N_COLS)]
    # ROW and COLUMN regroup the schema to their extreme; HYBRID keeps
    # the group_size-wide groups it was built with.
    store = GroupedTupleStore(
        TableSchema.from_pairs(pairs, group_size=group_size),
        layout=LayoutPolicy(layout),
        page_capacity=PAGE_CAPACITY,
    )
    row = tuple(range(N_COLS))
    for _ in range(N_ROWS):
        store.insert(row)
    store.checkpoint()
    return store


LAYOUTS = ["row", "column", "hybrid"]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_add_column_blocks(benchmark, layout):
    stores = iter([])
    names = iter(range(10_000_000))
    state = {"store": make_store(layout), "adds": 0}

    def add_column():
        store = state["store"]
        if store.schema.n_columns > N_COLS + 40:
            state["store"] = store = make_store(layout)
        before = store.pool.stats.snapshot()
        state["rewritten"] = store.add_column(
            Column(f"x{next(names)}", DBType.INTEGER, default=0)
        )
        store.checkpoint()
        state["adds"] += 1
        state["blocks"] = store.pool.stats.delta(before).writes
        return state["blocks"]

    benchmark(add_column)
    benchmark.extra_info["layout"] = layout
    benchmark.extra_info["n_rows"] = N_ROWS
    benchmark.extra_info["blocks_written_last_add"] = state.get("blocks")
    benchmark.extra_info["existing_pages_rewritten"] = state.get("rewritten")
    # Paper-shape assertion (E6): attribute-group layouts add a column
    # without rewriting any existing page; the row store rewrites them all.
    if layout == "row":
        assert state["rewritten"] >= N_ROWS // PAGE_CAPACITY
    else:
        assert state["rewritten"] == 0


@pytest.mark.parametrize("layout", LAYOUTS)
def test_tuple_update_blocks(benchmark, layout):
    store = make_store(layout)
    rids = store.rids()
    cursor = iter(range(10_000_000))

    def update_one():
        rid = rids[next(cursor) % len(rids)]
        before = store.pool.stats.snapshot()
        store.update_column(rid, "c3", 999)
        store.checkpoint()
        return store.pool.stats.delta(before).writes

    blocks = benchmark(update_one)
    benchmark.extra_info["layout"] = layout
    benchmark.extra_info["blocks_written_per_update"] = blocks
    # A single-column update touches exactly one block in every layout.
    assert blocks == 1


@pytest.mark.parametrize("layout", LAYOUTS)
def test_tuple_insert_blocks(benchmark, layout):
    store = make_store(layout)
    row = tuple(range(N_COLS))

    def insert_one():
        before = store.pool.stats.snapshot()
        store.insert(row)
        store.checkpoint()
        return store.pool.stats.delta(before).writes

    blocks = benchmark(insert_one)
    benchmark.extra_info["layout"] = layout
    benchmark.extra_info["blocks_written_per_insert"] = blocks
    benchmark.extra_info["n_groups"] = store.schema.n_groups
    # The trade-off: an insert dirties one page per attribute group.
    assert blocks == store.schema.n_groups


@pytest.mark.parametrize("group_size", [1, 2, 4, 8])
def test_hybrid_group_size_ablation(benchmark, group_size):
    """DESIGN.md §5 ablation: group size 1 = column store, 8 (= all
    columns) = row store; the hybrid sweet spot sits between."""
    store = make_store("hybrid", group_size=group_size)
    names = iter(range(10_000_000))

    def mixed_workload():
        before = store.pool.stats.snapshot()
        # Spreadsheet-like mix: 8 inserts, 4 single-column updates, 1 ADD.
        row = tuple(range(store.schema.n_columns))
        for _ in range(8):
            store.insert(row)
        for rid in store.rids()[:4]:
            store.update_column(rid, "c0", 1)
        rewritten = store.add_column(
            Column(f"g{next(names)}", DBType.INTEGER, default=0)
        )
        store.checkpoint()
        return store.pool.stats.delta(before).writes

    blocks = benchmark(mixed_workload)
    benchmark.extra_info["group_size"] = group_size
    benchmark.extra_info["blocks_per_mixed_round"] = blocks
