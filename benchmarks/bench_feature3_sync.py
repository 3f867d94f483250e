"""E3 — Feature 3 / Fig 2c: two-way synchronisation latency.

Paper claim: "as modifications are made to the table on the front-end the
data in the relational database is updated, and the data displayed in cells
[of a dependent DBSQL] is immediately updated" — and the reverse direction.

We measure the full edit→DB→dependent-update round trip in both
directions, plus the batching win (one render for a bulk statement rather
than one per row).

Expected shape: neither direction re-runs a query.  The dependent
``SELECT sum(qty)`` folds the changed row into its maintained sum and the
windowed DBTABLE patches the one row it shows, so an edit examines no row
beyond the statement's own primary-key probe and refreshes no region — the
same work at every table size (asserted on logical counts, not timings).
A bulk insert renders each region once per batch.

``BENCH_SMOKE=1 python -m pytest benchmarks/bench_feature3_sync.py -q
--benchmark-disable`` runs every assertion once, without timing.
"""

import pytest

from repro import Workbook
from repro.workloads.traces import random_edit_trace

SIZES = [100, 1000, 5000]


def make_synced_workbook(n_rows: int):
    wb = Workbook()
    wb.execute("CREATE TABLE items (id INT PRIMARY KEY, qty INT)")
    table = wb.database.table("items")
    for i in range(n_rows):
        table.insert((i, i % 100), emit=False)
    region = wb.dbtable("Sheet1", "A1", "items", window_rows=40)
    wb.dbsql("Sheet1", "E1", "SELECT sum(qty) FROM items")
    return wb, region


def _rows_scanned(span) -> int:
    return span.counters.get("rows_scanned", 0) + sum(
        _rows_scanned(child) for child in span.children
    )


def edit_cost(wb: Workbook, edit) -> tuple:
    """(rows scanned, regions refreshed, regions patched) of one edit."""
    database = wb.database
    wb.sync.stats.reset()
    with database.tracer.begin("edit"):
        edit()
    tree = database.tracer.finish()
    stats = wb.sync.stats
    return _rows_scanned(tree), stats.regions_refreshed, stats.regions_patched


def frontend_edit(wb: Workbook, trace):
    row, _, value = next(trace)
    wb.set("Sheet1", f"B{row + 2}", value)  # qty column, below header
    return wb.get("Sheet1", "E1")


def backend_update(wb: Workbook, values):
    wb.execute(f"UPDATE items SET qty = {next(values) % 100} WHERE id = 7")
    return wb.get("Sheet1", "E1")


def test_work_per_edit_is_independent_of_table_size():
    """Both round trips cost the same logical work at every ``n_rows``:
    no region re-query, and no row examined beyond the UPDATE's own
    primary-key probe."""
    costs = []
    for n_rows in SIZES:
        wb, _ = make_synced_workbook(n_rows)
        trace = iter(random_edit_trace(38, 1, 100_000, seed=5))
        values = iter(range(10_000_000))
        costs.append(
            (
                edit_cost(wb, lambda: frontend_edit(wb, trace)),
                edit_cost(wb, lambda: backend_update(wb, values)),
            )
        )
    assert costs == [costs[0]] * len(SIZES)
    frontend, backend = costs[0]
    assert frontend == (0, 0, 2)  # the edit goes by rid: nothing scanned
    assert backend == (1, 0, 2)  # the UPDATE's one-row key probe


@pytest.mark.parametrize("n_rows", SIZES)
def test_frontend_edit_roundtrip(benchmark, n_rows):
    """Sheet edit -> UPDATE -> dependent DBSQL update (Fig 2c forward)."""
    wb, _ = make_synced_workbook(n_rows)
    trace = iter(random_edit_trace(38, 1, 100_000, seed=5))
    before = wb.sync.stats.regions_refreshed

    benchmark(frontend_edit, wb, trace)
    assert wb.sync.stats.regions_refreshed == before
    assert wb.get("Sheet1", "E1") == wb.database.execute(
        "SELECT sum(qty) FROM items"
    ).scalar()
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["sync_events"] = wb.sync.stats.events_received


@pytest.mark.parametrize("n_rows", SIZES)
def test_backend_update_roundtrip(benchmark, n_rows):
    """SQL UPDATE -> region patch + dependent DBSQL update."""
    wb, _ = make_synced_workbook(n_rows)
    values = iter(range(10_000_000))
    before = wb.sync.stats.regions_refreshed

    benchmark(backend_update, wb, values)
    assert wb.sync.stats.regions_refreshed == before
    benchmark.extra_info["n_rows"] = n_rows


@pytest.mark.parametrize("bulk", [10, 100])
def test_bulk_insert_batched_render(benchmark, bulk):
    """One render per region per batch, not per row (the sync batching win)."""
    wb, _ = make_synced_workbook(30)
    next_id = iter(range(1000, 10_000_000))

    def bulk_insert():
        stats = wb.sync.stats
        stats.reset()
        with wb.batch():
            for _ in range(bulk):
                wb.database.execute(f"INSERT INTO items VALUES ({next(next_id)}, 1)")
        return stats.regions_refreshed, stats.regions_patched

    refreshed, patched = benchmark(bulk_insert)
    # The SUM renders its fold once; the DBTABLE re-fetches its window at
    # most once (only while the window still has room for new rows).
    assert patched == 1 and refreshed <= 1
    benchmark.extra_info["bulk_rows"] = bulk
    benchmark.extra_info["renders_per_batch"] = refreshed + patched
