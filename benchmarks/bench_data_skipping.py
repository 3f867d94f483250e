"""Data skipping and secondary indexes: the selective-read stack.

Zone maps + cost-based access paths, measured against what an exhaustive
scan of the same chains would fetch — the scan span's own
``pages_read + pages_skipped``, checked to equal the covering chains'
page count:

* a <= 1%-selectivity predicate over a 100k-row table fetches **>= 5x
  fewer pages** once zone maps are warm, and returns **exactly the rows
  the data generator predicts**,
* the planner picks an **index probe** for a point lookup and a **scan**
  for a non-selective predicate, verified via trace spans.

Headline numbers land in ``BENCH_data_skipping.json`` via
:func:`benchmarks.conftest.write_bench_json`.  Run ``BENCH_SMOKE=1``
(the CI smoke step) to shrink the table while keeping every assertion
live.
"""

from __future__ import annotations

import os

from repro.engine.database import Database

from .conftest import write_bench_json

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

N_ROWS = 10_000 if SMOKE else 100_000
SELECTIVE_FLOOR = N_ROWS - N_ROWS // 100  # the top 1% of v values
PAGE_RATIO_FLOOR = 5.0


def row_of(i: int):
    return (i, i, (i * 13) % 97)


def build_db() -> Database:
    db = Database(page_capacity=128, buffer_frames=64)
    db.execute("CREATE TABLE events (k INT PRIMARY KEY, v INT, w INT)")
    table = db.table("events")
    for i in range(N_ROWS):
        table.insert(row_of(i), emit=False)
    db.checkpoint()
    return db


def find_prefix(span, prefix: str):
    if span.name.startswith(prefix):
        return span
    for child in span.children:
        hit = find_prefix(child, prefix)
        if hit is not None:
            return hit
    return None


def traced_scan(db: Database, sql: str):
    """(rows, scan-span counters) for one cold-cache execution."""
    db.table("events").store.pool.drop_cache()
    result, trace = db.trace_statement(sql)
    return result.rows, find_prefix(trace, "ProjectedScan").counters


def test_selective_scan_reads_fewer_pages():
    skipping = build_db()
    store = skipping.table("events").store
    sql = f"SELECT k, w FROM events WHERE v >= {SELECTIVE_FLOOR}"

    # Warm the zone cache: the first pass fetches pages to compute their
    # zones; from then on dead pages are skipped without pool traffic.
    warm_rows, warm = traced_scan(skipping, sql)
    rows_skipping, counters = traced_scan(skipping, sql)
    pages_skipping = counters["pages_read"]
    # What a scan that skipped nothing would have fetched: every page of
    # the chains covering (k, v, w).
    pages_exhaustive = pages_skipping + counters["pages_skipped"]
    covering = {store.schema.group_of(name) for name in ("k", "v", "w")}
    assert pages_exhaustive == sum(store.pages_in_group(g) for g in covering)

    expected = [(k, w) for k, _, w in map(row_of, range(SELECTIVE_FLOOR, N_ROWS))]
    assert rows_skipping == warm_rows == expected
    assert pages_skipping > 0
    ratio = pages_exhaustive / pages_skipping
    assert ratio >= PAGE_RATIO_FLOOR, (
        f"skipping fetched {pages_skipping} pages vs {pages_exhaustive} "
        f"exhaustive — {ratio:.1f}x, need >= {PAGE_RATIO_FLOOR}x"
    )

    # The planner's access-path decisions, verified via trace spans: an
    # indexed point lookup probes the B+-tree; a non-selective range
    # predicate stays on the (skipping) scan.
    skipping.execute("CREATE UNIQUE INDEX idx_v ON events (v)")
    point_sql = f"SELECT k FROM events WHERE v = {N_ROWS // 2}"
    point_result, point_trace = skipping.trace_statement(point_sql)
    assert point_result.rows == [(N_ROWS // 2,)]
    index_span = find_prefix(point_trace, "IndexScan")
    assert index_span is not None, "point lookup must choose the index"
    assert index_span.counters["index_probes"] == 1

    range_result, range_trace = skipping.trace_statement(
        "SELECT k FROM events WHERE v >= 0"
    )
    assert len(range_result.rows) == N_ROWS
    assert find_prefix(range_trace, "IndexScan") is None
    scan_span = find_prefix(range_trace, "ProjectedScan")
    assert scan_span is not None, "non-selective predicate must stay a scan"

    snap = skipping.metrics()
    write_bench_json(
        "data_skipping",
        {
            "n_rows": N_ROWS,
            "selectivity": (N_ROWS - SELECTIVE_FLOOR) / N_ROWS,
            "rows_returned": len(rows_skipping),
            "pages_fetched_skipping": pages_skipping,
            "pages_fetched_exhaustive": pages_exhaustive,
            "page_ratio": round(ratio, 2),
            "warm_up_pages": warm["pages_read"],
            "db_pages_skipped": snap["db_pages_skipped"],
            "db_index_lookups": snap["db_index_lookups"],
            "point_lookup_path": "index",
            "range_scan_path": "scan",
        },
    )
