"""E5 — §3 positional index: O(log n) positional access vs the rownum
emulation a vanilla RDBMS needs.

Four operations per table size n, DataSpread (the positional index: rids
as runs of consecutive keys in a span treap) vs the naive baseline
(explicit rownum column, OFFSET-style scans, renumbering):

* ``window(pos, 40)`` — the viewport fetch,
* ``row_at(pos)`` — a point positional lookup,
* ``insert_at(middle)`` — a middle insert, which the baseline pays O(n)
  renumbering for,
* ``position_of(rid)`` — the reverse lookup an indexed point statement
  makes (which sheet row shows the record the key index found).  The
  baseline reads it off the stored rownum, and it is the renumbering above
  that keeps that column true; the index bisects for the span holding the
  rid and ranks the span by climbing parent links.  Asserted on logical
  work, not wall-clock: ``rank_steps`` per lookup stays ≤ 4·log2(n) after
  middle inserts, against ~n/2 rows the baseline renumbers per insert, and
  on a bulk-loaded 20 000-row table — one span — ``positions_of`` over
  every rid climbs no link at all.  Headline numbers land in
  ``BENCH_positional_index.json``; ``BENCH_SMOKE=1`` (the CI step, with
  ``-k reverse_lookup``) drops the largest size.

Expected shape: DataSpread flat-ish in n (log factor); baseline linear in n
for the first three — the gap at n=50k should be orders of magnitude.  The
``rows_scanned`` / ``rows_renumbered`` extra-info fields show the logical
work driving the wall-clock gap.
"""

import math
import os

import pytest

from repro.baselines.naive_db import NaiveDbTable
from repro.engine.schema import TableSchema
from repro.engine.table import Table
from repro.engine.types import DBType
from repro.workloads.traces import random_jump_trace

from .conftest import write_bench_json

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
SIZES = [1000, 10_000] if SMOKE else [1000, 10_000, 50_000]
WINDOW = 40


def make_dataspread_table(n_rows: int) -> Table:
    schema = TableSchema.from_pairs(
        [("id", DBType.INTEGER), ("v", DBType.REAL)], primary_key="id"
    )
    table = Table("t", schema)
    for i in range(n_rows):
        table.insert((i, float(i)), emit=False)
    return table


def make_naive_table(n_rows: int) -> NaiveDbTable:
    table = NaiveDbTable([("id", DBType.INTEGER), ("v", DBType.REAL)])
    for i in range(n_rows):
        table.append((i, float(i)))
    return table


@pytest.mark.parametrize("n_rows", SIZES)
def test_window_fetch_positional_index(benchmark, n_rows):
    table = make_dataspread_table(n_rows)
    positions = iter(random_jump_trace(n_rows, WINDOW, 10_000, seed=5) * 100)

    def fetch():
        return table.window(next(positions), WINDOW)

    benchmark(fetch)
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["system"] = "dataspread"


@pytest.mark.parametrize("n_rows", SIZES)
def test_window_fetch_offset_scan(benchmark, n_rows):
    table = make_naive_table(n_rows)
    positions = iter(random_jump_trace(n_rows, WINDOW, 10_000, seed=5) * 100)

    def fetch():
        return table.window(next(positions), WINDOW)

    benchmark(fetch)
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["system"] = "naive-rownum"
    benchmark.extra_info["rows_scanned"] = table.rows_scanned


@pytest.mark.parametrize("n_rows", SIZES)
def test_middle_insert_positional_index(benchmark, n_rows):
    table = make_dataspread_table(n_rows)
    next_id = iter(range(n_rows, 100_000_000))

    def insert_middle():
        table.insert((next(next_id), 0.0), position=table.n_rows // 2, emit=False)

    benchmark(insert_middle)
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["system"] = "dataspread"


@pytest.mark.parametrize("n_rows", [1000, 10_000])
def test_middle_insert_renumbering(benchmark, n_rows):
    table = make_naive_table(n_rows)
    next_id = iter(range(n_rows, 100_000_000))

    def insert_middle():
        table.insert_at(table.n_rows // 2, (next(next_id), 0.0))

    benchmark.pedantic(insert_middle, rounds=5, iterations=1)
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["system"] = "naive-rownum"
    benchmark.extra_info["rows_renumbered"] = table.rows_renumbered


@pytest.mark.parametrize("n_rows", SIZES)
def test_point_lookup_positional_index(benchmark, n_rows):
    table = make_dataspread_table(n_rows)
    positions = iter(random_jump_trace(n_rows, 1, 10_000, seed=9) * 100)

    def lookup():
        return table.row_at(next(positions))

    benchmark(lookup)
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["system"] = "dataspread"


@pytest.mark.parametrize("n_rows", [1000, 10_000])
def test_point_lookup_offset_scan(benchmark, n_rows):
    table = make_naive_table(n_rows)
    positions = iter(random_jump_trace(n_rows, 1, 10_000, seed=9) * 100)

    def lookup():
        return table.row_at(next(positions))

    benchmark(lookup)
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["system"] = "naive-rownum"


def test_reverse_lookup_climbs_where_rownum_renumbers(benchmark):
    middle_inserts, naive_inserts, probes = 64, 3, 500
    report = []
    for n_rows in SIZES:
        table = make_dataspread_table(n_rows)
        for i in range(middle_inserts):
            table.insert((n_rows + i, 0.0), position=(i * 7919) % table.n_rows, emit=False)
        counts = table.positions.counts
        worst = 0
        for probe in range(probes):
            position = (probe * 104_729) % table.n_rows
            rid = table.rid_at(position)
            before = counts.rank_steps
            assert table.positions_of([rid]) == {rid: position}
            worst = max(worst, counts.rank_steps - before)
        bound = 4 * math.log2(table.n_rows)
        assert worst <= bound, f"{worst} parent links climbed at n={n_rows}"

        naive = make_naive_table(n_rows)
        for i in range(naive_inserts):
            rid = naive.insert_at(n_rows // 2, (n_rows + i, 0.0))
            assert naive.position_of(rid) == n_rows // 2
        report.append(
            {
                "n_rows": n_rows,
                "rank_steps_worst": worst,
                "rank_steps_bound": round(bound, 1),
                "naive_rows_renumbered_per_insert": naive.rows_renumbered // naive_inserts,
            }
        )
    bulk = make_dataspread_table(20_000)
    every = bulk.positions_of(list(bulk.positions))
    assert list(every.values()) == list(range(bulk.n_rows))
    assert bulk.positions.n_spans == 1
    assert bulk.positions.counts.rank_steps == 0, "a one-span table climbs no link"
    rids = iter([table.rid_at((i * 104_729) % table.n_rows) for i in range(10_000)] * 100)
    benchmark(lambda: table.positions_of([next(rids)]))
    benchmark.extra_info["n_rows"] = table.n_rows
    benchmark.extra_info["system"] = "dataspread"
    write_bench_json(
        "positional_index",
        {
            "reverse_lookup": report,
            "bulk_loaded": {
                "n_rows": bulk.n_rows,
                "n_spans": bulk.positions.n_spans,
                "positions_of_all_rank_steps": bulk.positions.counts.rank_steps,
            },
        },
    )
