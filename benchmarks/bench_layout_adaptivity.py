"""Workload-adaptive layouts: adaptive beats the best static layout.

Paper §3 stores each table as attribute groups so the physical layout
*can* track the workload; this benchmark shows the adaptive loop
(:class:`~repro.engine.layout.LayoutAdvisor` +
:class:`~repro.engine.layout.LayoutMigration`) actually cashing that in.

Three identical tables replay the same alternating HTAP trace
(:func:`repro.workloads.traces.alternating_layout_trace` — scan-heavy
analytical phases interleaved with update-heavy transactional phases):

* static ROW layout — wins the transactional phases, pays the full table
  width on every column scan,
* static COLUMN layout — wins the analytical phases, pays one block per
  group on every point read / insert,
* ADAPTIVE — starts as a row store, gets a maintenance tick every few
  operations, and migrates online (one bounded restructure step at a
  time, with the replayed reads/writes landing *between* steps).

Claims measured and asserted:

* adaptive total page I/O (reads + writes, migration traffic included)
  is **strictly below both** static layouts on the mixed trace,
* zero correctness divergence: all three tables hold identical rows at
  every phase boundary — i.e. before, during (ticks leave migrations
  mid-flight across phase boundaries) and after migrations,
* the adaptive table really did re-partition (at least one migration).

Run ``BENCH_SMOKE=1`` (the CI smoke step) to shrink the trace while
keeping every assertion live.
"""

from __future__ import annotations

import os
import time

from repro.engine.database import Database
from repro.engine.layout import LayoutAdvisor
from repro.engine.pager import BufferPool
from repro.engine.schema import TableSchema
from repro.engine.store import LayoutPolicy
from repro.engine.table import Table
from repro.engine.types import DBType
from repro.workloads.traces import alternating_layout_trace

from .conftest import write_bench_json

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

N_COLS = 8
N_ROWS = 300 if SMOKE else 1500
PAGE_CAPACITY = 32 if SMOKE else 64
FRAMES = 16 if SMOKE else 32
PHASE_LENGTH = 300 if SMOKE else 1000
N_PHASES = 4
TICK_EVERY = 10 if SMOKE else 25


def build_table(name: str, layout: LayoutPolicy) -> Table:
    schema = TableSchema.from_pairs([(f"c{i}", DBType.INTEGER) for i in range(N_COLS)])
    pool = BufferPool(capacity=FRAMES, page_capacity=PAGE_CAPACITY)
    table = Table(name, schema, layout=layout, pool=pool, page_capacity=PAGE_CAPACITY)
    for i in range(N_ROWS):
        table.insert(tuple((i * 7 + j) % 1000 for j in range(N_COLS)), emit=False)
    table.checkpoint()
    pool.stats.reset()
    return table


def replay_phase(table: Table, ops, state: dict, adaptive: bool) -> int:
    """Replay one phase; returns the block I/O it cost (verification and
    checkpointing excluded from no table's account — both are inside)."""
    store = table.store
    columns = store.schema.column_names
    rids = state["rids"]
    before = store.pool.stats.snapshot()
    for index, op in enumerate(ops):
        kind = op[0]
        if kind == "scan_col":
            for _ in store.scan_groups([columns[op[1] % len(columns)]]):
                pass
        elif kind == "point_read":
            store.get(rids[op[1] % len(rids)])
        elif kind == "col_update":
            store.update_column(
                rids[op[1] % len(rids)], columns[op[2] % len(columns)], op[3]
            )
        else:  # insert
            value = state["next_value"]
            state["next_value"] += 1
            rids.append(
                store.insert(tuple((value * 7 + j) % 1000 for j in range(N_COLS)))
            )
        if adaptive and (index + 1) % TICK_EVERY == 0:
            table.layout_tick(steps=1)
    store.checkpoint()
    return store.pool.stats.delta(before).total


def run_benchmark():
    tables = {
        "row": build_table("t_row", LayoutPolicy.ROW),
        "column": build_table("t_col", LayoutPolicy.COLUMN),
        "adaptive": build_table("t_adaptive", LayoutPolicy.ROW),
    }
    adaptive = tables["adaptive"]
    adaptive.set_auto_layout(True)
    adaptive.layout_advisor.min_ops = 24

    states = {
        name: {"rids": list(table.store.rids()), "next_value": N_ROWS}
        for name, table in tables.items()
    }
    totals = {name: 0 for name in tables}
    wall = {name: 0.0 for name in tables}
    layouts_seen = [[list(g) for g in adaptive.schema.groups]]

    for phase in range(N_PHASES):
        # One phase of the alternating trace (regenerated deterministically
        # so every table replays the identical op sequence).
        ops = alternating_layout_trace(N_COLS, PHASE_LENGTH, phase + 1, seed=40)[
            phase * PHASE_LENGTH :
        ]
        for name, table in tables.items():
            started = time.perf_counter()
            totals[name] += replay_phase(
                table, ops, states[name], adaptive=(name == "adaptive")
            )
            wall[name] += time.perf_counter() - started
        # Correctness: identical logical contents at every phase boundary —
        # including boundaries where the adaptive table is mid-migration.
        reference = sorted(
            tables["row"].store.read_row(rid) for rid in tables["row"].store.rids()
        )
        for name, table in tables.items():
            rows = sorted(table.store.read_row(rid) for rid in table.store.rids())
            assert rows == reference, f"{name} diverged at phase {phase}"
            # Replay drives the store directly (positions unused), so
            # validate the storage layer itself.
            table.store.validate()
        layouts_seen.append([list(g) for g in adaptive.schema.groups])

    # Drain any still-running migration so its cost is charged too.
    before = adaptive.store.pool.stats.snapshot()
    while adaptive.migration_active:
        adaptive.layout_tick(steps=4)
    adaptive.store.checkpoint()
    totals["adaptive"] += adaptive.store.pool.stats.delta(before).total

    distinct_layouts = {
        frozenset(frozenset(c.lower() for c in g) for g in layout)
        for layout in layouts_seen
    }
    migrations = len(distinct_layouts) - 1
    return totals, migrations, wall, layouts_seen


def test_adaptive_beats_static_layouts():
    totals, migrations, wall, layouts_seen = run_benchmark()
    print(
        f"\nblocks touched over {N_PHASES}x{PHASE_LENGTH} alternating ops: "
        f"row={totals['row']} column={totals['column']} "
        f"adaptive={totals['adaptive']} "
        f"(wall row={wall['row']:.2f}s column={wall['column']:.2f}s "
        f"adaptive={wall['adaptive']:.2f}s)"
    )
    print(f"adaptive layouts per phase: {layouts_seen}")
    write_bench_json(
        "layout_adaptivity",
        {
            "ops": N_PHASES * PHASE_LENGTH,
            "blocks": dict(totals),
            "migrations": migrations,
            "wall_s": {name: round(seconds, 3) for name, seconds in wall.items()},
        },
    )
    # The headline claim: adaptivity strictly beats *both* static extremes
    # on total page I/O for the mixed trace — migration traffic included.
    assert totals["adaptive"] < totals["row"], (
        f"adaptive {totals['adaptive']} not below static row {totals['row']}"
    )
    assert totals["adaptive"] < totals["column"], (
        f"adaptive {totals['adaptive']} not below static column {totals['column']}"
    )
    # And it got there by actually re-partitioning.
    assert migrations >= 1, "adaptive table never changed layout"


# -- the column-set-aware scan pipeline -------------------------------------
#
# Two further claims, added with the ProjectedScan refactor:
#
# * a narrow SELECT over a wide hybrid-layout table reads strictly fewer
#   pages than the full-width ``SELECT *`` with the same predicate on the
#   same database,
# * an alternating two-query workload whose column sets overlap drives
#   the co-access advisor to a grouping that beats the singleton-only
#   advisor AND both static extremes on total page I/O.

WIDE_COLS = 12
WIDE_ROWS = 250 if SMOKE else 400
WIDE_CAPACITY = 32
WIDE_FRAMES = 16
CO_ROUNDS = 50 if SMOKE else 100


def build_wide_db(auto_interval: int = 0) -> Database:
    db = Database(
        page_capacity=WIDE_CAPACITY,
        buffer_frames=WIDE_FRAMES,
        auto_layout_interval=auto_interval,
    )
    columns = ", ".join(f"c{i} INT" for i in range(WIDE_COLS))
    db.execute(f"CREATE TABLE t ({columns})")
    table = db.table("t")
    for i in range(WIDE_ROWS):
        table.insert(
            tuple((i * 7 + j) % 1000 for j in range(WIDE_COLS)), emit=False
        )
    return db


def reset_measurement(db: Database) -> None:
    db.table("t").store.access_stats.reset()
    db.checkpoint()
    db.catalog.pool.drop_cache()
    db.reset_io_stats()


def test_narrow_select_reads_fewer_pages():
    """A 2-column SELECT with a selective WHERE over a wide hybrid table
    touches strictly fewer pages than the full-width scan."""
    groups = [[f"c{g * 3 + j}" for j in range(3)] for g in range(WIDE_COLS // 3)]
    queries = {
        "projected": "SELECT c0, c1 FROM t WHERE c2 < 200",
        "full-row": "SELECT * FROM t WHERE c2 < 200",
    }
    db = build_wide_db()
    db.table("t").store.restructure(groups)  # hybrid: 4 groups of 3
    reads = {}
    rows = {}
    for label, query in queries.items():
        reset_measurement(db)
        rows[label] = db.execute(query).rows
        reads[label] = db.io_stats.reads
    print(
        f"\nnarrow SELECT over {WIDE_COLS}-col hybrid table: "
        f"projected={reads['projected']} page reads, "
        f"full-row={reads['full-row']} page reads"
    )
    assert rows["projected"] == [row[:2] for row in rows["full-row"]]
    assert reads["projected"] < reads["full-row"], (
        f"projected scan read {reads['projected']} pages, "
        f"full-row path {reads['full-row']}"
    )


def replay_overlapping_workload(mode: str):
    """The HTAP mix for one configuration: two alternating narrow SELECTs
    with overlapping column sets ({c0,c1} and {c0,c1,c2}), viewport
    window fetches (full-row point reads), and single-row INSERTs."""
    db = build_wide_db(auto_interval=(8 if mode.startswith("auto") else 0))
    table = db.table("t")
    if mode == "row":
        db.execute("ALTER TABLE t SET LAYOUT ROW")
    elif mode == "column":
        db.execute("ALTER TABLE t SET LAYOUT COLUMN")
    else:
        db.execute("ALTER TABLE t SET LAYOUT AUTO")
        # This scenario compares the two advisors' *grouping* decisions;
        # with encodings on, the compressible fixture rows get encoded
        # first and neither advisor migrates at all (both priced cheap).
        table.auto_encode = False
        table.layout_advisor = LayoutAdvisor(
            min_ops=24, co_access=(mode == "auto-coaccess")
        )
    reset_measurement(db)
    value = WIDE_ROWS
    for index in range(CO_ROUNDS):
        db.execute(f"SELECT c0 FROM t WHERE c1 > {(index * 13) % 900}")
        db.execute(f"SELECT c0, c1 FROM t WHERE c2 > {(index * 29) % 900}")
        for k in range(10):
            table.window((index * 37 + k * 53) % (table.n_rows - 8), 8)
        for _ in range(4):
            values = ",".join(
                str((value * 7 + j) % 1000) for j in range(WIDE_COLS)
            )
            db.execute(f"INSERT INTO t VALUES ({values})")
            value += 1
    # Charge any still-running migration to its own account.
    while table.migration_active:
        table.layout_tick(steps=4)
    db.checkpoint()
    return db.io_stats.total, table.schema.groups


def test_coaccess_advisor_beats_singletons_and_statics():
    """The co-access advisor's clustered grouping wins the overlapping
    two-query workload on total page I/O — against the singleton-only
    advisor and against both static extremes."""
    totals = {}
    groups = {}
    for mode in ("row", "column", "auto-singleton", "auto-coaccess"):
        totals[mode], groups[mode] = replay_overlapping_workload(mode)
    print(
        f"\noverlapping workload over {CO_ROUNDS} rounds: "
        + " ".join(f"{mode}={totals[mode]}" for mode in totals)
    )
    print(f"co-access grouping: {groups['auto-coaccess']}")
    for rival in ("row", "column", "auto-singleton"):
        assert totals["auto-coaccess"] < totals[rival], (
            f"co-access {totals['auto-coaccess']} not below {rival} "
            f"{totals[rival]}"
        )
    # It won by clustering: the jointly scanned columns share a group.
    assert any(
        {"c0", "c1"} <= {name.lower() for name in group}
        for group in groups["auto-coaccess"]
    ), f"no co-access cluster in {groups['auto-coaccess']}"


if __name__ == "__main__":
    test_adaptive_beats_static_layouts()
    test_narrow_select_reads_fewer_pages()
    test_coaccess_advisor_beats_singletons_and_statics()
