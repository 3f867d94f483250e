"""HTAP isolation: apply-path tail latency with maintenance off-path.

The PR-9 headline claim, measured head-to-head on two databases running
a byte-identical workload — interleaved INSERT applies, a concurrent
analytical scan thread, and repeated online layout migrations — with
the only difference being *where* maintenance runs:

* **inline** (``background_maintenance=False``): the auto-tick cadence
  runs full unbudgeted migration steps on the apply thread, so an apply
  that lands on the cadence pays for a chain rewrite it did not ask for;
* **background** (``background_maintenance=True``): the apply path only
  wakes the :class:`~repro.engine.maintenance.MaintenanceWorker`, which
  runs budgeted steps off-path while open scans stream their snapshots.

Asserted: the **p99 apply latency under the concurrent analytical scan
is strictly lower** in background mode, and both databases end with
**identical table contents** (maintenance placement must never change
query results).  Headline numbers land in ``BENCH_htap_isolation.json``
via :func:`benchmarks.conftest.write_bench_json`.  Run ``BENCH_SMOKE=1``
(the CI smoke step) to shrink the workload while keeping every
assertion live.
"""

from __future__ import annotations

import os
import threading
import time

from repro.engine.database import Database

from .conftest import write_bench_json

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

SEED_ROWS = 2500 if SMOKE else 6000
N_APPLIES = 260 if SMOKE else 640
# Re-arm toward a fresh target every few dozen applies: a migration is
# in flight for most of the run, so every inline cadence tick (1 in
# TICK_INTERVAL applies) pays a full unbudgeted step — the tail the
# background worker is built to absorb.
MIGRATE_EVERY = 40
TICK_INTERVAL = 8  # statements between auto maintenance ticks

WIDE = 2**33  # distinct 8-byte ints: incompressible, keeps the
# maintenance loop's encode-first pass out of the migration measurement.

TARGETS = [
    [["a", "b", "c", "d"]],          # row-major
    [["a"], ["b"], ["c"], ["d"]],    # column-major
    [["a", "b"], ["c", "d"]],        # paired hybrid
]


def build_db(background: bool) -> Database:
    db = Database(
        auto_layout_interval=TICK_INTERVAL, background_maintenance=background
    )
    db.execute("CREATE TABLE t (a INT, b INT, c INT, d INT)")
    table = db.table("t")
    for i in range(SEED_ROWS):
        table.insert(
            (i * WIDE, i * WIDE + 1, i * WIDE + 2, i * WIDE + 3), emit=False
        )
    return db


def p99(latencies: list) -> float:
    ordered = sorted(latencies)
    return ordered[int(0.99 * (len(ordered) - 1))]


def run_workload(db: Database) -> list:
    """Drive ``N_APPLIES`` INSERTs (timing each), re-arming an online
    migration every ``MIGRATE_EVERY`` applies, under a concurrent
    analytical scan thread.  Returns the per-apply latencies."""
    table = db.table("t")
    stop = threading.Event()
    scans = [0]

    def analyst():
        while not stop.is_set():
            total = 0
            for _, _, row in table.scan():
                total += 1
            scans[0] += 1

    thread = threading.Thread(target=analyst)
    thread.start()
    latencies = []
    try:
        for i in range(N_APPLIES):
            if i % MIGRATE_EVERY == 0:
                table.migrate_layout(TARGETS[(i // MIGRATE_EVERY) % len(TARGETS)])
            value = (SEED_ROWS + i) * WIDE
            started = time.perf_counter()
            db.execute(
                f"INSERT INTO t VALUES ({value}, {value + 1}, "
                f"{value + 2}, {value + 3})"
            )
            latencies.append(time.perf_counter() - started)
    finally:
        stop.set()
        thread.join(10.0)
    return latencies


def settle(db: Database) -> None:
    """Run maintenance to quiescence so both modes land on the same
    final physical state before contents are compared."""
    db.close()  # stops + drains the worker in background mode
    table = db.table("t")
    for _ in range(500):
        if not table.migration_active:
            break
        db.maintenance_tick(steps=4)
    assert not table.migration_active
    table.validate()


def test_background_maintenance_cuts_apply_tail_latency():
    inline_db = build_db(background=False)
    background_db = build_db(background=True)

    inline_latencies = run_workload(inline_db)
    background_latencies = run_workload(background_db)

    settle(inline_db)
    settle(background_db)

    # Correctness: maintenance placement never changes query results.
    inline_rows = inline_db.table("t").rows()
    background_rows = background_db.table("t").rows()
    assert background_rows == inline_rows

    inline_p99 = p99(inline_latencies)
    background_p99 = p99(background_latencies)
    worker = background_db.maintenance.worker
    print(
        f"\napply p99 under concurrent scan over {SEED_ROWS}+{N_APPLIES} rows: "
        f"inline={inline_p99 * 1e3:.2f}ms background={background_p99 * 1e3:.2f}ms "
        f"({inline_p99 / background_p99:.1f}x), "
        f"background beats={worker.beats if worker else 0}"
    )
    write_bench_json(
        "htap_isolation",
        {
            "seed_rows": SEED_ROWS,
            "applies": N_APPLIES,
            "migrate_every": MIGRATE_EVERY,
            "inline_p99_ms": round(inline_p99 * 1e3, 3),
            "background_p99_ms": round(background_p99 * 1e3, 3),
            "inline_p50_ms": round(sorted(inline_latencies)[N_APPLIES // 2] * 1e3, 3),
            "background_p50_ms": round(
                sorted(background_latencies)[N_APPLIES // 2] * 1e3, 3
            ),
            "tail_reduction": round(inline_p99 / background_p99, 2),
            "background_beats": worker.beats if worker else 0,
            "rows_identical": background_rows == inline_rows,
        },
    )

    assert background_p99 < inline_p99, (
        f"background maintenance p99 {background_p99 * 1e3:.2f}ms not below "
        f"inline p99 {inline_p99 * 1e3:.2f}ms"
    )
