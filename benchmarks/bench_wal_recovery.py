"""WAL durability vs full-JSON save, and snapshot+replay recovery.

The seed's only durability story was :func:`repro.core.persist.save_workbook`
— O(workbook) bytes rewritten per save.  The server's write-ahead log
(:mod:`repro.server.wal`) makes a single edit durable in O(edit) bytes.

Claims measured here:

* a single-cell edit on a 10k-row workbook costs ≥ 10× fewer bytes (and
  far less wall-clock) as a WAL append than as a full-JSON save — the
  bytes ratio is asserted, not just reported;
* recovery time scales with the *replayed suffix*, not total history:
  snapshot + short suffix beats full-log replay as the log grows;
* recovery preserves the *tuned physical layout*: a recovered server's
  grouping matches pre-crash, and replaying the scan trace against it
  costs the tuned — not the default — page I/O
  (``test_recovery_preserves_tuned_layout``, also the CI smoke step).
"""

from __future__ import annotations

import os

import pytest

from repro import Workbook
from repro.core.persist import save_workbook
from repro.server.service import WorkbookService, recover_state
from repro.server.wal import WriteAheadLog

from .conftest import build_sequence_table, write_bench_json

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
N_TABLE_ROWS = 10_000


def ten_k_row_workbook() -> Workbook:
    return Workbook(database=build_sequence_table(N_TABLE_ROWS))


def edit_op(n: int) -> dict:
    return {"type": "set_cell", "sheet": "Sheet1", "ref": "A1", "raw": n}


def full_save_bytes(tmp_path) -> int:
    workbook = ten_k_row_workbook()
    path = str(tmp_path / "full.json")
    workbook.set("Sheet1", "A1", 1)
    save_workbook(workbook, path)
    return os.path.getsize(path)


def test_single_edit_wal_append(benchmark, tmp_path):
    """Durability cost of one small edit via the WAL (no fsync, matching
    the plain-write full-save baseline)."""
    workbook = ten_k_row_workbook()
    wal = WriteAheadLog(str(tmp_path / "wal.jsonl"), fsync=False)
    counter = iter(range(10_000_000))

    def edit():
        n = next(counter)
        workbook.set("Sheet1", "A1", n)
        wal.append(edit_op(n))

    benchmark(edit)
    wal.sync()
    bytes_per_edit = wal.stats.bytes_written / max(wal.stats.appends, 1)
    baseline = full_save_bytes(tmp_path)
    benchmark.extra_info["wal_bytes_per_edit"] = round(bytes_per_edit, 1)
    benchmark.extra_info["full_save_bytes_per_edit"] = baseline
    benchmark.extra_info["bytes_ratio"] = round(baseline / bytes_per_edit, 1)
    benchmark.extra_info["table_rows"] = N_TABLE_ROWS
    # Acceptance: WAL append writes >= 10x fewer bytes than a full save.
    assert baseline >= 10 * bytes_per_edit
    wal.close()


def test_single_edit_full_json_save(benchmark, tmp_path):
    """The seed's per-edit durability: rewrite the whole workbook."""
    workbook = ten_k_row_workbook()
    path = str(tmp_path / "full.json")
    counter = iter(range(10_000_000))

    def edit():
        workbook.set("Sheet1", "A1", next(counter))
        save_workbook(workbook, path)

    benchmark(edit)
    benchmark.extra_info["bytes_per_edit"] = os.path.getsize(path)
    benchmark.extra_info["table_rows"] = N_TABLE_ROWS


def build_service_dir(tmp_path, n_ops: int, snapshot_at: int = 0) -> str:
    """A service directory with ``n_ops`` logged edits; optionally a
    snapshot covering the first ``snapshot_at`` of them."""
    directory = str(tmp_path / f"svc-{n_ops}-{snapshot_at}")
    service = WorkbookService(directory, fsync=False, compact_every=0)
    session = service.connect("bench")
    for n in range(n_ops):
        if snapshot_at and n == snapshot_at:
            service.compact()
        service.set_cell(session.session_id, "Sheet1", f"A{(n % 500) + 1}", n)
    service.close()
    return directory


@pytest.mark.parametrize("n_ops", [200, 1000, 3000])
def test_recovery_full_log_replay(benchmark, tmp_path, n_ops):
    """Recovery with no snapshot: replay every committed record."""
    directory = build_service_dir(tmp_path, n_ops)

    def recover():
        return recover_state(directory)

    recovery = benchmark(recover)
    assert recovery.ops_replayed == n_ops
    benchmark.extra_info["log_ops"] = n_ops
    benchmark.extra_info["ops_replayed"] = recovery.ops_replayed


def test_recovery_preserves_tuned_layout(tmp_path):
    """A server tuned by the layout advisor crashes (no clean shutdown,
    no snapshot since tuning); the recovered server must come back with
    the tuned grouping and the advisor still on, and the scan-heavy trace
    must cost the tuned layout's page I/O — strictly below what the same
    trace costs on the untuned CREATE TABLE default layout."""
    n_rows = 200 if SMOKE else 600
    scans = 12 if SMOKE else 48
    directory = str(tmp_path / "tuned")
    service = WorkbookService(directory, fsync=False, compact_every=0)
    session = service.connect("bench")
    service.execute(
        session.session_id, "CREATE TABLE t (a INT, b INT, c INT, d INT)"
    )
    # Distinct 8-byte ints: incompressible, so the maintenance loop's
    # encode-first pass cannot pre-empt the migration this scenario needs
    # (encoding durability has its own coverage in test_vectorized.py).
    wide = 2**33
    for start in range(0, n_rows, 10):
        values = ",".join(
            f"({j * wide},{j * wide + 1},{j * wide + 2},{j * wide + 3})"
            for j in range(start, start + 10)
        )
        service.execute(session.session_id, f"INSERT INTO t VALUES {values}")
    service.execute(session.session_id, "ALTER TABLE t SET LAYOUT AUTO")
    table = service.workbook.database.table("t")
    table.layout_advisor.min_ops = 8
    # Tune on the steady-state trace, not the one-off bulk load.
    table.store.access_stats.reset()
    for _ in range(scans):
        list(table.store.scan_groups(["a"]))
    for _ in range(40):
        service.maintenance.tick(steps=2)
        if not table.migration_active and ["a"] in table.schema.groups:
            break
    tuned_groups = table.schema.groups
    assert ["a"] in tuned_groups, "advisor never split the hot column"
    service.close()

    def scan_trace_blocks(target_table) -> int:
        store = target_table.store
        store.checkpoint()
        store.pool.drop_cache()
        before = store.pool.stats.snapshot()
        for _ in range(4):
            for _ in store.scan_groups(["a"]):
                pass
        return store.pool.stats.delta(before).total

    recovery = recover_state(directory)
    recovered = recovery.workbook.database.table("t")
    assert recovered.schema.groups == tuned_groups
    assert recovered.auto_layout
    recovered.validate()

    # The untuned baseline: identical rows, CREATE TABLE default grouping.
    baseline_db = Workbook().database
    baseline_db.execute("CREATE TABLE t (a INT, b INT, c INT, d INT)")
    baseline = baseline_db.table("t")
    for rid in recovered.store.rids():
        baseline.insert(recovered.store.read_row(rid), emit=False)
    tuned_blocks = scan_trace_blocks(recovered)
    default_blocks = scan_trace_blocks(baseline)
    print(
        f"\nscan-trace blocks: recovered(tuned)={tuned_blocks} "
        f"default={default_blocks} groups={tuned_groups}"
    )
    write_bench_json(
        "wal_recovery",
        {
            "table_rows": n_rows,
            "tuned_blocks": tuned_blocks,
            "default_blocks": default_blocks,
            "tuned_groups": tuned_groups,
        },
    )
    assert tuned_blocks < default_blocks, (
        f"recovered layout costs {tuned_blocks} blocks on the scan trace, "
        f"not below the untuned default's {default_blocks}"
    )


@pytest.mark.parametrize("n_ops", [1000, 3000])
def test_recovery_snapshot_plus_suffix(benchmark, tmp_path, n_ops):
    """Recovery with a snapshot near the tail: load + short suffix replay;
    time should track the suffix (here 100 ops), not ``n_ops``."""
    directory = build_service_dir(tmp_path, n_ops, snapshot_at=n_ops - 100)

    def recover():
        return recover_state(directory)

    recovery = benchmark(recover)
    assert recovery.snapshot_used
    assert recovery.ops_replayed == 100
    benchmark.extra_info["log_ops"] = n_ops
    benchmark.extra_info["ops_replayed"] = recovery.ops_replayed
