"""The durable multi-session service: pipeline, recovery, concurrency."""

from __future__ import annotations

import datetime as dt
import io
import json
import math
import os
import shutil

import pytest

from repro.core.address import CellAddress
from repro.errors import (
    CatalogError,
    ConstraintError,
    ServerError,
    SheetError,
    SqlError,
    SqlSyntaxError,
    StaleWriteError,
)
from repro.server import (
    SnapshotStore,
    WorkbookService,
    read_wal,
    recover_state,
    validate_op,
)
from repro.server.service import OP_TYPES, OPS, WAL_FILENAME, OpEntry
from repro.server.wal import TXN_MARKERS


def make_service(tmp_path, name="svc", **kwargs) -> WorkbookService:
    kwargs.setdefault("fsync", False)
    return WorkbookService(str(tmp_path / name), **kwargs)


class TestPipeline:
    def test_edit_compute_and_durability(self, tmp_path):
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.set_cell(session.session_id, "Sheet1", "A1", 21)
        service.set_cell(session.session_id, "Sheet1", "A2", "=A1*2")
        assert service.workbook.get("Sheet1", "A2") == 42
        service.close()

        reopened = make_service(tmp_path)
        assert reopened.recovered_ops == 2
        assert reopened.workbook.get("Sheet1", "A2") == 42
        reopened.close()

    def test_sql_and_region_ops_replay(self, tmp_path):
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE m (id INT PRIMARY KEY, t TEXT)")
        service.execute(session.session_id, "INSERT INTO m VALUES (1,'x'),(2,'y')")
        service.apply(
            session.session_id,
            {"type": "dbtable", "sheet": "Sheet1", "anchor": "C1", "table": "m"},
        )
        service.apply(session.session_id, {"type": "add_sheet", "name": "Other"})
        service.apply(
            session.session_id,
            {"type": "insert_rows", "sheet": "Other", "at": 0, "count": 2},
        )
        service.close()

        reopened = make_service(tmp_path)
        workbook = reopened.workbook
        assert workbook.database.table("m").n_rows == 2
        assert workbook.get("Sheet1", "C1") == "id"
        assert workbook.get("Sheet1", "D2") == "x"
        assert "Other" in workbook.sheet_names()
        assert len(workbook.regions.all()) == 1
        reopened.close()

    def test_validation_rejects_before_wal(self, tmp_path):
        service = make_service(tmp_path)
        session = service.connect("alice")
        with pytest.raises(ServerError):
            service.apply(session.session_id, {"type": "no_such_op"})
        with pytest.raises(SheetError):
            service.set_cell(session.session_id, "Nope", "A1", 1)
        assert service.wal.last_lsn == 0  # nothing reached the log
        service.close()

    def test_failed_apply_compensates_wal(self, tmp_path):
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.set_cell(session.session_id, "Sheet1", "A1", 1)
        before = service.wal.last_lsn
        # parses fine (passes validation) but fails at apply: unknown table
        with pytest.raises(CatalogError):
            service.execute(session.session_id, "INSERT INTO ghost VALUES (1)")
        assert service.wal.last_lsn == before
        assert [r.op["type"] for r in service.wal.records()] == ["set_cell"]
        service.close()

    def test_select_is_not_logged(self, tmp_path):
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (k INT PRIMARY KEY)")
        service.execute(session.session_id, "INSERT INTO t VALUES (1)")
        lsn = service.wal.last_lsn
        for _ in range(5):
            result = service.execute(session.session_id, "SELECT * FROM t")
        assert result.result.rows == [(1,)]
        assert service.wal.last_lsn == lsn  # reads add nothing to replay
        service.close()

    def test_version_monotonic_and_result_passthrough(self, tmp_path):
        service = make_service(tmp_path)
        session = service.connect("alice")
        v0 = service.version
        service.execute(session.session_id, "CREATE TABLE t (k INT PRIMARY KEY)")
        service.execute(session.session_id, "INSERT INTO t VALUES (1),(2),(3)")
        result = service.execute(session.session_id, "SELECT COUNT(*) AS n FROM t")
        assert result.result.scalar() == 3
        assert service.version == v0 + 3
        service.close()


class TestSessionsAndBroadcast:
    def test_stale_write_rejected_with_current_version(self, tmp_path):
        service = make_service(tmp_path)
        alice = service.connect("alice", n_rows=10, n_cols=10)
        bob = service.connect("bob", n_rows=10, n_cols=10)
        service.set_cell(alice.session_id, "Sheet1", "A1", "first")
        with pytest.raises(StaleWriteError) as excinfo:
            # bob writes based on the version he saw at connect time
            service.set_cell(bob.session_id, "Sheet1", "A1", "second")
        assert excinfo.value.current_version == service.version
        assert service.workbook.get("Sheet1", "A1") == "first"  # not clobbered
        assert bob.writes_rejected == 1
        # bob catches up by polling, then the retry wins
        bob.poll()
        service.set_cell(bob.session_id, "Sheet1", "A1", "second")
        assert service.workbook.get("Sheet1", "A1") == "second"
        service.close()

    def test_delta_delivered_only_to_covering_viewports(self, tmp_path):
        service = make_service(tmp_path)
        alice = service.connect("alice", n_rows=10, n_cols=10)
        bob = service.connect("bob", n_rows=10, n_cols=10)        # sees A1
        carol = service.connect("carol", top=500, n_rows=10, n_cols=10)
        service.set_cell(alice.session_id, "Sheet1", "A1", 7)
        assert bob.pending_deltas == 1
        assert carol.pending_deltas == 0  # panned away: suppressed
        assert alice.pending_deltas == 0  # origin already has the result
        [delta] = bob.poll()
        assert (delta.kind, delta.sheet, delta.row, delta.col, delta.value) == (
            "cell", "Sheet1", 0, 0, 7
        )
        assert bob.last_seen_version == service.version
        assert service.broadcast.stats.suppressed > 0
        service.close()

    def test_region_refresh_delta_scoped_by_viewport(self, tmp_path):
        service = make_service(tmp_path)
        writer = service.connect("writer", top=500, n_rows=5, n_cols=5)
        viewer = service.connect("viewer", n_rows=10, n_cols=10)
        far = service.connect("far", top=500, n_rows=5, n_cols=5)
        service.execute(writer.session_id, "CREATE TABLE m (id INT PRIMARY KEY, t TEXT)")
        service.execute(writer.session_id, "INSERT INTO m VALUES (1,'x')")
        service.apply(
            writer.session_id,
            {"type": "dbtable", "sheet": "Sheet1", "anchor": "A1", "table": "m"},
        )
        viewer.poll()
        far.poll()
        # a back-end write refreshes the region; only the viewer covers it
        service.execute(writer.session_id, "INSERT INTO m VALUES (2,'y')")
        kinds = [delta.kind for delta in viewer.poll()]
        assert "region" in kinds
        assert far.pending_deltas == 0
        assert service.workbook.get("Sheet1", "B3") == "y"
        service.close()

    def test_structural_edit_broadcasts_compact_shift_delta(self, tmp_path):
        """A structural edit reaches other sessions as ONE shift delta
        describing the half-space translation — not a per-cell flood for
        every relocated position."""
        service = make_service(tmp_path)
        editor = service.connect("editor", n_rows=10, n_cols=10)
        viewer = service.connect("viewer", n_rows=10, n_cols=10)
        above = service.connect("above", n_rows=3, n_cols=10)  # rows 0..2
        for n in range(1, 9):
            service.set_cell(editor.session_id, "Sheet1", f"A{n}", n)
        viewer.poll()
        above.poll()
        result = service.apply(
            editor.session_id,
            {"type": "insert_rows", "sheet": "Sheet1", "at": 5, "count": 2},
        )
        shifts = [delta for delta in result.deltas if delta.kind == "shift"]
        assert [(d.axis, d.at, d.count) for d in shifts] == [("row", 5, 2)]
        # The viewer's pane reaches the shifted half-space: one shift delta.
        viewer_kinds = [delta.kind for delta in viewer.poll()]
        assert viewer_kinds.count("shift") == 1
        # 8 values moved down but zero per-cell deltas were manufactured.
        assert "cell" not in viewer_kinds
        # A pane entirely above the edit never sees it.
        assert all(delta.kind != "shift" for delta in above.poll())
        # Deletes carry a negative count.
        result = service.apply(
            editor.session_id,
            {"type": "delete_rows", "sheet": "Sheet1", "at": 5, "count": 2},
        )
        [shift] = [delta for delta in result.deltas if delta.kind == "shift"]
        assert (shift.axis, shift.at, shift.count) == ("row", 5, -2)
        service.close()

    def test_poll_unblocks_off_viewport_conflict(self, tmp_path):
        """A stale rejection caused by an *off-screen* change can never be
        seen in the inbox; service.poll must still advance the horizon so
        the retry is not rejected forever."""
        service = make_service(tmp_path)
        alice = service.connect("alice", n_rows=10, n_cols=10)
        bob = service.connect("bob", n_rows=10, n_cols=10)
        # alice edits far outside both viewports
        service.apply(
            alice.session_id,
            {"type": "set_cell", "sheet": "Sheet1", "ref": "A1000", "raw": 1},
        )
        with pytest.raises(StaleWriteError):
            service.set_cell(bob.session_id, "Sheet1", "A1000", 2)
        assert service.poll(bob.session_id) == []  # nothing visible to bob
        service.set_cell(bob.session_id, "Sheet1", "A1000", 2)  # now wins
        assert service.workbook.get("Sheet1", "A1000") == 2
        service.close()

    def test_region_edit_broadcasts_and_stamps_versions(self, tmp_path):
        """Regression: edits routed through DBTableRegion.apply_edit
        update the region's cells in place (its own sync refresh is
        suppressed), so they used to produce no delta and no version
        stamp — letting a second session silently clobber the edit."""
        service = make_service(tmp_path)
        alice = service.connect("alice", n_rows=10, n_cols=10)
        bob = service.connect("bob", n_rows=10, n_cols=10)
        service.execute(alice.session_id, "CREATE TABLE m (id INT PRIMARY KEY, t TEXT)")
        service.execute(alice.session_id, "INSERT INTO m VALUES (1,'x')")
        service.apply(
            alice.session_id,
            {"type": "dbtable", "sheet": "Sheet1", "anchor": "A1", "table": "m"},
        )
        service.poll(bob.session_id)
        base = bob.last_seen_version
        # alice edits the region's B2 cell (column t of row 1)
        result = service.set_cell(alice.session_id, "Sheet1", "B2", "ALICE")
        assert any(d.kind == "region" for d in result.deltas)
        assert bob.pending_deltas >= 1  # bob sees the change
        with pytest.raises(StaleWriteError):
            service.set_cell(
                bob.session_id, "Sheet1", "B2", "BOB", base_version=base
            )
        assert service.workbook.get("Sheet1", "B2") == "ALICE"
        service.close()

    def test_offscreen_formula_install_stamps_version(self, tmp_path):
        """Regression: installing a formula in a cell no viewport covers
        skipped the cell-written notification, so a stale overwrite of
        the formula was silently accepted."""
        service = make_service(tmp_path)
        alice = service.connect("alice", n_rows=10, n_cols=10)
        bob = service.connect("bob", n_rows=10, n_cols=10)
        base = bob.last_seen_version
        service.apply(
            alice.session_id,
            {"type": "set_cell", "sheet": "Sheet1", "ref": "Z100", "raw": "=1+1"},
        )
        with pytest.raises(StaleWriteError):
            service.set_cell(bob.session_id, "Sheet1", "Z100", "BOB", base_version=base)
        assert service.workbook.get("Sheet1", "Z100") == 2
        service.close()

    def test_second_writer_on_same_directory_is_locked_out(self, tmp_path):
        from repro.errors import WALError

        service = make_service(tmp_path)
        with pytest.raises(WALError):
            make_service(tmp_path)  # same directory, first still open
        service.close()
        reopened = make_service(tmp_path)  # lock released on close
        reopened.close()

    def test_concurrent_edits_to_different_cells_both_win(self, tmp_path):
        service = make_service(tmp_path)
        alice = service.connect("alice")
        bob = service.connect("bob")
        service.set_cell(alice.session_id, "Sheet1", "A1", 1)
        # bob has not polled, but B5 was never written: no conflict
        service.set_cell(bob.session_id, "Sheet1", "B5", 2)
        assert service.workbook.get("Sheet1", "A1") == 1
        assert service.workbook.get("Sheet1", "B5") == 2
        service.close()

    def test_step_honours_disabled_maintenance(self, tmp_path):
        """Regression: the serve loop's implicit maintenance beat must
        respect auto_layout_interval=0 (layouts pinned) — before the fix,
        step() ticked the advisor anyway and could migrate a table whose
        operator had maintenance configured off."""
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(
            session.session_id, "CREATE TABLE t (a INT, b INT, c INT, d INT)"
        )
        for start in range(0, 400, 100):
            values = ",".join(f"({j},{j},{j},{j})" for j in range(start, start + 100))
            service.execute(session.session_id, f"INSERT INTO t VALUES {values}")
        service.execute(session.session_id, "ALTER TABLE t SET LAYOUT AUTO")
        table = service.workbook.database.table("t")
        table.layout_advisor.min_ops = 1
        table.store.access_stats.reset()
        for _ in range(40):
            list(table.store.scan_groups(["a"]))
        service.maintenance.interval = 0  # operator: maintenance off
        for _ in range(5):
            service.step()
        assert not table.migration_active
        assert table.schema.groups == [["a", "b", "c", "d"]]
        # An explicit tick is still an operator override.
        reports = service.maintenance.tick()
        assert reports and reports[0]["action"] == "migration_started"
        service.close()

    def test_visible_first_recalc_and_background_step(self, tmp_path):
        service = make_service(tmp_path)
        near = service.connect("near", n_rows=10, n_cols=10)
        service.set_cell(near.session_id, "Sheet1", "A1", 10)
        # visible dependent computed inside the apply; far one deferred
        service.set_cell(near.session_id, "Sheet1", "B1", "=A1+1")
        service.apply(
            near.session_id,
            {"type": "set_cell", "sheet": "Sheet1", "ref": "A500", "raw": "=A1*2"},
        )
        assert service.workbook.sheet("Sheet1").value_at(0, 1) == 11
        assert service.workbook.compute.pending > 0  # A500 not yet computed
        far = service.connect("far", top=499, n_rows=5, n_cols=5)
        computed = service.step()
        assert computed >= 1
        assert service.workbook.sheet("Sheet1").value_at(499, 0) == 20
        assert far.pending_deltas >= 1  # background result broadcast to far
        service.close()

    def test_disconnect_stops_delivery(self, tmp_path):
        service = make_service(tmp_path)
        alice = service.connect("alice")
        bob = service.connect("bob")
        service.disconnect(bob.session_id)
        service.set_cell(alice.session_id, "Sheet1", "A1", 1)
        assert bob.pending_deltas == 0
        assert len(service.sessions) == 1
        service.close()


class TestShiftVersionRemap:
    """Satellite regression: `_cell_versions` is keyed by logical
    coordinates, so structural shifts must remap the stamps — otherwise
    the optimistic check compares against the wrong cell's history."""

    def test_stale_write_cannot_clobber_moved_cell(self, tmp_path):
        service = make_service(tmp_path)
        alice = service.connect("alice", n_rows=20, n_cols=10)
        bob = service.connect("bob", n_rows=20, n_cols=10)
        base = bob.last_seen_version  # bob's view predates everything below
        service.set_cell(alice.session_id, "Sheet1", "A5", "precious")
        service.apply(
            alice.session_id,
            {"type": "insert_rows", "sheet": "Sheet1", "at": 0, "count": 1},
        )
        assert service.workbook.get("Sheet1", "A6") == "precious"
        # bob writes to the cell's NEW home with a stale base: before the
        # fix the version stamp stayed at A5, so this silently clobbered
        # the moved-but-modified cell.
        with pytest.raises(StaleWriteError):
            service.set_cell(
                bob.session_id, "Sheet1", "A6", "clobber", base_version=base
            )
        assert service.workbook.get("Sheet1", "A6") == "precious"
        service.close()

    def test_slid_in_coordinates_not_spuriously_rejected(self, tmp_path):
        service = make_service(tmp_path)
        alice = service.connect("alice", n_rows=20, n_cols=10)
        bob = service.connect("bob", n_rows=20, n_cols=10)
        base = bob.last_seen_version
        service.set_cell(alice.session_id, "Sheet1", "A5", "moved-away")
        service.apply(
            alice.session_id,
            {"type": "insert_rows", "sheet": "Sheet1", "at": 0, "count": 1},
        )
        # A5 is now a fresh, never-written slot; before the fix the moved
        # cell's ghost stamp rejected this write forever.
        result = service.set_cell(
            bob.session_id, "Sheet1", "A5", "fresh", base_version=base
        )
        assert result.version == service.version
        assert service.workbook.get("Sheet1", "A5") == "fresh"
        assert service.workbook.get("Sheet1", "A6") == "moved-away"
        service.close()

    def test_deleted_cell_stamp_is_dropped(self, tmp_path):
        service = make_service(tmp_path)
        alice = service.connect("alice", n_rows=20, n_cols=10)
        bob = service.connect("bob", n_rows=20, n_cols=10)
        base = bob.last_seen_version
        service.set_cell(alice.session_id, "Sheet1", "A3", "doomed")
        service.set_cell(alice.session_id, "Sheet1", "A4", "survivor")
        service.apply(
            alice.session_id,
            {"type": "delete_rows", "sheet": "Sheet1", "at": 2, "count": 1},
        )
        assert service.workbook.get("Sheet1", "A3") == "survivor"
        # The deleted cell's stamp must not linger at A3 — but the
        # survivor's stamp moved there, so a stale write is still (and
        # correctly) rejected against the *surviving* cell's version.
        with pytest.raises(StaleWriteError):
            service.set_cell(
                bob.session_id, "Sheet1", "A3", "late", base_version=base
            )
        # One row below, nothing was ever written: accepted.
        service.set_cell(bob.session_id, "Sheet1", "A4", "ok", base_version=base)
        assert service.workbook.get("Sheet1", "A4") == "ok"
        service.close()

    def test_column_shift_remaps_versions(self, tmp_path):
        service = make_service(tmp_path)
        alice = service.connect("alice", n_rows=20, n_cols=10)
        bob = service.connect("bob", n_rows=20, n_cols=10)
        base = bob.last_seen_version
        service.set_cell(alice.session_id, "Sheet1", "B2", "precious")
        service.apply(
            alice.session_id,
            {"type": "insert_cols", "sheet": "Sheet1", "at": 0, "count": 2},
        )
        assert service.workbook.get("Sheet1", "D2") == "precious"
        with pytest.raises(StaleWriteError):
            service.set_cell(
                bob.session_id, "Sheet1", "D2", "clobber", base_version=base
            )
        service.set_cell(bob.session_id, "Sheet1", "B2", "fresh", base_version=base)
        assert service.workbook.get("Sheet1", "D2") == "precious"
        assert service.workbook.get("Sheet1", "B2") == "fresh"
        service.close()

    def test_remap_survives_recovery_semantics(self, tmp_path):
        """The remap is in-memory state; after recovery the stamps are
        empty, which is safe (no false accepts relative to the recovered
        version horizon) — just pin that reopening works after shifts."""
        service = make_service(tmp_path)
        alice = service.connect("alice")
        service.set_cell(alice.session_id, "Sheet1", "A5", 1)
        service.apply(
            alice.session_id,
            {"type": "insert_rows", "sheet": "Sheet1", "at": 0, "count": 1},
        )
        service.close()
        reopened = make_service(tmp_path)
        assert reopened.workbook.get("Sheet1", "A6") == 1
        reopened.close()


class TestTransactionsInWal:
    def test_rollback_discards_mixed_dml_ddl_records(self, tmp_path):
        """Satellite regression: rolling back a mixed DML+DDL batch must
        discard its WAL records (and the begin marker) entirely."""
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
        service.execute(session.session_id, "INSERT INTO t VALUES (1,'a')")
        lsn_before = service.wal.last_lsn
        service.execute(session.session_id, "BEGIN")
        service.execute(session.session_id, "INSERT INTO t VALUES (2,'b')")
        service.execute(session.session_id, "ALTER TABLE t ADD COLUMN w INT")
        service.execute(session.session_id, "UPDATE t SET v = 'z' WHERE k = 1")
        service.execute(session.session_id, "ROLLBACK")
        # in-memory state rolled back...
        table = service.workbook.database.table("t")
        assert table.n_rows == 1
        assert table.column_names == ["k", "v"]
        # ...and the log holds no trace of the transaction
        assert service.wal.last_lsn == lsn_before
        kinds = [r.op.get("type") for r in service.wal.records()]
        assert "txn_begin" not in kinds
        service.close()

        reopened = make_service(tmp_path)
        table = reopened.workbook.database.table("t")
        assert table.n_rows == 1
        assert table.column_names == ["k", "v"]
        assert [row for _, _, row in table.scan()] == [(1, "a")]
        reopened.close()

    @pytest.mark.parametrize("in_txn", [False, True])
    def test_failed_statement_leaves_live_and_log_equal(self, tmp_path, in_txn):
        """A statement that fails on its k-th row is backed out of the
        engine just as its record is cut from the WAL: recovery and the
        live workbook never diverge."""
        service = make_service(tmp_path)
        sid = service.connect("alice").session_id
        service.execute(sid, "CREATE TABLE s (id INT PRIMARY KEY, v INT)")
        service.execute(sid, "INSERT INTO s VALUES (0, 3)")
        if in_txn:
            service.execute(sid, "BEGIN")
            service.execute(sid, "INSERT INTO s VALUES (5, 5)")
        lsn_before = service.wal.last_lsn
        failing = "INSERT INTO s VALUES (10, 1), (11, 2), (0, 3)"
        with pytest.raises(ConstraintError):
            service.execute(sid, failing)
        assert service.wal.last_lsn == lsn_before
        assert all(r.op.get("sql") != failing for r in service.wal.records())
        if in_txn:
            service.execute(sid, "COMMIT")
        table = service.workbook.database.table("s")
        live = table.rows()
        assert live == ([(0, 3), (5, 5)] if in_txn else [(0, 3)])
        table.validate()
        service.wal.sync()
        recovered = recover_state(str(tmp_path / "svc")).workbook.database.table("s")
        assert recovered.rows() == live
        service.close()

    def test_commit_makes_batch_durable(self, tmp_path):
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
        service.execute(session.session_id, "BEGIN")
        service.execute(session.session_id, "INSERT INTO t VALUES (1,'a')")
        service.execute(session.session_id, "ALTER TABLE t ADD COLUMN w INT")
        service.execute(session.session_id, "COMMIT")
        kinds = [r.op.get("type") for r in service.wal.records()]
        assert kinds.count("txn_begin") == 1 and kinds.count("txn_commit") == 1
        service.close()

        reopened = make_service(tmp_path)
        table = reopened.workbook.database.table("t")
        assert table.column_names == ["k", "v", "w"]
        assert table.n_rows == 1
        reopened.close()

    def test_sheet_edits_refused_inside_transaction(self, tmp_path):
        """The engine's undo log only rolls back database state, so a
        sheet edit inside a transaction would survive the rollback in
        memory while being truncated from the WAL — refuse it."""
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(session.session_id, "BEGIN")
        with pytest.raises(ServerError):
            service.set_cell(session.session_id, "Sheet1", "A1", 1)
        with pytest.raises(ServerError):
            service.apply(session.session_id, {"type": "add_sheet", "name": "X"})
        service.execute(session.session_id, "ROLLBACK")
        # outside a transaction the same ops are fine
        service.set_cell(session.session_id, "Sheet1", "A1", 1)
        assert service.workbook.get("Sheet1", "A1") == 1
        service.close()

    def test_direct_database_rollback_also_discards(self, tmp_path):
        """The hook lives on the TransactionManager, so a rollback driven
        through the workbook (not a service op) is still discarded."""
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (k INT PRIMARY KEY)")
        lsn_before = service.wal.last_lsn
        service.execute(session.session_id, "BEGIN")
        service.execute(session.session_id, "INSERT INTO t VALUES (1)")
        service.workbook.execute("ROLLBACK")  # bypasses service.apply
        assert service.wal.last_lsn == lsn_before
        service.close()


class TestSnapshotCompaction:
    def test_auto_compaction_and_suffix_replay(self, tmp_path):
        service = make_service(tmp_path, compact_every=5)
        session = service.connect("alice")
        for n in range(1, 8):  # crosses the compaction threshold at 5
            service.set_cell(session.session_id, "Sheet1", f"A{n}", n)
        assert service.snapshots.snapshots_written >= 1
        snapshot_lsn = service._snapshot_lsn
        assert snapshot_lsn >= 5
        service.close()

        recovery = recover_state(str(tmp_path / "svc"))
        assert recovery.snapshot_used
        # only the suffix past the snapshot was replayed
        assert recovery.ops_replayed == recovery.last_lsn - recovery.snapshot_lsn
        for n in range(1, 8):
            assert recovery.workbook.get("Sheet1", f"A{n}") == n

    def test_compact_refused_inside_transaction(self, tmp_path):
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (k INT PRIMARY KEY)")
        service.execute(session.session_id, "BEGIN")
        assert service.compact() is None
        with pytest.raises(ServerError):
            service.compact(force=True)
        service.execute(session.session_id, "COMMIT")
        assert service.compact() is not None
        service.close()

    def test_snapshot_atomic_replace(self, tmp_path):
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.set_cell(session.session_id, "Sheet1", "A1", 1)
        first = service.compact()
        service.set_cell(session.session_id, "Sheet1", "A2", 2)
        second = service.compact()
        assert first == second  # same path, replaced atomically
        assert not os.path.exists(first + ".tmp")
        service.close()


    def test_snapshot_bytes_match_the_streaming_encoder(self, tmp_path):
        """``write`` encodes with one ``json.dumps`` (the C encoder); the
        file must be byte-for-byte what ``json.dump`` streamed before, for
        every value type the dump can hold."""
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(
            session.session_id,
            "CREATE TABLE v (id INT PRIMARY KEY, f FLOAT, t TEXT, b BOOL, d DATE)",
        )
        service.execute(
            session.session_id,
            "INSERT INTO v VALUES (?, ?, ?, ?, ?), (2, NULL, NULL, NULL, NULL)",
            (1, 0.1 + 0.2, 'naïve "quoted" \\ 表', True, dt.date(2015, 8, 31)),
        )
        service.execute(session.session_id, "INSERT INTO v VALUES (3, 1e300, '', FALSE, NULL)")
        service.set_cell(session.session_id, "Sheet1", "A1", "=1/3")
        service.set_cell(session.session_id, "Sheet1", "A2", "text")
        service.set_cell(session.session_id, "Sheet1", "A3", -7)
        service.set_cell(session.session_id, "Sheet1", "A4", dt.datetime(2015, 8, 31, 9, 30, 15, 250))
        path = service.compact(force=True)
        with open(path, encoding="utf-8") as handle:
            written = handle.read()
        streamed = io.StringIO()
        json.dump(json.loads(written), streamed, separators=(",", ":"))
        assert written == streamed.getvalue()
        assert '{"$date":"2015-08-31"}' in written
        assert '{"$datetime":"2015-08-31T09:30:15.000250"}' in written
        service.close()


    def test_restore_keeps_a_stored_null_in_a_defaulted_column(self, tmp_path):
        """A snapshot holds stored rows, not INSERTs: restoring one must not
        turn a NULL the rows hold into the column DEFAULT."""
        service = make_service(tmp_path)
        session = service.connect("alice")
        for sql in (
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER DEFAULT 5)",
            "INSERT INTO t VALUES (1, 7)",
            "UPDATE t SET v = NULL",
        ):
            service.execute(session.session_id, sql)
        assert service.workbook.database.execute("SELECT v FROM t").rows == [(None,)]
        service.compact(force=True)
        service.close()
        recovered = recover_state(str(tmp_path / "svc"))
        assert recovered.snapshot_used and recovered.ops_replayed == 0
        assert recovered.workbook.database.execute("SELECT v FROM t").rows == [(None,)]


class TestWindowScroll:
    """A region edit resolves its table row as the window's offset plus the
    display row, so the scroll is an op: logged, and replayed."""

    def test_edit_after_a_scroll_replays_on_the_same_row(self, tmp_path):
        service = make_service(tmp_path)
        sid = service.connect("alice").session_id
        service.execute(sid, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        for i in range(20):
            service.execute(sid, f"INSERT INTO t VALUES ({i}, {i})")
        service.apply(
            sid,
            {"type": "dbtable", "sheet": "Sheet1", "anchor": "A1", "table": "t", "window_rows": 5},
        )
        service.apply(
            sid, {"type": "dbtable_scroll", "sheet": "Sheet1", "anchor": "A1", "offset": 10}
        )
        service.set_cell(sid, "Sheet1", "B2", 99)
        updated = "SELECT id FROM t WHERE v = 99"
        assert service.workbook.database.execute(updated).rows == [(10,)]
        service.close()

        recovered = recover_state(str(tmp_path / "svc")).workbook
        assert recovered.database.execute(updated).rows == [(10,)]
        (region,) = recovered.regions.all()
        assert region.offset == 10
        assert recovered.get("Sheet1", "A2") == 10

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"anchor": "C3", "offset": 1}, "no DBTABLE region is anchored at Sheet1!C3"),
            ({"anchor": "A2", "offset": 1}, "no DBTABLE region is anchored"),
            ({"anchor": "A1", "offset": -1}, "offset >= 0"),
        ],
    )
    def test_a_scroll_is_validated_before_the_wal(self, tmp_path, fields, error):
        service = make_service(tmp_path)
        sid = service.connect("alice").session_id
        service.execute(sid, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
        service.execute(sid, "INSERT INTO t VALUES (1), (2)")
        service.apply(sid, {"type": "dbtable", "sheet": "Sheet1", "anchor": "A1", "table": "t"})
        lsn = service.wal.last_lsn
        with pytest.raises(ServerError, match=error):
            service.apply(sid, {"type": "dbtable_scroll", "sheet": "Sheet1", **fields})
        assert service.wal.last_lsn == lsn
        service.close()


class TestOneServiceSideParse:
    """A sql op's text is parsed once in the service, by ``validate_op``;
    DDL promotion and the read-only test read that parse
    (``Database.execute`` makes the second and last)."""

    @pytest.fixture
    def counted(self, tmp_path, monkeypatch):
        from repro.engine import database as database_module
        from repro.server import service as service_module

        calls = {"service": 0, "database": 0}

        def counting(module, key):
            real = module.parse_sql

            def parse_sql(text):
                calls[key] += 1
                return real(text)

            monkeypatch.setattr(module, "parse_sql", parse_sql)

        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        service.execute(session.session_id, "INSERT INTO t VALUES (1, 10), (2, 20)")
        counting(service_module, "service")
        counting(database_module, "database")
        yield service, session.session_id, calls
        service.close()

    @pytest.mark.parametrize(
        "sql, engine_parses",
        [
            ("SELECT v FROM t WHERE k = 1", 1),
            ("UPDATE t SET v = 11 WHERE k = 1", 1),
            ("DELETE FROM t WHERE k = 2", 1),
            ("CREATE INDEX t_v ON t (v)", 0),  # promoted: replayed as index_create
            ("ALTER TABLE t SET LAYOUT COLUMN", 0),  # promoted: layout_set
            ("BEGIN", 0),
        ],
    )
    def test_parses_per_statement(self, counted, sql, engine_parses):
        service, session_id, calls = counted
        service.execute(session_id, sql)
        assert calls == {
            "service": 0 if sql == "BEGIN" else 1,
            "database": engine_parses,
        }

    def test_refusals_keep_their_error_and_order(self, counted):
        service, session_id, calls = counted
        lsn = service.wal.last_lsn
        with pytest.raises(ServerError, match="non-empty 'sql'"):
            service.apply(session_id, {"type": "sql", "sql": "  "})
        with pytest.raises(ServerError, match="non-empty 'sql'"):
            service.apply(session_id, {"type": "sql", "sql": 7})
        with pytest.raises(ServerError, match="must be a dict"):
            service.apply(session_id, "SELECT 1")
        assert calls["service"] == 0
        with pytest.raises(SqlSyntaxError):
            service.apply(session_id, {"type": "sql", "sql": "SELEC 1"})
        with pytest.raises(SqlError, match="takes one statement, got 2"):
            service.apply(session_id, {"type": "sql", "sql": "SELECT 1; SELECT 2"})
        assert calls == {"service": 2, "database": 0}
        assert service.wal.last_lsn == lsn

    def test_validate_op_hands_back_its_parse(self, counted):
        service, _, calls = counted
        (statement,) = validate_op(service.workbook, {"type": "sql", "sql": "SELECT 1"})
        assert type(statement).__name__ == "SelectStmt"
        assert validate_op(service.workbook, {"type": "sql", "sql": " begin; "}) is None
        assert validate_op(service.workbook, {"type": "add_sheet", "name": "S2"}) is None
        assert calls["service"] == 1


#: One well-formed op per table entry, carrying every field the entry
#: declares (``test_samples_cover_the_table`` keeps the two in step).
SAMPLE_OPS = {
    "set_cell": {"sheet": "Sheet1", "ref": "B2", "raw": 7},
    "sql": {"sql": "INSERT INTO t VALUES (?, ?)", "params": [9, "z"]},
    "add_sheet": {"name": "Other"},
    "dbtable": {
        "sheet": "Sheet1",
        "anchor": "D1",
        "table": "t",
        "include_headers": True,
        "window_rows": 5,
    },
    "dbtable_scroll": {"sheet": "Sheet1", "anchor": "D1", "offset": 1},
    "dbsql": {
        "sheet": "Sheet1",
        "anchor": "H1",
        "sql": "SELECT k FROM t",
        "include_headers": False,
    },
    "layout_set": {"table": "t", "mode": "target", "groups": [["k"], ["v"]]},
    "layout_step": {"table": "t", "groups": [["k"], ["v"]]},
    "index_create": {
        "name": "t_v",
        "table": "t",
        "column": "v",
        "unique": False,
        "if_not_exists": True,
    },
    "index_drop": {"name": "t_v", "if_exists": True},
    **{
        f"{verb}_{axis}": {"sheet": "Sheet1", "at": 50, "count": 2}
        for verb in ("insert", "delete")
        for axis in ("rows", "cols")
    },
}
SAMPLE_OPS = {kind: {"type": kind, **fields} for kind, fields in SAMPLE_OPS.items()}

WRONG = {"not": "this type"}  # an instance of no field type in the table

MALFORMED = [
    (kind, field, how)
    for kind, entry in OPS.items()
    for field, how in (
        [(field, "dropped") for field in entry.required]
        + [
            (field, "ill-typed")
            for field, wanted in {**entry.required, **entry.optional}.items()
            if wanted is not object
        ]
    )
]


def assert_table_invariants(ops):
    """What the retired registry lint policed, as plain assertions."""
    assert set(TXN_MARKERS).isdisjoint(ops)
    for kind, entry in ops.items():
        assert callable(entry.validate) and callable(entry.apply), kind
        assert callable(entry.logged), kind
        assert set(entry.required).isdisjoint(entry.optional), kind
        for promote in entry.promotions.values():
            assert callable(promote), kind


class TestOpTable:
    @pytest.fixture
    def served(self, tmp_path):
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
        service.execute(session.session_id, "INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        yield service, session.session_id
        service.close()

    def test_table_invariants(self):
        assert OP_TYPES == tuple(OPS)
        assert_table_invariants(OPS)

    def test_samples_cover_the_table(self, served):
        service, session_id = served
        assert set(SAMPLE_OPS) == set(OPS)
        service.apply(session_id, SAMPLE_OPS["dbtable"])  # what the scroll pans
        for kind, op in SAMPLE_OPS.items():
            entry = OPS[kind]
            assert set(op) == {"type", *entry.required, *entry.optional}, kind
            validate_op(service.workbook, op)  # well-formed: raises otherwise

    def test_whole_vocabulary_logs_and_replays(self, served, tmp_path):
        service, session_id = served
        for kind, op in SAMPLE_OPS.items():
            lsn = service.wal.last_lsn
            service.apply(session_id, op)
            assert service.wal.last_lsn == lsn + 1, kind
        live = service.workbook
        service.close()
        recovered = recover_state(str(tmp_path / "svc")).workbook
        assert recovered.sheet_names() == live.sheet_names()
        assert recovered.get("Sheet1", "D2") == live.get("Sheet1", "D2")
        table = recovered.database.table("t")
        assert table.n_rows == 3
        assert table.schema.groups == live.database.table("t").schema.groups

    @pytest.mark.parametrize("kind, field, how", MALFORMED)
    def test_malformed_op_is_a_server_error_before_the_wal(
        self, served, kind, field, how
    ):
        service, session_id = served
        op = dict(SAMPLE_OPS[kind])
        if how == "dropped":
            del op[field]
        else:
            op[field] = WRONG
        lsn, version, appends = (
            service.wal.last_lsn, service.version, service.wal.stats.appends
        )
        with pytest.raises(ServerError, match=f"{kind} operation .*'{field}'"):
            service.apply(session_id, op)
        assert (service.wal.last_lsn, service.version) == (lsn, version)
        assert service.wal.stats.appends == appends  # never reached the log

    @pytest.mark.parametrize("marker", TXN_MARKERS)
    def test_transaction_markers_are_not_client_ops(self, served, marker):
        service, session_id = served
        version, applied = service.version, service.ops_applied
        with pytest.raises(ServerError, match="unknown operation type"):
            service.apply(session_id, {"type": marker, "txn": 1})
        assert (service.version, service.ops_applied) == (version, applied)

    @pytest.mark.parametrize("kind", [k for k, e in OPS.items() if e.shift])
    def test_structural_shift_matches_the_workbook_method(self, kind):
        from repro import Workbook

        entry = OPS[kind]
        axis, sign = entry.shift
        workbook = Workbook()
        workbook.set("Sheet1", CellAddress(5, 5), "x")
        entry.apply(workbook, {"type": kind, "sheet": "Sheet1", "at": 1, "count": 2})
        moved = CellAddress(5 + 2 * sign, 5) if axis == "row" else CellAddress(5, 5 + 2 * sign)
        assert workbook.get("Sheet1", moved) == "x"

    def test_every_promotion_builds_a_valid_op(self, served):
        from repro.engine import sql_ast
        from repro.engine.sql_parser import parse_sql

        service, _ = served
        promotions = OPS["sql"].promotions
        statements = {
            sql_ast.AlterTableStmt: "ALTER TABLE t SET LAYOUT COLUMN",
            sql_ast.CreateIndexStmt: "CREATE UNIQUE INDEX IF NOT EXISTS t_v ON t (v)",
            sql_ast.DropIndexStmt: "DROP INDEX IF EXISTS t_v",
        }
        assert set(statements) == set(promotions)
        for cls, sql in statements.items():
            (statement,) = parse_sql(sql)
            promoted = promotions[cls](statement)
            assert promoted["type"] in OPS and promoted["type"] != "sql"
            validate_op(service.workbook, promoted)
        (other_alter,) = parse_sql("ALTER TABLE t ADD COLUMN w INT")
        assert promotions[sql_ast.AlterTableStmt](other_alter) is None  # stays SQL

    def test_a_new_op_is_one_table_entry(self, served, tmp_path, monkeypatch):
        """Nothing outside the table knows the vocabulary: an entry added
        here is validated, logged, applied and replayed."""

        def validate_stamp(workbook, op):
            workbook.sheet(op["sheet"])

        def apply_stamp(workbook, op):
            workbook.set(op["sheet"], "Z1", "stamped")

        monkeypatch.setitem(
            OPS, "stamp", OpEntry(validate_stamp, apply_stamp, required={"sheet": str})
        )
        assert_table_invariants(OPS)
        service, session_id = served
        with pytest.raises(ServerError, match="stamp operation .*'sheet'"):
            service.apply(session_id, {"type": "stamp"})
        with pytest.raises(SheetError):
            service.apply(session_id, {"type": "stamp", "sheet": "Nope"})
        result = service.apply(session_id, {"type": "stamp", "sheet": "Sheet1"})
        assert service.wal.records()[-1].op == {"type": "stamp", "sheet": "Sheet1"}
        assert result.lsn == service.wal.last_lsn
        assert service.workbook.get("Sheet1", "Z1") == "stamped"
        service.close()
        assert recover_state(str(tmp_path / "svc")).workbook.get("Sheet1", "Z1") == "stamped"

    def test_one_transaction_command_normaliser(self, served):
        from repro.engine.database import txn_command

        service, session_id = served
        assert txn_command(" Begin Transaction ; ") == "begin"
        assert txn_command("END") == "commit" and txn_command("abort;") == "rollback"
        assert txn_command("SELECT 1") is None
        service.execute(session_id, " Begin Transaction ; ")
        assert service.workbook.database.in_transaction
        service.execute(session_id, "abort;")
        assert not service.workbook.database.in_transaction


class TestCrashRecoveryInvariant:
    """Acceptance: for ANY prefix truncation of the WAL, recovery yields
    exactly the committed prefix — plain edits up to the cut, and the
    transactional batch all-or-nothing on its commit marker."""

    def build_workload(self, tmp_path):
        directory = str(tmp_path / "svc")
        service = WorkbookService(directory, fsync=False)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
        for n in range(1, 4):
            service.set_cell(session.session_id, "Sheet1", f"A{n}", n)
        service.execute(session.session_id, "BEGIN")
        service.execute(session.session_id, "INSERT INTO t VALUES (1,'a')")
        service.execute(session.session_id, "ALTER TABLE t ADD COLUMN w INT")
        service.execute(session.session_id, "COMMIT")
        service.close()
        wal_file = os.path.join(directory, WAL_FILENAME)
        with open(wal_file, "rb") as handle:
            data = handle.read()
        records, intact_end, size = read_wal(wal_file)
        assert intact_end == size
        return directory, data, records

    def recover_truncated(self, tmp_path, data, cut, case_dir):
        directory = str(tmp_path / case_dir)
        os.makedirs(directory)
        with open(os.path.join(directory, WAL_FILENAME), "wb") as handle:
            handle.write(data[:cut])
        return recover_state(directory)

    def test_every_byte_boundary_of_the_tail(self, tmp_path):
        directory, data, records = self.build_workload(tmp_path)
        by_type = {}
        for record in records:
            by_type.setdefault(record.op["type"], []).append(record)
        begin_record = by_type["txn_begin"][0]
        commit_record = by_type["txn_commit"][0]
        set_cell_records = by_type["set_cell"]

        # every byte boundary from the start of the transaction bracket to
        # EOF (covers every boundary of the final record), plus every
        # record boundary before it
        cuts = sorted(
            {record.end_offset for record in records if record.end_offset <= begin_record.offset}
            | set(range(begin_record.offset, len(data) + 1))
        )
        for index, cut in enumerate(cuts):
            recovery = self.recover_truncated(tmp_path, data, cut, f"case{index}")
            workbook = recovery.workbook
            # plain cells: applied iff their record is fully on disk
            for record in set_cell_records:
                n = int(record.op["raw"])
                expected = n if record.end_offset <= cut else None
                assert workbook.get("Sheet1", f"A{n}") == expected, f"cut={cut}"
            # the batch: all-or-nothing on the commit marker
            committed = commit_record.end_offset <= cut
            if workbook.database.has_table("t"):
                table = workbook.database.table("t")
                if committed:
                    assert table.n_rows == 1, f"cut={cut}"
                    assert table.column_names == ["k", "v", "w"], f"cut={cut}"
                else:
                    assert table.n_rows == 0, f"cut={cut}"
                    assert table.column_names == ["k", "v"], f"cut={cut}"
            else:
                assert not committed

    def test_truncated_tail_repaired_and_service_continues(self, tmp_path):
        directory, data, records = self.build_workload(tmp_path)
        # crash mid-way through the final record
        with open(os.path.join(directory, WAL_FILENAME), "wb") as handle:
            handle.write(data[: len(data) - 7])
        service = WorkbookService(directory, fsync=False)
        table = service.workbook.database.table("t")
        assert table.n_rows == 0  # batch lost its commit marker
        session = service.connect("alice")
        service.set_cell(session.session_id, "Sheet1", "B1", "after-crash")
        service.close()
        reopened = WorkbookService(directory, fsync=False)
        assert reopened.workbook.get("Sheet1", "B1") == "after-crash"
        reopened.close()


class TestRegionFailuresDoNotFailTheMutation:
    """A region that cannot refresh shows an error at its anchor; the DML
    or DDL that made it fail is applied, acknowledged and logged, and the
    live state equals the recovered one."""

    @pytest.fixture
    def regions(self, tmp_path):
        service = make_service(tmp_path, sync_every=1)
        sid = service.connect("alice").session_id
        service.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, g TEXT, v REAL)")
        service.execute(
            sid, "INSERT INTO t VALUES (1,'a',1.5),(2,'b',2.5),(3,'a',3.5),(4,'b',4.5)"
        )
        for anchor, sql in (
            ("A1", "SELECT g, v FROM t ORDER BY k"),
            ("A6", "SELECT COUNT(*) FROM t"),
        ):
            service.apply(sid, {"type": "dbsql", "sheet": "Sheet1", "anchor": anchor, "sql": sql})
        yield service, sid
        service.close()

    @staticmethod
    def shown(workbook):
        return workbook.get_range("Sheet1", "A1:B7")

    def assert_recovers(self, service, tmp_path):
        recovered = recover_state(str(tmp_path / "svc")).workbook
        assert self.shown(recovered) == self.shown(service.workbook)
        service.compact(force=True)
        recovered = recover_state(str(tmp_path / "svc")).workbook
        assert self.shown(recovered) == self.shown(service.workbook)

    def test_spill_collision_is_an_error_value(self, regions, tmp_path):
        service, sid = regions
        workbook = service.workbook
        service.execute(sid, "INSERT INTO t VALUES (10, 'c', 10.0)")
        result = service.execute(sid, "INSERT INTO t VALUES (11, 'c', 11.0)")
        assert result.lsn == service.wal.last_lsn  # acknowledged and logged
        assert workbook.database.table("t").n_rows == 6
        assert workbook.get("Sheet1", "A1") == "#SPILL!"
        assert [workbook.get("Sheet1", ref) for ref in ("B1", "A2", "A5")] == [None] * 3
        assert workbook.get("Sheet1", "A6") == 6  # the other region still flushed
        self.assert_recovers(service, tmp_path)
        # The next change that makes the result fit heals the region.
        service.execute(sid, "DELETE FROM t WHERE k = 11")
        assert workbook.get_range("Sheet1", "A1:B6") == [
            ["a", 1.5], ["b", 2.5], ["a", 3.5], ["b", 4.5], ["c", 10.0], [5, None],
        ]
        self.assert_recovers(service, tmp_path)

    def test_renamed_column_is_an_error_value(self, regions, tmp_path):
        service, sid = regions
        workbook = service.workbook
        service.execute(sid, "ALTER TABLE t RENAME COLUMN v TO w")
        assert workbook.database.table("t").column_names == ["k", "g", "w"]
        assert workbook.get("Sheet1", "A1") == "#VALUE!"
        assert workbook.get("Sheet1", "B1") is None
        assert workbook.get("Sheet1", "A6") == 4
        self.assert_recovers(service, tmp_path)
        service.execute(sid, "ALTER TABLE t RENAME COLUMN w TO v")
        assert workbook.get("Sheet1", "B4") == 4.5
        self.assert_recovers(service, tmp_path)

    def test_a_sum_past_the_largest_double_shows_what_a_query_shows(self, tmp_path):
        service = make_service(tmp_path, sync_every=1)
        sid = service.connect("alice").session_id
        service.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, price REAL)")
        sql = "SELECT SUM(price), AVG(price) FROM t"
        service.apply(sid, {"type": "dbsql", "sheet": "Sheet1", "anchor": "A1", "sql": sql})
        for k in (1, 2):
            result = service.execute(sid, f"INSERT INTO t VALUES ({k}, 1e308)")
            assert result.lsn == service.wal.last_lsn
        workbook = service.workbook
        expected = [list(workbook.database.execute(sql).rows[0])]
        assert expected == [[math.inf, math.inf]]
        assert workbook.get_range("Sheet1", "A1:B1") == expected
        recovered = recover_state(str(tmp_path / "svc")).workbook
        assert recovered.get_range("Sheet1", "A1:B1") == expected
        service.execute(sid, "DELETE FROM t WHERE k = 2")
        assert workbook.get_range("Sheet1", "A1:B1") == [[1e308, 1e308]]
        service.close()


class TestRegionDeltasFollowShownCells:
    """A region publishes a delta, and stamps its version for the stale
    check, only when a cell it shows changed."""

    @pytest.fixture
    def stock(self, tmp_path):
        service = make_service(tmp_path)
        editor = service.connect("editor", n_rows=20, n_cols=10)
        viewer = service.connect("viewer", n_rows=20, n_cols=10)
        service.execute(editor.session_id, "CREATE TABLE s (sku INT PRIMARY KEY, qty INT)")
        service.execute(
            editor.session_id,
            "INSERT INTO s VALUES " + ", ".join(f"({i}, {i % 7})" for i in range(50)),
        )
        service.apply(
            editor.session_id,
            {"type": "dbtable", "sheet": "Sheet1", "anchor": "A1", "table": "s",
             "window_rows": 10},
        )
        service.apply(
            editor.session_id,
            {"type": "dbsql", "sheet": "Sheet1", "anchor": "E1", "sql": "SELECT COUNT(*) FROM s"},
        )
        viewer.poll()
        yield service, editor, viewer
        service.close()

    def test_dml_on_an_undisplayed_row_publishes_nothing(self, stock):
        service, editor, viewer = stock
        base = viewer.last_seen_version
        versions = dict(service._region_versions)
        result = service.execute(editor.session_id, "UPDATE s SET qty = 99 WHERE sku = 40")
        assert [delta.kind for delta in result.deltas] == []
        assert service._region_versions == versions
        assert viewer.poll() == []
        # The viewer's edit from its older base is not stale: nothing it
        # could see changed.
        service.set_cell(viewer.session_id, "Sheet1", "B3", 5, base_version=base)
        assert service.workbook.database.execute("SELECT qty FROM s WHERE sku = 1").scalar() == 5

    def test_dml_on_a_displayed_row_still_publishes(self, stock):
        service, editor, viewer = stock
        base = viewer.last_seen_version
        result = service.execute(editor.session_id, "UPDATE s SET qty = 99 WHERE sku = 2")
        [delta] = result.deltas
        assert (delta.kind, delta.description) == ("region", "DBTABLE(s)")
        assert service._region_versions[delta.region_id] == service.version
        assert [delta.kind for delta in viewer.poll()] == ["region"]
        with pytest.raises(StaleWriteError):
            service.set_cell(viewer.session_id, "Sheet1", "B3", 5, base_version=base)
        assert service.workbook.get("Sheet1", "B4") == 99
