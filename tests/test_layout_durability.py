"""The tuned physical layout survives crashes and compaction.

Tentpole coverage for durable layouts: snapshot v2 carries the advisor
flag, the live grouping, the decayed access statistics and any in-flight
migration target; `layout_set`/`layout_step` WAL records make the
committed-suffix replay converge to the live layout; a server killed
mid-migration resumes and completes it after restart; and recovery
refuses a WAL that cannot contain the history its snapshot claims to
cover (truncated/recreated log = lost committed ops, not a clean boot).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.persist import workbook_from_dict, workbook_to_dict
from repro.errors import ServerError
from repro.server.service import (
    WAL_FILENAME,
    WorkbookService,
    recover_state,
)
from repro.server.snapshot import SnapshotStore
from repro.server.wal import WriteAheadLog, read_wal


def signature(grouping):
    return {frozenset(name.lower() for name in group) for group in grouping}


def make_service(tmp_path, name="svc", **kwargs) -> WorkbookService:
    kwargs.setdefault("fsync", False)
    kwargs.setdefault("compact_every", 0)
    return WorkbookService(str(tmp_path / name), **kwargs)


def build_wide_table(service, session, n_rows=800, name="t"):
    service.execute(
        session.session_id, f"CREATE TABLE {name} (a INT, b INT, c INT, d INT)"
    )
    # Distinct 8-byte ints: incompressible, so the maintenance loop's
    # encode-first pass stays out of these migration-focused scenarios
    # (encoding durability has its own coverage in test_vectorized.py).
    wide = 2**33
    for start in range(0, n_rows, 10):
        values = ",".join(
            f"({j * wide},{j * wide + 1},{j * wide + 2},{j * wide + 3})"
            for j in range(start, start + 10)
        )
        service.execute(session.session_id, f"INSERT INTO {name} VALUES {values}")
    return service.workbook.database.table(name)


def drive_split_migration(service, session, table, column="a", scans=60):
    """Scan-heavy workload until the advisor starts (and finishes) an
    online migration that splits ``column`` out as a singleton group."""
    service.execute(session.session_id, f"ALTER TABLE {table.name} SET LAYOUT AUTO")
    table.layout_advisor.min_ops = 8
    for _ in range(scans):
        list(table.store.scan_groups([column]))
    actions = []
    for _ in range(40):
        actions += [r["action"] for r in service.maintenance.tick(steps=1)]
        if actions and actions[-1] == "migrated":
            break
    assert "migration_started" in actions and "migrated" in actions
    assert [column] in table.schema.groups
    return actions


class TestSnapshotCarriesLayout:
    def test_auto_flag_survives_snapshot(self, tmp_path):
        """Regression: a snapshot taken after ALTER ... SET LAYOUT AUTO
        used to drop the flag — the recovered server came back with the
        advisor off."""
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (a INT, b INT)")
        service.execute(session.session_id, "ALTER TABLE t SET LAYOUT AUTO")
        service.compact()
        # Truncate the WAL entirely past the snapshot: the flag must come
        # from the snapshot alone, not from replaying the ALTER.
        service.close()
        reopened = make_service(tmp_path)
        assert reopened.workbook.database.table("t").auto_layout
        reopened.close()

    def test_grouping_and_stats_survive_snapshot(self, tmp_path):
        service = make_service(tmp_path)
        session = service.connect("alice")
        table = build_wide_table(service, session)
        drive_split_migration(service, session, table)
        tuned = table.schema.groups
        stats_before = table.store.access_stats.to_dict()
        service.compact()
        service.close()

        reopened = make_service(tmp_path)
        recovered = reopened.workbook.database.table("t")
        assert recovered.schema.groups == tuned
        assert recovered.auto_layout
        # The decayed workload window came back verbatim: the advisor
        # resumes from live statistics, not cold counters.
        assert recovered.store.access_stats.to_dict() == stats_before
        recovered.validate()
        reopened.close()

    def test_group_io_counters_survive_snapshot(self, tmp_path):
        """ROADMAP item: the per-group I/O surface (`pager.tag_stats`)
        used to reset to zero on every recovery."""
        service = make_service(tmp_path)
        session = service.connect("alice")
        table = build_wide_table(service, session)
        service.workbook.database.checkpoint()
        for _ in range(10):
            list(table.store.scan_groups(["a"]))
        io_before = table.store.group_io_snapshot()
        assert any(entry["writes"] or entry["allocations"] for entry in io_before)
        service.compact()
        service.close()

        reopened = make_service(tmp_path)
        recovered = reopened.workbook.database.table("t")
        assert recovered.store.group_io_snapshot() == io_before
        reopened.close()

    def test_snapshot_mid_migration_resumes_and_completes(self, tmp_path):
        """Acceptance: a server killed mid-migration resumes from the
        persisted target and completes after restart."""
        service = make_service(tmp_path)
        session = service.connect("alice")
        table = build_wide_table(service, session)
        drive_split_migration(service, session, table)
        # Flip the workload point-read heavy so the advisor wants to merge
        # back, then stop after the migration has started but not finished.
        table.store.access_stats.reset()
        for rid in table.store.rids()[:400]:
            table.store.get(rid)
        [report] = service.maintenance.tick(steps=1)
        assert report["action"] == "migration_started"
        assert table.migration_active
        mid_groups = table.schema.groups
        target = table.layout_migration_target
        service.compact()
        service.close()  # "crash" with the migration half done

        reopened = make_service(tmp_path)
        recovered = reopened.workbook.database.table("t")
        assert recovered.schema.groups == mid_groups
        assert recovered.migration_active
        assert recovered.layout_migration_target == target
        # The serve loop's maintenance beat completes the migration.
        for _ in range(40):
            if not recovered.migration_active:
                break
            reopened.maintenance.tick(steps=1)
        assert not recovered.migration_active
        assert signature(recovered.schema.groups) == signature(target)
        recovered.validate()
        reopened.close()

    def test_snapshot_v1_still_loads(self, tmp_path):
        """A v1 snapshot (no layout fields) recovers with v2 defaults:
        grouping from `groups`, advisor off, cold stats, no migration."""
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(
            session.session_id, "CREATE TABLE t (a INT, b INT)"
        )
        service.execute(session.session_id, "INSERT INTO t VALUES (1,2)")
        payload = {
            "version": 1,
            "wal_lsn": service.wal.last_lsn,
            "wal_offset": service.wal.end_offset,
            "workbook": workbook_to_dict(service.workbook),
        }
        # Strip every v2 field down to the v1 shape.
        payload["workbook"]["version"] = 1
        for spec in payload["workbook"]["tables"]:
            for key in ("auto_layout", "access_stats", "migration_target"):
                spec.pop(key, None)
        service.wal.sync()
        path = os.path.join(str(tmp_path / "svc"), SnapshotStore.FILENAME)
        with open(path, "w") as handle:
            json.dump(payload, handle)
        service.close()

        recovery = recover_state(str(tmp_path / "svc"))
        assert recovery.snapshot_used
        table = recovery.workbook.database.table("t")
        assert table.schema.groups == [["a", "b"]]
        assert not table.auto_layout
        assert not table.migration_active

    def test_persist_v1_payload_still_loads(self):
        payload = workbook_to_dict(
            workbook_from_dict({"version": 1, "tables": [], "sheets": []})
        )
        assert payload["version"] == 2


class TestWalLayoutOps:
    def test_alter_set_layout_logged_as_first_class_op(self, tmp_path):
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (a INT, b INT, c INT)")
        service.execute(session.session_id, "ALTER TABLE t SET LAYOUT COLUMN")
        service.execute(session.session_id, "ALTER TABLE t SET LAYOUT AUTO")
        kinds = [r.op["type"] for r in service.wal.records()]
        assert kinds.count("layout_set") == 2
        modes = [
            r.op["mode"] for r in service.wal.records() if r.op["type"] == "layout_set"
        ]
        assert modes == ["column", "auto"]
        service.close()

        # No snapshot: pure WAL replay must reproduce the layout, not the
        # CREATE TABLE default grouping.
        reopened = make_service(tmp_path)
        table = reopened.workbook.database.table("t")
        assert table.schema.groups == [["a"], ["b"], ["c"]]
        assert table.auto_layout
        reopened.close()

    def test_advisor_migration_replays_without_snapshot(self, tmp_path):
        """The advisor's decision is driven by *unlogged* statistics
        (reads are never WAL-logged), so replay can only converge because
        the migration start and every step are logged as first-class
        records."""
        service = make_service(tmp_path)
        session = service.connect("alice")
        table = build_wide_table(service, session)
        drive_split_migration(service, session, table)
        live = table.schema.groups
        kinds = [r.op["type"] for r in service.wal.records()]
        assert "layout_set" in kinds and "layout_step" in kinds
        service.close()

        recovery = recover_state(str(tmp_path / "svc"))
        recovered = recovery.workbook.database.table("t")
        assert recovered.schema.groups == live
        assert recovered.auto_layout
        recovered.validate()

    def test_set_layout_inside_transaction_stays_sql(self, tmp_path):
        """Inside a transaction the ALTER keeps riding the engine's undo
        log (and the txn bracket's all-or-nothing replay), so it must not
        be promoted to a layout_set record."""
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (a INT, b INT)")
        service.execute(session.session_id, "BEGIN")
        service.execute(session.session_id, "ALTER TABLE t SET LAYOUT COLUMN")
        kinds = [r.op["type"] for r in service.wal.records()]
        assert "layout_set" not in kinds
        service.execute(session.session_id, "ROLLBACK")
        assert service.workbook.database.table("t").schema.groups == [["a", "b"]]
        service.close()

    def test_client_submitted_layout_target_op(self, tmp_path):
        """layout_set mode=target is a first-class client op: it arms an
        online migration that maintenance then steps durably."""
        service = make_service(tmp_path)
        session = service.connect("alice")
        build_wide_table(service, session, n_rows=100)
        service.apply(
            session.session_id,
            {
                "type": "layout_set",
                "table": "t",
                "mode": "target",
                "groups": [["a", "c"], ["b", "d"]],
            },
        )
        table = service.workbook.database.table("t")
        assert table.migration_active
        while table.migration_active:
            service.maintenance.tick(steps=1)
        assert signature(table.schema.groups) == signature([["a", "c"], ["b", "d"]])
        service.close()

        recovery = recover_state(str(tmp_path / "svc"))
        recovered = recovery.workbook.database.table("t")
        assert signature(recovered.schema.groups) == signature(
            [["a", "c"], ["b", "d"]]
        )
        recovered.validate()

    def test_completed_migration_not_reported_in_flight_after_replay(
        self, tmp_path
    ):
        """Regression: replayed layout_step ops restructure outside the
        armed LayoutMigration, so recovery of a migration that *finished*
        before the crash used to leave migration_active=True with the
        target equal to the live grouping — a phantom 'migrating ->'
        in replay reports and a spurious target in later snapshots."""
        service = make_service(tmp_path)
        session = service.connect("alice")
        table = build_wide_table(service, session)
        drive_split_migration(service, session, table)  # completes fully
        assert not table.migration_active
        service.close()

        recovery = recover_state(str(tmp_path / "svc"))
        recovered = recovery.workbook.database.table("t")
        assert recovered.schema.groups == table.schema.groups
        assert not recovered.migration_active
        assert recovered.layout_migration_target is None
        # ...and a snapshot taken right after recovery stays clean.
        reopened = make_service(tmp_path)
        reopened.compact()
        reopened.close()
        payload = SnapshotStore(str(tmp_path / "svc")).load()
        [spec] = payload["workbook"]["tables"]
        assert spec["migration_target"] is None

    def test_malformed_layout_ops_rejected_before_wal(self, tmp_path):
        service = make_service(tmp_path)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (a INT, b INT)")
        lsn = service.wal.last_lsn
        with pytest.raises(ServerError):
            service.apply(
                session.session_id,
                {"type": "layout_set", "table": "ghost", "mode": "auto"},
            )
        with pytest.raises(ServerError):
            service.apply(
                session.session_id,
                {"type": "layout_set", "table": "t", "mode": "sideways"},
            )
        with pytest.raises(ServerError):
            service.apply(
                session.session_id,
                {"type": "layout_step", "table": "t", "groups": []},
            )
        with pytest.raises(ServerError):
            service.apply(
                session.session_id,
                {"type": "layout_step", "table": "t", "groups": [[]]},
            )
        assert service.wal.last_lsn == lsn
        service.close()


class TestCrashBetweenMigrationSteps:
    """Acceptance: kill between migration step N and N+1 (at every byte
    boundary of the tail), restart — the layout is a consistent
    intermediate, and the migration resumes and completes."""

    def build(self, tmp_path):
        directory = str(tmp_path / "svc")
        service = WorkbookService(directory, fsync=False, compact_every=0)
        session = service.connect("alice")
        build_wide_table(service, session, n_rows=80)
        # Start from [[a,b],[c,d]] so the hop to [[a,c],[b,d]] needs two
        # splits and two merges: a genuinely multi-step migration.
        service.apply(
            session.session_id,
            {
                "type": "layout_set",
                "table": "t",
                "mode": "target",
                "groups": [["a", "b"], ["c", "d"]],
            },
        )
        table = service.workbook.database.table("t")
        rows = sorted(table.store.read_row(rid) for rid in table.store.rids())
        groupings_after_step = []  # live grouping right after each step
        previous = table.schema.groups
        while table.migration_active:
            service.maintenance.tick(steps=1)
            if table.schema.groups != previous:
                previous = table.schema.groups
                groupings_after_step.append(previous)
        assert table.schema.groups == [["a", "b"], ["c", "d"]]
        service.apply(
            session.session_id,
            {
                "type": "layout_set",
                "table": "t",
                "mode": "target",
                "groups": [["a", "c"], ["b", "d"]],
            },
        )
        while table.migration_active:
            service.maintenance.tick(steps=1)
            if table.schema.groups != previous:
                previous = table.schema.groups
                groupings_after_step.append(previous)
        assert len(groupings_after_step) >= 3  # one split + split/split/merge/merge
        service.close()
        with open(os.path.join(directory, WAL_FILENAME), "rb") as handle:
            data = handle.read()
        return directory, data, rows, groupings_after_step

    def recover_cut(self, tmp_path, data, cut, case):
        directory = str(tmp_path / f"case{case}")
        os.makedirs(directory)
        with open(os.path.join(directory, WAL_FILENAME), "wb") as handle:
            handle.write(data[:cut])
        return recover_state(directory), directory

    def test_crash_cuts_across_the_migration_tail(self, tmp_path):
        directory, data, rows, groupings = self.build(tmp_path)
        records, _, _ = read_wal(os.path.join(directory, WAL_FILENAME))
        step_records = [r for r in records if r.op["type"] == "layout_step"]
        target_records = [
            r
            for r in records
            if r.op["type"] == "layout_set" and r.op.get("mode") == "target"
        ]
        assert len(step_records) == len(groupings)
        first_step = step_records[0]
        # Every record boundary (and its neighbours, covering torn-record
        # cuts) across the migration tail, plus a stride over the interior
        # bytes — full decision coverage without a per-byte sweep.
        cuts = set()
        for record in records:
            if record.end_offset >= first_step.offset:
                cuts.update(
                    (
                        record.offset,
                        record.offset + 1,
                        record.end_offset - 1,
                        record.end_offset,
                    )
                )
        cuts.update(range(first_step.offset, len(data) + 1, 7))
        cuts.add(len(data))
        for case, cut in enumerate(
            sorted(c for c in cuts if first_step.offset <= c <= len(data))
        ):
            recovery, case_dir = self.recover_cut(tmp_path, data, cut, case)
            table = recovery.workbook.database.table("t")
            # 1. the layout is always a consistent intermediate
            table.validate()
            # 2. exactly the fully-logged steps are reflected
            applied = sum(1 for r in step_records if r.end_offset <= cut)
            expected = (
                groupings[applied - 1] if applied else [["a", "b", "c", "d"]]
            )
            assert table.schema.groups == expected, f"cut={cut}"
            # 3. rows never diverge
            recovered_rows = sorted(
                table.store.read_row(rid) for rid in table.store.rids()
            )
            assert recovered_rows == rows, f"cut={cut}"
            # 4. the migration resumes from the last durably-armed target
            # and completes under the recovered server's maintenance loop
            armed = [r for r in target_records if r.end_offset <= cut]
            final_signature = signature(armed[-1].op["groups"])
            reopened = WorkbookService(case_dir, fsync=False)
            recovered = reopened.workbook.database.table("t")
            for _ in range(40):
                if not recovered.migration_active:
                    break
                reopened.maintenance.tick(steps=1)
            assert not recovered.migration_active, f"cut={cut}"
            assert signature(recovered.schema.groups) == final_signature, (
                f"cut={cut}"
            )
            recovered.validate()
            reopened.close()


class TestSnapshotWalMismatch:
    """Satellite: a WAL shorter than (or unrelated to) the snapshot's
    covered prefix means committed operations are lost — recovery must
    fail loudly, not 'succeed' by silently replaying nothing."""

    def build(self, tmp_path):
        directory = str(tmp_path / "svc")
        service = WorkbookService(directory, fsync=False, compact_every=0)
        session = service.connect("alice")
        for n in range(1, 9):
            service.set_cell(session.session_id, "Sheet1", f"A{n}", n)
        service.compact()
        for n in range(9, 12):
            service.set_cell(session.session_id, "Sheet1", f"A{n}", n)
        service.close()
        return directory

    def test_wal_shorter_than_snapshot_coverage(self, tmp_path):
        directory = self.build(tmp_path)
        payload = SnapshotStore(directory).load()
        wal_path = os.path.join(directory, WAL_FILENAME)
        with open(wal_path, "rb") as handle:
            data = handle.read()
        cut = int(payload["wal_offset"]) // 2
        with open(wal_path, "wb") as handle:
            handle.write(data[:cut])
        with pytest.raises(ServerError, match="truncated or deleted"):
            recover_state(directory)
        with pytest.raises(ServerError):
            WorkbookService(directory, fsync=False)

    def test_deleted_wal_with_snapshot(self, tmp_path):
        directory = self.build(tmp_path)
        os.remove(os.path.join(directory, WAL_FILENAME))
        with pytest.raises(ServerError, match="truncated or deleted"):
            recover_state(directory)

    def test_recreated_wal_does_not_line_up(self, tmp_path):
        directory = self.build(tmp_path)
        wal_path = os.path.join(directory, WAL_FILENAME)
        snapshot_offset = int(SnapshotStore(directory).load()["wal_offset"])
        os.remove(wal_path)
        # A fresh log, restarted at LSN 1, padded past the snapshot offset
        # so only the boundary/LSN check can catch the mismatch.
        wal = WriteAheadLog(wal_path, fsync=False)
        n = 0
        while wal.end_offset <= snapshot_offset + 64:
            n += 1
            wal.append(
                {"type": "set_cell", "sheet": "Sheet1", "ref": "Z9", "raw": n}
            )
        wal.close()
        with pytest.raises(ServerError, match="does not match the snapshot"):
            recover_state(directory)

    def test_intact_directory_still_recovers(self, tmp_path):
        directory = self.build(tmp_path)
        recovery = recover_state(directory)
        assert recovery.snapshot_used
        for n in range(1, 12):
            assert recovery.workbook.get("Sheet1", f"A{n}") == n


# ---------------------------------------------------------------------------
# Property: random edits + migrations + crash/recover at arbitrary byte
# boundaries => recovered workbook ≡ live workbook at the corresponding
# point, and the recovered grouping ≡ the live grouping there.
# ---------------------------------------------------------------------------

ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("cell"), st.integers(1, 10), st.integers(0, 99)),
        st.tuples(st.just("insert"), st.integers(0, 400), st.none()),
        st.tuples(st.just("scan"), st.sampled_from(["a", "b", "c", "d"]), st.none()),
        st.tuples(st.just("point"), st.integers(1, 30), st.none()),
        st.tuples(
            st.just("layout"),
            st.sampled_from(["AUTO", "MANUAL", "ROW", "COLUMN"]),
            st.none(),
        ),
        st.tuples(st.just("rows"), st.sampled_from(["insert", "delete"]), st.integers(0, 6)),
        st.tuples(st.just("tick"), st.none(), st.none()),
        st.tuples(st.just("compact"), st.none(), st.none()),
    ),
    min_size=4,
    max_size=18,
)

PROBES = [f"A{n}" for n in range(1, 11)] + ["B2", "C3"]


def live_digest(workbook):
    table = workbook.database.table("t")
    return {
        "cells": {ref: workbook.get("Sheet1", ref) for ref in PROBES},
        "rows": sorted(table.store.read_row(rid) for rid in table.store.rids()),
        "groups": table.schema.groups,
        "auto": table.auto_layout,
        "target": table.layout_migration_target,
    }


@settings(max_examples=12, deadline=None)
@given(actions=ACTIONS, cut_seed=st.integers(0, 10**9))
def test_crash_recovery_matches_live_state(actions, cut_seed):
    with tempfile.TemporaryDirectory() as tmp:
        directory = os.path.join(tmp, "svc")
        service = WorkbookService(directory, fsync=False, compact_every=0)
        session = service.connect("prop")
        service.execute(
            session.session_id, "CREATE TABLE t (a INT, b INT, c INT, d INT)"
        )
        table = service.workbook.database.table("t")
        table.layout_advisor.min_ops = 6
        service.wal.sync()
        # Cuts before the CREATE TABLE record (or before the latest
        # snapshot's coverage) are out of scope for this property.
        snapshot_floor = service.wal.end_offset
        boundaries = {service.wal.end_offset: live_digest(service.workbook)}
        for kind, x, y in actions:
            if kind == "cell":
                service.set_cell(session.session_id, "Sheet1", f"A{x}", y)
            elif kind == "insert":
                service.execute(
                    session.session_id,
                    f"INSERT INTO t VALUES ({x},{x + 1},{x + 2},{x + 3})",
                )
            elif kind == "scan":
                for _ in range(8):
                    list(table.store.scan_groups([x]))  # unlogged, stats only
            elif kind == "point":
                rids = table.store.rids()
                for rid in rids[: min(x, len(rids))]:
                    table.store.get(rid)  # unlogged, stats only
            elif kind == "layout":
                service.execute(
                    session.session_id, f"ALTER TABLE t SET LAYOUT {x}"
                )
            elif kind == "rows":
                if x == "insert":
                    service.apply(
                        session.session_id,
                        {"type": "insert_rows", "sheet": "Sheet1", "at": y, "count": 1},
                    )
                else:
                    service.apply(
                        session.session_id,
                        {"type": "delete_rows", "sheet": "Sheet1", "at": y, "count": 1},
                    )
            elif kind == "tick":
                service.maintenance.tick(steps=1)
            else:  # compact
                service.compact()
                snapshot_floor = service.wal.end_offset
            service.wal.sync()
            boundaries[service.wal.end_offset] = live_digest(service.workbook)
        service.close()

        wal_path = os.path.join(directory, WAL_FILENAME)
        with open(wal_path, "rb") as handle:
            data = handle.read()
        cut = snapshot_floor + cut_seed % (len(data) - snapshot_floor + 1)
        case_dir = os.path.join(tmp, "case")
        os.makedirs(case_dir)
        with open(os.path.join(case_dir, WAL_FILENAME), "wb") as handle:
            handle.write(data[:cut])
        snapshot_path = os.path.join(directory, SnapshotStore.FILENAME)
        if os.path.exists(snapshot_path):
            shutil.copy(snapshot_path, os.path.join(case_dir, SnapshotStore.FILENAME))

        recovery = recover_state(case_dir)
        recovered = recovery.workbook
        recovered.database.table("t").validate()
        if cut in boundaries:
            # A cut at an operation boundary recovers the exact live state
            # the server had there — cells, rows, grouping, advisor flag
            # and in-flight migration target alike.
            assert live_digest(recovered) == boundaries[cut]
        # Any cut (boundary or torn record) leaves a consistent layout
        # whose migration, if armed, completes under maintenance.
        database = recovered.database
        for _ in range(40):
            if not database.table("t").migration_active:
                break
            database.maintenance_tick(steps=2)
        assert not database.table("t").migration_active
        database.table("t").validate()
