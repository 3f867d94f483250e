"""HTAP isolation: snapshot-isolated reads × background maintenance.

The PR-9 acceptance battery.  Storage level: a scan opened before a
write or layout migration streams exactly the pre-write rows; retired
copy-on-write pages are reclaimed once the last snapshot that could see
them is released.  Pager level: the two-thread counter hammer that
regression-tests the unlocked read-modify-write in
``DiskManager.add_bytes`` / ``tag_stats``.  Control level: the
:class:`MaintenanceWorker` lifecycle (wake / pause / resume / drain /
crash), ``Database(background_maintenance=True)`` convergence, and the
durable server's WAL handoff queue — including recovery equivalence
after a simulated crash mid-background-step.  The property test at the
bottom interleaves random DML, a live migration thread and mid-stream
snapshot scans against a single-threaded dict model.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.hybridstore import suggested_tick_budget
from repro.engine.maintenance import MaintenanceWorker
from repro.engine.pager import BufferPool, DiskManager
from repro.engine.schema import TableSchema
from repro.engine.store import GroupedTupleStore, LayoutPolicy
from repro.engine.types import DBType
from repro.server.service import WorkbookService, recover_state


def schema4(group_size=2):
    return TableSchema.from_pairs(
        [
            ("a", DBType.INTEGER),
            ("b", DBType.TEXT),
            ("c", DBType.REAL),
            ("d", DBType.TEXT),
        ],
        group_size=group_size,
    )


def make_store(n_rows=0, page_capacity=8):
    store = GroupedTupleStore(
        schema4(), layout=LayoutPolicy.HYBRID, page_capacity=page_capacity
    )
    for i in range(n_rows):
        store.insert((i, f"t{i}", i * 0.5, f"u{i}"))
    return store


def rows_of(store, snapshot=None):
    names = store.schema.column_names
    return [values for _, values in store.scan_groups(names, snapshot=snapshot)]


def make_service(tmp_path, name="svc", **kwargs) -> WorkbookService:
    kwargs.setdefault("fsync", False)
    kwargs.setdefault("compact_every", 0)
    return WorkbookService(str(tmp_path / name), **kwargs)


def signature(grouping):
    return {frozenset(name.lower() for name in group) for group in grouping}


# -- storage: snapshot isolation ----------------------------------------------


class TestSnapshotIsolation:
    def test_scan_opened_before_write_sees_pre_write_rows(self):
        """The ISSUE's acceptance criterion, at store level: open the
        scan, then insert/update/delete underneath it — the scan streams
        exactly the rows that existed at open."""
        store = make_store(30)
        before = rows_of(store)
        names = store.schema.column_names
        scan = store.scan_groups(names)  # snapshot pinned here
        store.insert((999, "new", 9.9, "new"))
        store.update(0, (-1, "patched", -1.0, "patched"))
        store.delete(5)
        assert [values for _, values in scan] == before
        # A fresh scan sees the post-write world.
        after = rows_of(store)
        assert len(after) == 30  # +1 insert, -1 delete
        assert (-1, "patched", -1.0, "patched") in after
        store.validate()

    def test_scan_survives_concurrent_restructure(self):
        """A restructure swapping every chain mid-scan must not disturb
        an open iterator: it keeps streaming the pinned pre-step chains."""
        store = make_store(60)
        before = rows_of(store)
        names = store.schema.column_names
        scan = store.scan_groups(names)
        seen = [next(scan), next(scan)]  # partially consumed
        store.restructure([["a", "b", "c", "d"]])  # hybrid -> row
        store.restructure([["a"], ["b"], ["c"], ["d"]])  # row -> column
        seen += list(scan)
        assert [values for _, values in seen] == before
        assert rows_of(store) == before  # contents unchanged by migration
        store.validate()

    def test_scan_survives_concurrent_encoding(self):
        store = make_store(80)
        before = rows_of(store)
        scan = store.scan_groups(store.schema.column_names)
        for gi in range(store.n_groups):
            store.encode_group(gi)
        assert [values for _, values in scan] == before
        store.validate()

    def test_batches_survive_concurrent_migration(self):
        store = make_store(64)
        names = store.schema.column_names
        expected = [values for _, values in store.scan_groups(names)]
        batches = store.scan_group_batches(names, batch_size=16)
        first = next(batches)
        store.restructure([["a", "b", "c", "d"]])
        rest = list(batches)
        got = []
        for rids, cols in [first] + rest:
            got += list(zip(*cols))
        assert got == [tuple(v) for v in expected]

    def test_explicit_snapshot_context_manager(self):
        store = make_store(10)
        with store.snapshot() as snap:
            assert store.snapshot_stats()["active_snapshots"] == 1
            before = rows_of(store, snapshot=snap)
            store.insert((100, "x", 1.0, "y"))
            assert rows_of(store, snapshot=snap) == before
        assert store.snapshot_stats()["active_snapshots"] == 0

    def test_pages_reclaimed_after_last_snapshot_releases(self):
        """Copy-on-write retires superseded pages only while a snapshot
        could still read them; releasing the last snapshot frees them and
        the disk page count returns to the no-snapshot trajectory."""
        store = make_store(40)
        disk = store.pool._disk
        snap = store.snapshot()
        baseline_pages = disk.n_pages
        for rid in range(40):
            store.update(rid, (-rid, "w", 0.0, "w"))  # COW under the snapshot
        assert disk.n_pages > baseline_pages  # old images kept alive
        assert store.snapshot_stats()["retired_pages"] > 0
        snap.release()
        stats = store.snapshot_stats()
        assert stats["active_snapshots"] == 0
        assert stats["retired_pages"] == 0  # reclaimed eagerly on release
        store.validate()

    def test_no_snapshot_means_no_cow_overhead(self):
        """With zero open snapshots the write path must free superseded
        pages immediately — no retirement debt accrues."""
        store = make_store(40)
        for rid in range(40):
            store.update(rid, (rid, "w", 0.0, "w"))
        stats = store.snapshot_stats()
        assert stats["retired_pages"] == 0 and stats["retired_tags"] == 0

    def test_stacked_snapshots_release_in_any_order(self):
        store = make_store(20)
        s1 = store.snapshot()
        store.insert((100, "x", 1.0, "x"))
        s2 = store.snapshot()
        store.insert((101, "y", 2.0, "y"))
        assert len(rows_of(store, snapshot=s1)) == 20
        assert len(rows_of(store, snapshot=s2)) == 21
        s1.release()
        assert len(rows_of(store, snapshot=s2)) == 21  # s2 unaffected
        s2.release()
        s2.release()  # idempotent
        assert store.snapshot_stats()["retired_pages"] == 0
        store.validate()

    def test_table_scan_isolated_from_dml(self):
        """Table-level acceptance: presentation order and store chains
        are pinned in one critical section at operator open."""
        db = Database(auto_layout_interval=0)
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
        for i in range(25):
            db.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
        table = db.table("t")
        before = table.rows()
        scan = table.scan()
        db.execute("INSERT INTO t VALUES (999, 'late')")
        db.execute("DELETE FROM t WHERE k = 3")
        assert [row for _, _, row in scan] == before
        assert len(table.rows()) == 25


# -- pager: the two-thread counter hammer (satellite 1) -----------------------


class TestPagerThreadSafety:
    def test_add_bytes_hammer_exact_totals(self):
        """Regression for the unlocked read-modify-write in
        ``DiskManager.add_bytes``: two threads hammering the same tag
        must lose no increments."""
        disk = DiskManager()
        n, per = 2, 20_000

        def hammer():
            for _ in range(per):
                disk.add_bytes("t", bytes_read=1, bytes_written=2)

        threads = [threading.Thread(target=hammer) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = disk.tag_stats("t")
        assert stats.bytes_read == n * per
        assert stats.bytes_written == 2 * n * per

    def test_tag_stats_read_during_hammer_is_consistent(self):
        """tag_stats hands back a snapshot copy; concurrent readers must
        never observe torn or backsliding counters."""
        disk = DiskManager()
        stop = threading.Event()
        bad = []

        def writer():
            while not stop.is_set():
                disk.add_bytes("t", bytes_read=1, bytes_written=1)

        def reader():
            last = 0
            while not stop.is_set():
                stats = disk.tag_stats("t")
                if stats.bytes_read != stats.bytes_written:
                    bad.append((stats.bytes_read, stats.bytes_written))
                if stats.bytes_read < last:
                    bad.append(("backslide", last, stats.bytes_read))
                last = stats.bytes_read
        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        w.start(), r.start()
        time.sleep(0.2)
        stop.set()
        w.join(), r.join()
        assert not bad

    def test_pin_blocks_eviction_and_unpin_releases(self):
        pool = BufferPool(capacity=2, page_capacity=8)
        p1 = pool.new_page("t")
        pool.pin(p1.page_id)
        for _ in range(6):
            pool.new_page("t")  # churn far past capacity
        assert p1.page_id in pool._frames  # pinned page never evicted
        assert pool.pin_count(p1.page_id) == 1
        pool.unpin(p1.page_id)
        assert pool.pin_count(p1.page_id) == 0
        for _ in range(6):
            pool.new_page("t")
        assert len(pool._frames) <= 2 + 1  # eviction works again


# -- control: MaintenanceWorker lifecycle -------------------------------------


class TestMaintenanceWorker:
    def test_wake_runs_beat_until_quiescent(self):
        remaining = [3]
        done = threading.Event()

        def beat():
            if remaining[0] <= 0:
                done.set()
                return False
            remaining[0] -= 1
            return True

        worker = MaintenanceWorker(beat, backoff=0).start()
        worker.wake()
        assert done.wait(5.0)
        worker.stop(drain=False)
        assert remaining[0] == 0
        assert worker.beats >= 3

    def test_drain_runs_on_callers_thread_and_records_event(self):
        from repro.obs import EventLog

        events = EventLog()
        remaining = [5]
        beat_threads = set()

        def beat():
            beat_threads.add(threading.current_thread())
            if remaining[0] <= 0:
                return False
            remaining[0] -= 1
            return True

        worker = MaintenanceWorker(beat, events=events)  # never started
        ran = worker.drain()
        assert ran == 5 and remaining[0] == 0
        assert beat_threads == {threading.current_thread()}
        [drain_event] = events.of_kind("maintenance_drain")
        assert drain_event.data["beats"] == 5

    def test_beat_errors_are_counted_not_fatal(self):
        from repro.obs import EventLog

        events = EventLog()
        calls = []

        def beat():
            calls.append(1)
            raise RuntimeError("boom")

        worker = MaintenanceWorker(beat, events=events).start()
        worker.wake()
        deadline = time.monotonic() + 5.0
        while not calls and time.monotonic() < deadline:
            time.sleep(0.005)
        worker.stop(drain=False)
        assert worker.errors >= 1
        assert "boom" in (worker.last_error or "")
        assert events.of_kind("maintenance_error")
        assert worker.running is False

    def test_worker_exits_when_owner_collected(self):
        import gc

        class Owner:
            def beat(self):
                return False

        owner = Owner()
        worker = MaintenanceWorker(owner.beat).start()
        assert worker.running
        del owner
        gc.collect()
        worker.wake()
        deadline = time.monotonic() + 5.0
        while worker.running and time.monotonic() < deadline:
            time.sleep(0.005)
        assert not worker.running  # thread ended itself; no stop() needed


# -- control: Database / service wiring ---------------------------------------


class TestBackgroundDatabase:
    def test_background_migration_converges(self):
        db = Database(auto_layout_interval=0, background_maintenance=True)
        db.execute("CREATE TABLE t (a INT, b INT, c INT, d INT)")
        for i in range(40):
            db.execute(f"INSERT INTO t VALUES ({i}, {i}, {i}, {i})")
        table = db.table("t")
        before = table.rows()
        table.migrate_layout([["a"], ["b"], ["c"], ["d"]])
        worker = db.maintenance.ensure_worker()
        worker.wake()
        deadline = time.monotonic() + 10.0
        while table.migration_active and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not table.migration_active
        assert signature(table.schema.groups) == signature(
            [["a"], ["b"], ["c"], ["d"]]
        )
        assert table.rows() == before
        table.validate()
        db.close()
        assert not worker.running

    def test_scan_open_during_background_migration_is_isolated(self):
        db = Database(auto_layout_interval=0, background_maintenance=True)
        db.execute("CREATE TABLE t (a INT, b INT, c INT, d INT)")
        for i in range(60):
            db.execute(f"INSERT INTO t VALUES ({i}, {i + 1}, {i + 2}, {i + 3})")
        table = db.table("t")
        before = table.rows()
        scan = table.scan()  # snapshot pinned now
        table.migrate_layout([["a", "b", "c", "d"]])
        db.maintenance.ensure_worker().wake()
        deadline = time.monotonic() + 10.0
        while table.migration_active and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not table.migration_active
        assert [row for _, _, row in scan] == before
        db.close()

    def test_env_flag_defaults_background_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_BG_MAINT", "1")
        assert Database().maintenance.background
        monkeypatch.setenv("REPRO_BG_MAINT", "0")
        assert not Database().maintenance.background
        assert Database(background_maintenance=True).maintenance.background

    def test_auto_tick_cadence_wakes_worker_not_inline(self):
        db = Database(auto_layout_interval=2, background_maintenance=True)
        db.execute("CREATE TABLE t (a INT, b INT, c INT, d INT)")
        db.execute("ALTER TABLE t SET LAYOUT AUTO")
        for i in range(12):
            db.execute(f"INSERT INTO t VALUES ({i}, {i}, {i}, {i})")
        worker = db.maintenance.worker
        assert worker is not None and worker.running
        db.close()

    def test_suspend_waits_out_the_beat_in_flight_and_holds_off_new_ones(self):
        db = Database(auto_layout_interval=1, background_maintenance=True)
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.execute("ALTER TABLE t SET LAYOUT AUTO")
        in_beat = threading.Event()
        release = threading.Event()

        def blocking_tick(*args, **kwargs):
            in_beat.set()
            release.wait(5.0)
            return []

        db.maintenance_tick = blocking_tick
        scheduler = db.maintenance
        scheduler.ensure_worker().wake()
        assert in_beat.wait(5.0)
        entered = threading.Event()
        leave = threading.Event()

        def suspender():
            with scheduler.suspend():
                entered.set()
                leave.wait(5.0)

        thread = threading.Thread(target=suspender)
        thread.start()
        time.sleep(0.05)
        assert not entered.is_set()  # suspend() waits for the in-flight beat
        release.set()
        assert entered.wait(5.0) and scheduler.suspended
        in_beat.clear()
        db.execute("SELECT 1")  # due at interval 1, but not counted
        scheduler.worker.wake()
        time.sleep(0.05)
        assert not in_beat.is_set()  # no beat runs while suspended
        leave.set()
        thread.join(5.0)
        assert not scheduler.suspended
        db.close()

    def test_suggested_tick_budget_floor_and_scale(self):
        assert suggested_tick_budget(0, 64) == 8
        assert suggested_tick_budget(10_000, 64) > 8
        small = suggested_tick_budget(10_000, 64)
        assert suggested_tick_budget(40_000, 64) > small


class TestBackgroundService:
    def _build(self, tmp_path, **kwargs):
        service = make_service(tmp_path, **kwargs)
        session = service.connect("alice")
        service.execute(
            session.session_id, "CREATE TABLE t (a INT, b INT, c INT, d INT)"
        )
        wide = 2**33
        for start in range(0, 200, 10):
            values = ",".join(
                f"({j * wide},{j * wide + 1},{j * wide + 2},{j * wide + 3})"
                for j in range(start, start + 10)
            )
            service.execute(session.session_id, f"INSERT INTO t VALUES {values}")
        return service, session

    def _wait_done(self, table, timeout=10.0):
        deadline = time.monotonic() + timeout
        while table.migration_active and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not table.migration_active

    @staticmethod
    def _arm(service, session, groups):
        service.apply(
            session.session_id,
            {"type": "layout_set", "table": "t", "mode": "target", "groups": groups},
        )

    def test_background_steps_reach_wal_via_queue_and_replay(self, tmp_path):
        service, session = self._build(tmp_path, background_maintenance=True)
        table = service.workbook.database.table("t")
        self._arm(service, session, [["a"], ["b"], ["c"], ["d"]])
        service.maintenance.ensure_worker().wake()
        self._wait_done(table)
        final_groups = signature(table.schema.groups)
        final_rows = table.rows()
        service.close()  # drains the worker and the layout-op queue
        kinds = [r.op["type"] for r in read_wal_records(tmp_path / "svc")]
        assert "layout_step" in kinds
        recovery = recover_state(str(tmp_path / "svc"))
        recovered = recovery.workbook.database.table("t")
        assert signature(recovered.schema.groups) == final_groups
        assert recovered.rows() == final_rows
        recovered.validate()

    def test_crash_during_background_step_recovers_equivalently(self, tmp_path):
        """Kill the worker without draining (the crash model): the WAL
        holds some prefix of the layout_step history; recovery replays
        that prefix and re-arms the rest — contents and (eventually)
        layout converge to the same place."""
        service, session = self._build(tmp_path, background_maintenance=True)
        table = service.workbook.database.table("t")
        expected_rows = table.rows()
        self._arm(service, session, [["a"], ["b"], ["c"], ["d"]])
        worker = service.maintenance.ensure_worker()
        worker.wake()
        time.sleep(0.02)  # let *some* steps land (any prefix is valid)
        service.close(drain=False)  # crash: no drain, queue abandoned
        recovery = recover_state(str(tmp_path / "svc"))
        recovered = recovery.workbook.database.table("t")
        assert recovered.rows() == expected_rows
        recovered.validate()
        # The layout_set record was durably applied before the crash, so
        # recovery re-arms the unfinished migration; finishing it lands
        # on the original target with the same contents.
        reopened = make_service(tmp_path)
        rtable = reopened.workbook.database.table("t")
        assert rtable.rows() == expected_rows
        for _ in range(200):
            if not rtable.migration_active:
                break
            reopened.maintenance.tick(steps=4)
        assert not rtable.migration_active
        assert signature(rtable.schema.groups) == signature(
            [["a"], ["b"], ["c"], ["d"]]
        )
        rtable.validate()
        reopened.close()

    def test_stats_summary_surfaces_maintenance(self, tmp_path):
        service, session = self._build(tmp_path, background_maintenance=True)
        table = service.workbook.database.table("t")
        table.migrate_layout([["a"], ["b"], ["c"], ["d"]])
        service.maintenance.ensure_worker().wake()
        self._wait_done(table)
        summary = service.stats_summary()
        maint = summary["maintenance"]
        assert maint["background"] is True
        assert maint["worker_beats"] >= 1
        assert maint["ticks"] >= 1
        assert maint["blocks"] >= 1
        service.close()

    def test_worker_state_reaches_the_metrics(self, tmp_path, monkeypatch):
        """The service's beats run on the database's one worker, so the
        engine collector reports the worker the service started."""
        service, session = self._build(tmp_path, background_maintenance=True)
        self._arm(service, session, [["a"], ["b"], ["c"], ["d"]])

        def raising_tick(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(service.workbook.database, "maintenance_tick", raising_tick)
        service.step()  # a migration is in flight: the beat is due now
        deadline = time.monotonic() + 5.0
        snap = service.metrics.snapshot()
        while snap["db_maint_worker_errors"] < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
            snap = service.metrics.snapshot()
        assert snap["db_maint_worker_errors"] == 1
        assert snap["db_maint_worker_running"] == 1
        service.close()

    def test_inline_mode_unchanged(self, tmp_path):
        # Pinned off explicitly so the assertion holds under the
        # REPRO_BG_MAINT=1 CI pass too.
        service, session = self._build(tmp_path, background_maintenance=False)
        assert service.maintenance.background is False
        assert service.maintenance.worker is None
        summary = service.stats_summary()
        assert summary["maintenance"]["background"] is False
        service.close()


def read_wal_records(directory):
    from repro.server.service import WAL_FILENAME
    from repro.server.wal import read_wal

    records, _, _ = read_wal(str(directory / WAL_FILENAME))
    return records


# -- property: random DML × migrations × snapshot scans ≡ dict model ----------


@st.composite
def workloads(draw):
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.integers(0, 10_000)),
                st.tuples(st.just("update"), st.integers(0, 60)),
                st.tuples(st.just("delete"), st.integers(0, 60)),
                st.tuples(st.just("scan"), st.just(0)),
            ),
            min_size=5,
            max_size=40,
        )
    )
    seed_rows = draw(st.integers(5, 30))
    return seed_rows, ops


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_property_dml_migration_scan_equivalence(workload):
    """Random DML on the main thread, a migration thread stepping the
    layout underneath, snapshot scans opened mid-stream: every scan must
    equal the dict model at its open point, and the final store state
    must equal the final model."""
    seed_rows, ops = workload
    store = make_store(seed_rows)
    model = {rid: (rid, f"t{rid}", rid * 0.5, f"u{rid}") for rid in range(seed_rows)}
    next_val = [10_000]
    stop = threading.Event()
    targets = [
        [["a", "b", "c", "d"]],
        [["a"], ["b"], ["c"], ["d"]],
        [["a", "b"], ["c", "d"]],
    ]

    def migrator():
        i = 0
        while not stop.is_set():
            store.restructure(targets[i % len(targets)])
            i += 1

    thread = threading.Thread(target=migrator)
    thread.start()
    try:
        open_scans = []
        for kind, arg in ops:
            with store.mutation_lock:
                # One critical section per op: mutate store and model
                # atomically so the model is exact (the migrator thread
                # only changes layout, never contents).
                if kind == "insert":
                    row = (arg, f"t{arg}", arg * 0.5, f"u{arg}")
                    rid = store.insert(row)
                    model[rid] = row
                elif kind == "update" and model:
                    rid = sorted(model)[arg % len(model)]
                    val = next_val[0]
                    next_val[0] += 1
                    row = (val, f"t{val}", val * 0.5, f"u{val}")
                    store.update(rid, row)
                    model[rid] = row
                elif kind == "delete" and model:
                    rid = sorted(model)[arg % len(model)]
                    store.delete(rid)
                    del model[rid]
                elif kind == "scan":
                    open_scans.append(
                        (store.scan_groups(store.schema.column_names), dict(model))
                    )
        for scan, model_at_open in open_scans:
            got = {rid: tuple(values) for rid, values in scan}
            assert got == model_at_open
    finally:
        stop.set()
        thread.join(10.0)
    final = {rid: tuple(values) for rid, values in
             store.scan_groups(store.schema.column_names)}
    assert final == model
    store.validate()
    stats = store.snapshot_stats()
    assert stats["active_snapshots"] == 0 and stats["retired_pages"] == 0
