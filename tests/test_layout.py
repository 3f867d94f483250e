"""Workload-adaptive layouts: advisor, online migrator, and the wiring
(Table tick, Database maintenance, ALTER ... SET LAYOUT, CLI commands)."""

import pytest

from repro.engine.database import Database
from repro.engine.hybridstore import (
    estimate_workload_blocks,
    pages_for_group,
    restructure_blocks,
)
from repro.engine.layout import LayoutAdvisor, LayoutMigration, plan_groupings
from repro.engine.pager import BufferPool
from repro.engine.schema import Column, TableSchema
from repro.engine.store import (
    DEFAULT_BATCH_SIZE,
    AccessStats,
    GroupedTupleStore,
    LayoutPolicy,
)
from repro.engine.table import Table
from repro.engine.types import DBType
from repro.errors import SchemaError


def make_store(n_cols=4, n_rows=100, layout=LayoutPolicy.ROW, page_capacity=16):
    schema = TableSchema.from_pairs(
        [(f"c{i}", DBType.INTEGER) for i in range(n_cols)]
    )
    store = GroupedTupleStore(schema, layout=layout, page_capacity=page_capacity)
    for i in range(n_rows):
        store.insert(tuple(range(i, i + n_cols)))
    return store


class TestCostModel:
    def test_pages_for_group_packs_by_width(self):
        assert pages_for_group(100, 1, 16) == 7  # 16 records/page
        assert pages_for_group(100, 4, 16) == 25  # 4 records/page
        assert pages_for_group(0, 4, 16) == 0
        # Width beyond the page budget still stores one record per page.
        assert pages_for_group(10, 99, 16) == 10

    def test_scan_cost_prefers_narrow_groups(self):
        stats = AccessStats()
        stats.column("a").scans = 10
        row = [["a", "b", "c", "d"]]
        hybrid = [["a"], ["b", "c", "d"]]
        assert estimate_workload_blocks(hybrid, stats, 100, 16) < (
            estimate_workload_blocks(row, stats, 100, 16)
        )

    def test_point_cost_prefers_wide_groups(self):
        stats = AccessStats(inserts=50, point_reads=50)
        row = [["a", "b", "c", "d"]]
        column = [["a"], ["b"], ["c"], ["d"]]
        assert estimate_workload_blocks(row, stats, 100, 16) < (
            estimate_workload_blocks(column, stats, 100, 16)
        )

    def test_single_column_update_is_layout_independent(self):
        stats = AccessStats()
        stats.column("a").updates = 25
        row = estimate_workload_blocks([["a", "b"]], stats, 100, 16)
        col = estimate_workload_blocks([["a"], ["b"]], stats, 100, 16)
        assert row == col == 25

    def test_restructure_blocks_free_for_reused_groups(self):
        current = [["a"], ["b", "c"]]
        assert restructure_blocks(current, current, 100, 16) == 0
        # Rebuilding just one group charges only that group's sources.
        target = [["a"], ["c", "b"]]  # reordered members -> rebuild
        assert restructure_blocks(current, target, 100, 16) > 0

    def test_split_charges_each_source_chain_once(self):
        """Regression: the old model charged a full source-chain read per
        *member column*, so splitting one 4-wide group into two pairs
        billed four reads of the same chain instead of two — the advisor
        overestimated split costs and under-migrated."""
        source = pages_for_group(100, 4, 16)
        pair = pages_for_group(100, 2, 16)
        cost = restructure_blocks(
            [["a", "b", "c", "d"]], [["a", "b"], ["c", "d"]], 100, 16
        )
        # Each target-group build reads the shared source chain ONCE.
        assert cost == 2 * (source + pair)
        # Full shred to singletons: still one source read per build.
        single = pages_for_group(100, 1, 16)
        shred = restructure_blocks(
            [["a", "b", "c", "d"]],
            [["a"], ["b"], ["c"], ["d"]],
            100,
            16,
        )
        assert shred == 4 * (source + single)

    def test_merge_charges_each_distinct_chain_once(self):
        single = pages_for_group(100, 1, 16)
        merged = pages_for_group(100, 2, 16)
        cost = restructure_blocks([["a"], ["b"]], [["a", "b"]], 100, 16)
        # Two distinct source chains: both read, plus the fresh chain.
        assert cost == 2 * single + merged

    def test_mixed_sources_deduped_per_target_build(self):
        # Target [a, b, c] draws a and b from one chain, c from another:
        # exactly two source reads, never three.
        wide = pages_for_group(100, 3, 16)
        cost = restructure_blocks(
            [["a", "b"], ["c"], ["d"]],
            [["a", "b", "c"], ["d"]],
            100,
            16,
        )
        assert cost == (
            pages_for_group(100, 2, 16) + pages_for_group(100, 1, 16) + wide
        )


class TestAccessStats:
    def test_operations_are_attributed(self):
        store = make_store(n_rows=10)
        rid = store.rids()[0]
        store.get(rid)
        list(store.scan())
        list(store.scan_groups(["c1"]))
        store.update_column(rid, "c1", 99)
        store.update(rid, (1, 2, 3, 4))
        store.delete(store.rids()[-1])
        stats = store.access_stats
        assert stats.inserts == 10
        assert stats.point_reads == 1
        assert stats.full_scans == 1
        assert stats.full_updates == 1
        assert stats.deletes == 1
        assert stats.columns["c1"].scans == 1
        assert stats.columns["c1"].updates == 1

    def test_scan_is_not_charged_as_point_reads(self):
        store = make_store(n_rows=50)
        list(store.scan())
        assert store.access_stats.point_reads == 0

    def test_schema_changes_move_column_stats(self):
        store = make_store(n_rows=5)
        list(store.scan_groups(["c0"]))
        store.rename_column("c0", "z")
        assert store.access_stats.columns["z"].scans == 1
        assert "c0" not in store.access_stats.columns
        store.drop_column("z")
        assert "z" not in store.access_stats.columns
        assert store.access_stats.schema_changes == 2

    def test_failed_operations_do_not_pollute_stats(self):
        # Regression: a failed update/scan/drop on an unknown column used
        # to record phantom column entries and counters.
        store = make_store(n_rows=5)
        before = store.access_stats.to_dict()
        with pytest.raises(SchemaError):
            store.update_column(store.rids()[0], "nosuch", 1)
        with pytest.raises(SchemaError):
            list(store.scan_groups(["nosuch"]))
        with pytest.raises(SchemaError):
            store.drop_column("nosuch")
        assert store.access_stats.to_dict() == before
        assert "nosuch" not in store.access_stats.columns

    def test_decay_and_reset(self):
        stats = AccessStats(inserts=8, point_reads=3)
        stats.column("a").scans = 5
        stats.decay(0.5)
        assert stats.inserts == 4 and stats.point_reads == 1
        assert stats.columns["a"].scans == 2
        stats.reset()
        assert stats.total_ops == 0


class TestAdvisor:
    def test_scan_heavy_splits_hot_column(self):
        store = make_store(layout=LayoutPolicy.ROW)
        for _ in range(50):
            list(store.scan_groups(["c2"]))
        recommendation = LayoutAdvisor(min_ops=8).advise(store)
        assert recommendation is not None and recommendation.worthwhile
        assert ["c2"] in recommendation.target_groups

    def test_point_heavy_merges_to_row(self):
        store = make_store(layout=LayoutPolicy.COLUMN)
        for rid in store.rids():
            store.get(rid)
            store.get(rid)
        recommendation = LayoutAdvisor(min_ops=8).advise(store)
        assert recommendation is not None
        assert len(recommendation.target_groups) == 1  # one wide group

    def test_min_ops_gate(self):
        store = make_store()
        store.access_stats.reset()
        list(store.scan_groups(["c0"]))
        assert LayoutAdvisor(min_ops=1000).advise(store) is None

    def test_no_recommendation_when_current_is_best(self):
        store = make_store(layout=LayoutPolicy.ROW)
        store.access_stats.reset()
        for rid in store.rids()[:40]:
            store.get(rid)
        assert LayoutAdvisor(min_ops=8).advise(store) is None

    def test_threshold_blocks_marginal_migrations(self):
        store = make_store(layout=LayoutPolicy.ROW)
        store.access_stats.reset()
        for _ in range(2):
            list(store.scan_groups(["c0"]))
        recommendation = LayoutAdvisor(min_ops=1, threshold=1e9).advise(store)
        if recommendation is not None:
            assert not recommendation.worthwhile


class TestMigration:
    def test_plan_reaches_target(self):
        plan = plan_groupings([["a", "b"], ["c", "d"]], [["a", "c"], ["b", "d"]])
        assert plan  # needs splits and merges
        final = {frozenset(group) for group in ({"a", "c"}, {"b", "d"})}
        assert {frozenset(g) for g in plan[-1]} == final

    def test_mid_migration_reads_and_writes_work(self):
        store = make_store(n_cols=4, n_rows=60, layout=LayoutPolicy.ROW)
        migration = LayoutMigration(store, [["c0", "c2"], ["c1", "c3"]])
        step = 0
        while not migration.done:
            migration.step()
            store.validate()
            # Mid-migration: every operation keeps working.
            rid = store.insert((step, step + 1, step + 2, step + 3))
            assert store.read_row(rid) == (step, step + 1, step + 2, step + 3)
            store.update_column(rid, "c1", -step)
            assert dict(store.scan_groups(["c1"]))[rid] == (-step,)
            store.delete(rid)
            step += 1
        assert {frozenset(g) for g in store.schema.groups} == {
            frozenset({"c0", "c2"}),
            frozenset({"c1", "c3"}),
        }
        assert [store.read_row(r) for r in store.rids()] == [
            tuple(range(i, i + 4)) for i in range(60)
        ]

    def test_restructure_reuses_unchanged_chains(self):
        store = make_store(layout=LayoutPolicy.COLUMN)
        pages_before = {
            tuple(group): list(store._groups[index].chain)
            for index, group in enumerate(store.schema.groups)
        }
        written = store.restructure([["c0"], ["c1"], ["c2", "c3"]])
        # c0 and c1 chains are untouched (same page ids), only the merged
        # group was built.
        assert store._groups[0].chain == pages_before[("c0",)]
        assert store._groups[1].chain == pages_before[("c1",)]
        assert written == store.pages_in_group(2)

    def test_restructure_rejects_bad_cover(self):
        store = make_store()
        with pytest.raises(SchemaError):
            store.restructure([["c0", "c1"]])

    def test_migration_tolerates_racing_ddl(self):
        store = make_store(n_cols=3, n_rows=20, layout=LayoutPolicy.ROW)
        migration = LayoutMigration(store, [["c0"], ["c1", "c2"]])
        migration.step()
        # Racing DDL: add a column and drop one named in the target.
        store.add_column(Column("extra", DBType.INTEGER, default=7))
        store.drop_column("c1")
        migration.run_to_completion()
        store.validate()
        names = {frozenset(group) for group in store.schema.groups}
        assert frozenset({"c0"}) in names
        assert all(
            "c1" not in group for group in store.schema.groups for _ in [0]
        )
        # New column survived with its default.
        assert set(dict(store.scan_groups(["extra"])).values()) == {(7,)}


class TestTableTick:
    def make_table(self):
        schema = TableSchema.from_pairs(
            [(f"c{i}", DBType.INTEGER) for i in range(4)]
        )
        table = Table("t", schema, layout=LayoutPolicy.ROW, page_capacity=16)
        # Incompressible values (distinct 8-byte ints): page encodings
        # stay out of the picture, so these tests exercise the migration
        # machinery rather than the encode-first maintenance path.
        for i in range(100):
            table.insert(
                tuple(i * 2**33 + j for j in range(4)), emit=False
            )
        return table

    def test_tick_lifecycle(self):
        table = self.make_table()
        table.set_auto_layout(True)
        table.layout_advisor.min_ops = 8
        for _ in range(40):
            list(table.store.scan_groups(["c3"]))
        report = table.layout_tick()
        assert report["action"] == "migration_started"
        assert table.migration_active
        while table.migration_active:
            report = table.layout_tick(steps=1)
        assert report["action"] == "migrated"
        assert ["c3"] in table.schema.groups
        table.validate()

    def test_tick_idle_without_auto(self):
        table = self.make_table()
        for _ in range(40):
            list(table.store.scan_groups(["c3"]))
        assert table.layout_tick()["action"] == "idle"
        assert not table.migration_active

    def test_migrate_layout_offline(self):
        table = self.make_table()
        migration = table.migrate_layout([["c0", "c1"], ["c2", "c3"]], online=False)
        assert migration.steps_taken >= 1
        assert not table.migration_active
        table.validate()

    def test_offline_migration_supersedes_in_flight_one(self):
        # Regression: an explicit offline migration must cancel any
        # in-flight online migration — otherwise the next tick would pull
        # the layout back toward the abandoned target.
        table = self.make_table()
        table.migrate_layout([["c0"], ["c1", "c2", "c3"]], online=True)
        assert table.migration_active
        table.migrate_layout([["c0", "c1", "c2", "c3"]], online=False)
        assert not table.migration_active
        for _ in range(8):
            table.layout_tick()
        assert table.schema.groups == [["c0", "c1", "c2", "c3"]]
        table.validate()


class TestSqlAndDatabase:
    def test_set_layout_row_and_column(self):
        db = Database(auto_layout_interval=0)
        db.execute("CREATE TABLE t (a INT, b INT, c INT)")
        for i in range(20):
            db.execute(f"INSERT INTO t VALUES ({i}, {i}, {i})")
        db.execute("ALTER TABLE t SET LAYOUT COLUMN")
        assert db.table("t").schema.groups == [["a"], ["b"], ["c"]]
        db.execute("ALTER TABLE t SET LAYOUT ROW")
        assert db.table("t").schema.groups == [["a", "b", "c"]]
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 20
        db.table("t").validate()

    def test_set_layout_auto_and_manual(self):
        db = Database(auto_layout_interval=0)
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.execute("ALTER TABLE t SET LAYOUT AUTO")
        assert db.table("t").auto_layout
        db.execute("ALTER TABLE t SET LAYOUT MANUAL")
        assert not db.table("t").auto_layout

    def test_set_layout_rolls_back(self):
        db = Database(auto_layout_interval=0)
        db.execute("CREATE TABLE t (a INT, b INT)")
        for i in range(10):
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        before = db.table("t").schema.groups
        db.execute("BEGIN")
        db.execute("ALTER TABLE t SET LAYOUT COLUMN")
        db.execute("ALTER TABLE t SET LAYOUT AUTO")
        db.execute("ROLLBACK")
        table = db.table("t")
        assert table.schema.groups == before
        assert not table.auto_layout
        table.validate()

    def test_set_layout_parse_errors(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        from repro.errors import SqlError

        with pytest.raises(SqlError):
            db.execute("ALTER TABLE t SET LAYOUT sideways")

    def test_auto_maintenance_migrates_through_statements(self):
        # Inline mode pinned: this test asserts the *synchronous* cadence
        # (tick runs inside execute), which REPRO_BG_MAINT=1 would defer
        # to the worker thread.  Background timing has its own coverage
        # in test_htap_isolation.py.
        db = Database(
            page_capacity=16, auto_layout_interval=10, background_maintenance=False
        )
        db.execute("CREATE TABLE t (a INT, b INT, c INT, d INT)")
        table = db.table("t")
        for i in range(200):
            db.execute(f"INSERT INTO t VALUES ({i}, {i}, {i}, {i})")
        db.execute("ALTER TABLE t SET LAYOUT AUTO")
        table.layout_advisor.min_ops = 8
        for _ in range(60):
            list(table.store.scan_groups(["a"]))
            db.execute("SELECT 1")
        assert ["a"] in table.schema.groups
        actions = [r["action"] for r in db.maintenance_reports]
        assert "migration_started" in actions and "migrated" in actions
        table.validate()

    def test_no_tick_inside_transaction(self):
        db = Database(page_capacity=16, auto_layout_interval=5)
        db.execute("CREATE TABLE t (a INT, b INT, c INT, d INT)")
        table = db.table("t")
        for i in range(100):
            db.execute(f"INSERT INTO t VALUES ({i}, {i}, {i}, {i})")
        db.execute("ALTER TABLE t SET LAYOUT AUTO")
        table.layout_advisor.min_ops = 1
        for _ in range(30):
            list(table.store.scan_groups(["a"]))
        db.execute("BEGIN")
        for _ in range(20):
            db.execute("SELECT 1")
        # No migration may start mid-transaction.
        assert not table.migration_active
        assert table.schema.groups == [["a", "b", "c", "d"]]
        db.execute("COMMIT")

    def test_buffer_frames_bound_the_pool(self):
        db = Database(buffer_frames=2)
        assert db.catalog.pool.capacity == 2

    def test_static_layout_suspends_auto(self):
        # Regression: SET LAYOUT ROW on an AUTO table used to leave the
        # advisor loop on, which would migrate the explicit layout away
        # at the next tick using the same accumulated stats.
        db = Database(page_capacity=16, auto_layout_interval=5)
        db.execute("CREATE TABLE t (a INT, b INT, c INT, d INT)")
        table = db.table("t")
        for i in range(150):
            db.execute(f"INSERT INTO t VALUES ({i}, {i}, {i}, {i})")
        db.execute("ALTER TABLE t SET LAYOUT AUTO")
        table.layout_advisor.min_ops = 1
        for _ in range(50):
            list(table.store.scan_groups(["a"]))
        db.execute("ALTER TABLE t SET LAYOUT ROW")
        assert not table.auto_layout
        for _ in range(30):
            db.execute("SELECT 1")
        assert table.schema.groups == [["a", "b", "c", "d"]]
        table.validate()

    def test_recreated_table_starts_with_clean_group_io(self):
        # Regression: (table_name, gid) tags let a re-created table of the
        # same name inherit the dropped table's per-group I/O counters.
        db = Database(auto_layout_interval=0)
        db.execute("CREATE TABLE t (a INT, b INT)")
        for i in range(50):
            db.execute(f"INSERT INTO t VALUES ({i}, {i})")
        db.checkpoint()
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (x INT, y INT)")
        summary = db.table("t").store.group_summary()
        assert all(
            info["io"]["reads"] == 0 and info["io"]["writes"] == 0 for info in summary
        )


class TestCli:
    def make_shell(self):
        from repro.cli import DataSpreadShell

        shell = DataSpreadShell()
        shell.handle_line("sql CREATE TABLE t (a INT, b INT)")
        shell.handle_line("sql INSERT INTO t VALUES (1, 2)")
        return shell

    def test_layout_stats(self):
        shell = self.make_shell()
        output = shell.handle_line("layout-stats t")
        assert "table t: 1 rows" in output
        assert "group 0" in output
        assert "1 inserts" in output

    def test_layout_stats_all_tables(self):
        shell = self.make_shell()
        shell.handle_line("sql CREATE TABLE u (x INT)")
        output = shell.handle_line("layout-stats")
        assert "table t:" in output and "table u:" in output

    def test_layout_advise(self):
        shell = self.make_shell()
        output = shell.handle_line("layout-advise t")
        assert "table t:" in output
        assert "keep current" in output  # barely any workload yet
        # A scan-heavy workload flips the advice to a split.
        table = shell.workbook.database.table("t")
        table.layout_advisor.min_ops = 4
        for i in range(300):
            shell.handle_line(f"sql INSERT INTO t VALUES ({i + 10}, {i})")
        for _ in range(300):
            list(table.store.scan_groups(["a"]))
        output = shell.handle_line("layout-advise t")
        assert "recommended" in output
        assert "['a']" in output

    def test_unknown_table_is_reported(self):
        shell = self.make_shell()
        assert "error" in shell.handle_line("layout-stats nope").lower()

    def test_layout_stats_shows_co_access_pairs(self):
        shell = self.make_shell()
        shell.handle_line("sql CREATE TABLE wide (a INT, b INT, c INT)")
        shell.handle_line("sql INSERT INTO wide VALUES (1, 2, 3)")
        # Narrow SQL scans drive the co-access counters the CLI surfaces.
        for _ in range(3):
            shell.handle_line("sql SELECT a FROM wide WHERE b > 0")
        output = shell.handle_line("layout-stats wide")
        assert "co-scan a+b: 3 joint scans" in output


class TestCoAccessStats:
    def test_scan_groups_records_the_set_once(self):
        store = make_store(n_rows=20)
        list(store.scan_groups(["c1", "c3"]))
        list(store.scan_groups(["c3", "c1"]))  # order-insensitive key
        stats = store.access_stats
        assert stats.group_scans == {("c1", "c3"): 2}
        assert stats.columns["c1"].scans == 2
        assert stats.columns["c3"].scans == 2

    def test_scan_column_records_singleton_set(self):
        store = make_store(n_rows=10)
        list(store.scan_groups(["c0"]))
        assert store.access_stats.group_scans == {("c0",): 1}

    def test_scan_groups_values_are_rid_aligned(self):
        store = make_store(n_cols=4, n_rows=30, layout=LayoutPolicy.COLUMN)
        rows = dict(store.scan_groups(["c3", "c0"]))
        for rid in store.rids():
            full = store.read_row(rid)
            assert rows[rid] == (full[3], full[0])

    def test_scan_groups_touches_only_covering_chains(self):
        pool = BufferPool(capacity=2, page_capacity=8)
        schema = TableSchema.from_pairs(
            [(f"c{i}", DBType.INTEGER) for i in range(4)]
        )
        store = GroupedTupleStore(
            schema, pool=pool, layout=LayoutPolicy.COLUMN, page_capacity=8
        )
        for i in range(64):
            store.insert((i, i, i, i))
        store.checkpoint()
        pool.drop_cache()
        before = pool.stats.snapshot()
        idle_before = [store.group_io_stats(g).reads for g in range(4)]
        list(store.scan_groups(["c0", "c2"]))
        delta = pool.stats.delta(before)
        assert delta.reads == store.pages_in_group(0) + store.pages_in_group(2)
        # The untouched chains were not read after the cache drop.
        assert store.group_io_stats(1).reads == idle_before[1]
        assert store.group_io_stats(3).reads == idle_before[3]

    def test_full_width_scan_charges_full_scan(self):
        # SELECT * is a table scan, not a co-access signal: the advisor's
        # hot-column ranking must not be skewed by full-width scans.
        store = make_store(n_rows=10)
        list(store.scan_groups([f"c{i}" for i in range(4)]))
        stats = store.access_stats
        assert stats.full_scans == 1
        assert stats.group_scans == {}
        assert all(column.scans == 0 for column in stats.columns.values())

    def test_scan_groups_streams_lazily(self):
        # An early-exiting consumer (LIMIT) must only read the page
        # prefix behind the batches it pulled, not the whole chain.
        pool = BufferPool(page_capacity=64)
        schema = TableSchema.from_pairs(
            [(f"c{i}", DBType.INTEGER) for i in range(4)]
        )
        store = GroupedTupleStore(
            schema, pool=pool, layout=LayoutPolicy.COLUMN, page_capacity=64
        )
        for i in range(2 * DEFAULT_BATCH_SIZE):
            store.insert((i, i, i, i))
        store.checkpoint()
        pool.drop_cache()
        before = pool.stats.snapshot()
        iterator = store.scan_groups(["c0", "c2"])
        next(iterator)
        next(iterator)
        # Two rows pulled one batch: the first half of each covering chain.
        assert pool.stats.delta(before).reads == 2 * DEFAULT_BATCH_SIZE // 64
        assert sum(store.pages_in_group(g) for g in (0, 2)) == 4 * DEFAULT_BATCH_SIZE // 64

    def test_decay_prunes_dead_sets(self):
        stats = AccessStats()
        stats.record_scan(["a", "b"])
        stats.decay(0.5)
        assert stats.group_scans == {}

    def test_rename_and_drop_rewrite_set_keys(self):
        store = make_store(n_cols=3, n_rows=10)
        list(store.scan_groups(["c0", "c1"]))
        store.rename_column("c0", "z")
        assert store.access_stats.group_scans == {("c1", "z"): 1}
        store.drop_column("z")
        assert store.access_stats.group_scans == {("c1",): 1}

    def test_serialization_roundtrip(self):
        stats = AccessStats()
        stats.record_scan(["a", "b"])
        stats.record_scan(["a", "b"])
        stats.record_scan(["c"])
        clone = AccessStats.from_dict(stats.to_dict())
        assert clone.group_scans == stats.group_scans
        assert clone.columns["a"].scans == 2

    def test_co_access_pairs_ranked(self):
        stats = AccessStats()
        for _ in range(3):
            stats.record_scan(["a", "b"])
        stats.record_scan(["a", "b", "c"])
        pairs = stats.co_access_pairs()
        assert pairs[0] == (("a", "b"), 4)
        assert (("a", "c"), 1) in pairs and (("b", "c"), 1) in pairs


class TestCoAccessCostModel:
    def test_joint_scan_charges_each_covering_chain_once(self):
        stats = AccessStats()
        for _ in range(10):
            stats.record_scan(["a", "b"])
        together = [["a", "b"], ["c", "d"]]
        apart = [["a"], ["b"], ["c", "d"]]
        joint = estimate_workload_blocks(together, stats, 100, 16)
        split = estimate_workload_blocks(apart, stats, 100, 16)
        # One 2-wide chain vs two 1-wide chains: the same pages for the
        # scans themselves (13 vs 2*7 with ceil) — co-location must not
        # multiply the scan bill.
        assert joint == 10 * pages_for_group(100, 2, 16)
        assert split == 10 * 2 * pages_for_group(100, 1, 16)

    def test_residual_scans_still_charged(self):
        # Directly-written counters (no co-access sets) keep the old
        # per-column pricing.
        stats = AccessStats()
        stats.column("a").scans = 10
        grouping = [["a"], ["b"]]
        assert estimate_workload_blocks(grouping, stats, 100, 16) == (
            10 * pages_for_group(100, 1, 16)
        )

    def test_no_double_charge_when_sets_cover_counters(self):
        recorded = AccessStats()
        for _ in range(5):
            recorded.record_scan(["a", "b"])
        grouping = [["a", "b"], ["c"]]
        cost = estimate_workload_blocks(grouping, recorded, 100, 16)
        assert cost == 5 * pages_for_group(100, 2, 16)


class TestCoAccessAdvisor:
    def drive(self, store, requests=40, point_reads=300):
        store.access_stats.reset()
        for _ in range(requests):
            list(store.scan_groups(["c0", "c1"]))
            list(store.scan_groups(["c0", "c1", "c2"]))
        for rid in store.rids()[:point_reads]:
            store.get(rid)

    def test_clusters_beat_singletons_on_mixed_workload(self):
        store = make_store(n_cols=12, n_rows=400, page_capacity=32)
        self.drive(store)
        singleton = LayoutAdvisor(min_ops=8, co_access=False).advise(store)
        clustered = LayoutAdvisor(min_ops=8, co_access=True).advise(store)
        assert singleton is not None and clustered is not None
        assert clustered.target_cost < singleton.target_cost
        # The winning grouping co-locates the jointly scanned columns.
        assert any(
            {"c0", "c1"} <= {name.lower() for name in group}
            for group in clustered.target_groups
        )

    def test_candidates_include_cluster_groupings(self):
        store = make_store(n_cols=6, n_rows=50)
        self.drive(store, requests=10, point_reads=20)
        advisor = LayoutAdvisor(co_access=True)
        signatures = [
            {frozenset(n.lower() for n in g) for g in grouping}
            for grouping in advisor.candidates(store)
        ]
        assert any(frozenset({"c0", "c1"}) in sig for sig in signatures)

    def test_co_access_off_matches_old_family(self):
        store = make_store(n_cols=4, n_rows=50)
        self.drive(store, requests=5, point_reads=10)
        advisor = LayoutAdvisor(co_access=False)
        for grouping in advisor.candidates(store):
            singletons = [group for group in grouping if len(group) == 1]
            assert len(grouping) - len(singletons) <= 1  # k hot + one cold


class TestBudgetedTick:
    #: A split-then-merge re-partition: four bounded restructure steps
    #: (two splits, two merges), so a budget has something to spread.
    START = [["c0", "c1"], ["c2", "c3"], ["c4", "c5"]]
    TARGET = [["c0", "c2"], ["c1", "c3"], ["c4", "c5"]]

    def make_table(self, n_cols=6, n_rows=200):
        schema = TableSchema.from_pairs(
            [(f"c{i}", DBType.INTEGER) for i in range(n_cols)]
        )
        table = Table("t", schema, layout=LayoutPolicy.HYBRID, page_capacity=16)
        table.store.restructure(self.START)
        for i in range(n_rows):
            table.insert(tuple(range(i, i + n_cols)), emit=False)
        return table

    def test_budget_spreads_migration_over_beats(self):
        unbudgeted = self.make_table()
        unbudgeted.migrate_layout(self.TARGET, online=True)
        free_report = unbudgeted.layout_tick(steps=100)
        assert free_report["action"] == "migrated"
        assert free_report["steps_taken"] > 1

        budgeted = self.make_table()
        budgeted.migrate_layout(self.TARGET, online=True)
        report = budgeted.layout_tick(steps=100, max_blocks=1)
        # The budget held the beat to a single restructure step even
        # though 100 were allowed.
        assert report["action"] == "migrating"
        assert report["steps_taken"] == 1
        beats = 1
        while budgeted.migration_active:
            budgeted.layout_tick(steps=100, max_blocks=1)
            beats += 1
            assert beats < 100, "budgeted migration did not converge"
        assert beats > 1
        assert budgeted.schema.groups == unbudgeted.schema.groups
        budgeted.validate()

    def test_budget_never_stalls_a_migration(self):
        table = self.make_table()
        table.migrate_layout(self.TARGET, online=True)
        # A budget smaller than any single step still makes progress
        # (first step per beat always runs).
        for _ in range(50):
            if not table.migration_active:
                break
            report = table.layout_tick(steps=4, max_blocks=0)
            assert report["blocks_this_tick"] >= 0
        assert not table.migration_active

    def test_default_budget_preserves_behaviour(self):
        capped = self.make_table()
        capped.migrate_layout(self.TARGET, online=True)
        report = capped.layout_tick(steps=100)
        assert report["action"] == "migrated"
        assert "blocks_this_tick" in report

    def test_database_tick_forwards_budget(self):
        db = Database(page_capacity=16, auto_layout_interval=0)
        db.execute("CREATE TABLE t (a INT, b INT, c INT, d INT)")
        table = db.table("t")
        table.store.restructure([["a", "b"], ["c", "d"]])
        for i in range(150):
            db.execute(f"INSERT INTO t VALUES ({i}, {i}, {i}, {i})")
        table.migrate_layout([["a", "c"], ["b", "d"]], online=True)
        reports = db.maintenance_tick(steps=100, max_blocks=1)
        assert reports and reports[0]["action"] == "migrating"
        assert reports[0]["steps_taken"] == 1


class TestPerGroupIo:
    def test_group_io_attribution(self):
        pool = BufferPool(capacity=2, page_capacity=8)
        schema = TableSchema.from_pairs(
            [("a", DBType.INTEGER), ("b", DBType.INTEGER)]
        )
        store = GroupedTupleStore(
            schema, pool=pool, layout=LayoutPolicy.COLUMN, page_capacity=8
        )
        for i in range(64):
            store.insert((i, i))
        store.checkpoint()
        pool.drop_cache()
        list(store.scan_groups(["a"]))
        a_reads = store.group_io_stats(0).reads
        summary = store.group_summary()
        assert a_reads >= store.pages_in_group(0)
        assert summary[0]["io"]["reads"] == a_reads
        # Group b was not scanned after the cache drop.
        assert summary[1]["io"]["reads"] < a_reads

    def test_dead_group_tags_are_reclaimed(self):
        # Regression: every migration mints fresh group ids; dead groups'
        # tag counters must be dropped or they pile up forever.
        store = make_store(n_cols=3, n_rows=30, layout=LayoutPolicy.ROW)
        store.checkpoint()
        for target in ([["c0"], ["c1"], ["c2"]], [["c0", "c1", "c2"]]) * 3:
            store.restructure(target)
            store.checkpoint()
        disk = store.pool._disk
        live_tags = {store._tag(i) for i in range(store.n_groups)}
        stale = [t for t in disk._tag_stats if t not in live_tags]
        assert stale == []
