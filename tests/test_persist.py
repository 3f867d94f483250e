"""Tests for workbook persistence (save/load round trips)."""

import datetime

import pytest

from repro import Workbook
from repro.core.persist import (
    load_workbook,
    save_workbook,
    workbook_from_dict,
    workbook_to_dict,
)
from repro.errors import ImportExportError


def build_rich_workbook() -> Workbook:
    wb = Workbook()
    wb.execute(
        "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT, "
        "added DATE DEFAULT NULL)"
    )
    wb.execute(
        "INSERT INTO items VALUES (1,'apple',10,'2020-01-02'),"
        "(2,'pear',20,NULL),(3,'fig',30,'2021-03-04')"
    )
    wb.set("Sheet1", "H1", 5)
    wb.set("Sheet1", "H2", "=H1*2")
    wb.add_sheet("Notes")
    wb.set("Notes", "A1", "remember")
    wb.dbtable("Sheet1", "A1", "items")
    wb.dbsql("Sheet1", "F1", "SELECT sum(qty) FROM items")
    return wb


class TestRoundTrip:
    def test_tables_restored(self):
        wb = workbook_from_dict(workbook_to_dict(build_rich_workbook()))
        assert wb.execute("SELECT count(*) FROM items").scalar() == 3
        assert wb.execute("SELECT name FROM items WHERE id=2").scalar() == "pear"

    def test_schema_details_restored(self):
        wb = workbook_from_dict(workbook_to_dict(build_rich_workbook()))
        schema = wb.database.table("items").schema
        assert schema.primary_key == "id"
        assert schema.column("added").dtype.value == "DATE"

    def test_attribute_groups_restored(self):
        source = Workbook()
        source.execute("CREATE TABLE g (a INT, b INT)")
        source.execute("ALTER TABLE g ADD COLUMN c INT")  # own group
        wb = workbook_from_dict(workbook_to_dict(source))
        assert wb.database.table("g").schema.groups == [["a", "b"], ["c"]]

    def test_dates_roundtrip(self):
        wb = workbook_from_dict(workbook_to_dict(build_rich_workbook()))
        value = wb.execute("SELECT added FROM items WHERE id=1").scalar()
        assert value == datetime.date(2020, 1, 2)

    def test_presentation_order_preserved(self):
        source = Workbook()
        source.execute("CREATE TABLE p (id INT PRIMARY KEY)")
        source.execute("INSERT INTO p VALUES (1),(3)")
        source.execute("INSERT INTO p VALUES (2) AT POSITION 1")
        wb = workbook_from_dict(workbook_to_dict(source))
        assert [r[0] for r in wb.execute("SELECT id FROM p").rows] == [1, 2, 3]

    def test_plain_cells_and_formulas(self):
        wb = workbook_from_dict(workbook_to_dict(build_rich_workbook()))
        assert wb.get("Sheet1", "H1") == 5
        assert wb.get("Sheet1", "H2") == 10
        wb.set("Sheet1", "H1", 7)  # formula is live, not a frozen value
        assert wb.get("Sheet1", "H2") == 14

    def test_multiple_sheets(self):
        wb = workbook_from_dict(workbook_to_dict(build_rich_workbook()))
        assert wb.get("Notes", "A1") == "remember"

    def test_regions_live_after_load(self):
        wb = workbook_from_dict(workbook_to_dict(build_rich_workbook()))
        assert wb.get("Sheet1", "A1") == "id"          # DBTABLE header
        assert wb.get("Sheet1", "F1") == 60            # DBSQL result
        # Two-way sync still works on the loaded copy.
        wb.set("Sheet1", "C2", 100)
        assert wb.get("Sheet1", "F1") == 150

    def test_windowed_region_offset_restored(self):
        source = Workbook()
        source.execute("CREATE TABLE big (id INT PRIMARY KEY)")
        table = source.database.table("big")
        for i in range(200):
            table.insert((i,), emit=False)
        region = source.dbtable("Sheet1", "A1", "big", window_rows=10)
        region.scroll_to(50)
        wb = workbook_from_dict(workbook_to_dict(source))
        assert wb.get("Sheet1", "A2") == 50

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "workbook.json")
        save_workbook(build_rich_workbook(), path)
        wb = load_workbook(path)
        assert wb.get("Sheet1", "F1") == 60

    def test_bad_version_rejected(self):
        with pytest.raises(ImportExportError):
            workbook_from_dict({"version": 99})

    def test_empty_workbook(self):
        wb = workbook_from_dict(workbook_to_dict(Workbook()))
        assert wb.sheet_names() == ["Sheet1"]


class TestLayoutState:
    """Format v2: the tuned physical layout round-trips — advisor flag,
    decayed workload window, and any in-flight migration target."""

    def build(self) -> Workbook:
        wb = Workbook()
        wb.execute("CREATE TABLE t (a INT, b INT, c INT, d INT)")
        table = wb.database.table("t")
        for i in range(40):
            table.insert((i, i + 1, i + 2, i + 3), emit=False)
        return wb

    def test_auto_layout_flag_roundtrip(self):
        source = self.build()
        source.execute("ALTER TABLE t SET LAYOUT AUTO")
        wb = workbook_from_dict(workbook_to_dict(source))
        assert wb.database.table("t").auto_layout
        # And the off state stays off.
        source.execute("ALTER TABLE t SET LAYOUT MANUAL")
        wb = workbook_from_dict(workbook_to_dict(source))
        assert not wb.database.table("t").auto_layout

    def test_access_stats_roundtrip(self):
        source = self.build()
        table = source.database.table("t")
        for _ in range(7):
            list(table.store.scan_groups(["b"]))
        for rid in table.store.rids()[:5]:
            table.store.get(rid)
        table.store.access_stats.decay()
        wb = workbook_from_dict(workbook_to_dict(source))
        # Verbatim — load-time row inserts must not be double-counted on
        # top of the persisted (decayed) window.
        assert (
            wb.database.table("t").store.access_stats.to_dict()
            == table.store.access_stats.to_dict()
        )

    def test_migration_target_roundtrip_and_resume(self):
        source = self.build()
        table = source.database.table("t")
        table.migrate_layout([["a"], ["b", "c", "d"]], online=True)
        assert table.migration_active
        wb = workbook_from_dict(workbook_to_dict(source))
        clone = wb.database.table("t")
        assert clone.migration_active
        assert clone.layout_migration_target == [["a"], ["b", "c", "d"]]
        # The loaded workbook's maintenance loop resumes and completes it.
        while clone.migration_active:
            clone.layout_tick(steps=1)
        assert clone.schema.groups == [["a"], ["b", "c", "d"]]
        clone.validate()

    def test_mid_migration_grouping_is_the_live_one(self):
        source = self.build()
        table = source.database.table("t")
        # [[a,b],[c,d]] -> [[a,c],[b,d]] takes four steps (two splits,
        # two merges); stop after one so the grouping is intermediate.
        table.store.restructure([["a", "b"], ["c", "d"]])
        migration = table.migrate_layout(
            [["a", "c"], ["b", "d"]], online=True
        )
        migration.step()
        assert not migration.done
        intermediate = table.schema.groups
        wb = workbook_from_dict(workbook_to_dict(source))
        clone = wb.database.table("t")
        assert clone.schema.groups == intermediate
        assert clone.migration_active
        assert clone.layout_migration_target == [["a", "c"], ["b", "d"]]

    def test_group_io_counters_roundtrip(self):
        source = self.build()
        table = source.database.table("t")
        table.migrate_layout([["a"], ["b", "c", "d"]], online=False)
        table.checkpoint()
        for _ in range(5):
            list(table.store.scan_groups(["a"]))
        before = table.store.group_io_snapshot()
        assert any(entry["writes"] or entry["allocations"] for entry in before)
        wb = workbook_from_dict(workbook_to_dict(source))
        # The per-group I/O surface continues from the pre-save counters
        # instead of restarting from the load's own write burst.
        assert wb.database.table("t").store.group_io_snapshot() == before

    def test_missing_group_io_loads_with_live_counters(self):
        payload = workbook_to_dict(self.build())
        for spec in payload["tables"]:
            del spec["group_io"]
        wb = workbook_from_dict(payload)  # must not raise
        assert wb.database.table("t").n_rows == 40

    def test_v1_payload_loads_with_layout_defaults(self):
        source = self.build()
        source.execute("ALTER TABLE t SET LAYOUT AUTO")
        payload = workbook_to_dict(source)
        payload["version"] = 1
        for spec in payload["tables"]:
            for key in ("auto_layout", "access_stats", "migration_target"):
                spec.pop(key, None)
        wb = workbook_from_dict(payload)
        table = wb.database.table("t")
        assert not table.auto_layout
        assert not table.migration_active
        assert table.schema.groups == [["a", "b", "c", "d"]]
