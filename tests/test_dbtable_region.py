"""Tests for DBTABLE regions: rendering, windowing, edit translation and
two-way sync (Feature 2 import + Feature 3 / Fig 2b, 2c)."""

import pytest

from repro import Workbook
from repro.errors import RegionError


@pytest.fixture
def wb_t(wb):
    wb.execute("CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT)")
    wb.execute(
        "INSERT INTO items VALUES (1,'apple',10),(2,'pear',20),(3,'fig',30)"
    )
    return wb


class TestRender:
    def test_headers_and_rows(self, wb_t):
        wb_t.dbtable("Sheet1", "A1", "items")
        assert wb_t.get("Sheet1", "A1") == "id"
        assert wb_t.get("Sheet1", "B2") == "apple"
        assert wb_t.get("Sheet1", "C4") == 30

    def test_without_headers(self, wb_t):
        wb_t.dbtable("Sheet1", "A1", "items", include_headers=False)
        assert wb_t.get("Sheet1", "A1") == 1

    def test_extent(self, wb_t):
        region = wb_t.dbtable("Sheet1", "B2", "items")
        assert region.context.extent.to_a1(include_sheet=False) == "B2:D5"

    def test_anchor_formula(self, wb_t):
        wb_t.dbtable("Sheet1", "A1", "items")
        cell = wb_t.sheet("Sheet1").cell("A1")
        assert cell.is_formula
        assert wb_t.formula_text("Sheet1", "A1") == 'DBTABLE("items")'

    def test_set_formula_string(self, wb_t):
        wb_t.set("Sheet1", "A1", '=DBTABLE("items")')
        assert wb_t.get("Sheet1", "B2") == "apple"

    def test_empty_table_renders_header_only(self, wb_t):
        wb_t.execute("CREATE TABLE empty (x INT)")
        region = wb_t.dbtable("Sheet1", "F1", "empty")
        assert wb_t.get("Sheet1", "F1") == "x"
        assert region.context.extent.n_rows == 1

    def test_key_mapping(self, wb_t):
        region = wb_t.dbtable("Sheet1", "A1", "items")
        assert region.row_keys == [1, 2, 3]


class TestWindowing:
    @pytest.fixture
    def big(self, wb):
        wb.execute("CREATE TABLE big (id INT PRIMARY KEY, v INT)")
        with wb.batch():
            table = wb.database.table("big")
            for i in range(500):
                table.insert((i, i * 10))
        return wb

    def test_window_limits_rendered_rows(self, big):
        region = big.dbtable("Sheet1", "A1", "big", window_rows=20)
        assert region.context.extent.n_rows == 21  # header + 20
        assert big.get("Sheet1", "A2") == 0
        assert big.get("Sheet1", "A21") == 19

    def test_scroll(self, big):
        region = big.dbtable("Sheet1", "A1", "big", window_rows=20)
        region.scroll_to(100)
        assert big.get("Sheet1", "A2") == 100
        assert region.row_keys[0] == 100

    def test_scroll_uses_cache(self, big):
        region = big.dbtable("Sheet1", "A1", "big", window_rows=20)
        region.scroll_to(20)
        region.scroll_to(0)
        assert region.cache.stats.hits > 0

    def test_only_window_materialised(self, big):
        big.dbtable("Sheet1", "A1", "big", window_rows=10)
        # 500-row table, but the sheet holds ~ header + 10 rows * 2 cols.
        assert big.sheet("Sheet1").n_cells <= 2 * 11 + 2


class TestFrontEndEdits:
    def test_cell_edit_updates_database(self, wb_t):
        wb_t.dbtable("Sheet1", "A1", "items")
        wb_t.set("Sheet1", "C2", 99)
        assert wb_t.execute("SELECT qty FROM items WHERE id=1").scalar() == 99

    def test_edit_uses_primary_key_not_position(self, wb_t):
        wb_t.dbtable("Sheet1", "A1", "items")
        wb_t.set("Sheet1", "B3", "PEAR!")
        assert wb_t.execute("SELECT name FROM items WHERE id=2").scalar() == "PEAR!"

    def test_edit_refreshes_region_display(self, wb_t):
        wb_t.dbtable("Sheet1", "A1", "items")
        wb_t.set("Sheet1", "C2", "77")
        assert wb_t.get("Sheet1", "C2") == 77  # coerced to the column type

    def test_append_row_below(self, wb_t):
        wb_t.dbtable("Sheet1", "A1", "items")
        wb_t.set("Sheet1", "A5", 4)
        assert wb_t.execute("SELECT count(*) FROM items").scalar() == 4
        # Region grew to include the new row.
        assert wb_t.get("Sheet1", "A5") == 4

    def test_delete_row(self, wb_t):
        region = wb_t.dbtable("Sheet1", "A1", "items")
        region.delete_row(2)  # 0-based sheet row 2 == data row 1 == id 2
        assert wb_t.execute("SELECT count(*) FROM items").scalar() == 2
        assert wb_t.get("Sheet1", "B3") == "fig"

    def test_positional_insert_row(self, wb_t):
        region = wb_t.dbtable("Sheet1", "A1", "items")
        region.insert_row(2, [9, "mid", 0])
        rows = wb_t.execute("SELECT id FROM items").rows
        assert [r[0] for r in rows] == [1, 9, 2, 3]

    def test_delete_row_out_of_region(self, wb_t):
        region = wb_t.dbtable("Sheet1", "A1", "items")
        with pytest.raises(RegionError):
            region.delete_row(99)


class TestBackEndSync:
    def test_backend_insert_appears(self, wb_t):
        wb_t.dbtable("Sheet1", "A1", "items")
        wb_t.execute("INSERT INTO items VALUES (4,'kiwi',40)")
        assert wb_t.get("Sheet1", "B5") == "kiwi"

    def test_backend_update_appears(self, wb_t):
        wb_t.dbtable("Sheet1", "A1", "items")
        wb_t.execute("UPDATE items SET qty = 0 WHERE id = 3")
        assert wb_t.get("Sheet1", "C4") == 0

    def test_backend_delete_shrinks_region(self, wb_t):
        region = wb_t.dbtable("Sheet1", "A1", "items")
        wb_t.execute("DELETE FROM items WHERE id = 1")
        assert region.context.extent.n_rows == 3
        assert wb_t.get("Sheet1", "B2") == "pear"
        assert wb_t.get("Sheet1", "B4") is None

    def test_backend_schema_change_appears(self, wb_t):
        wb_t.dbtable("Sheet1", "A1", "items")
        wb_t.execute("ALTER TABLE items ADD COLUMN price REAL DEFAULT 1.5")
        assert wb_t.get("Sheet1", "D1") == "price"
        assert wb_t.get("Sheet1", "D2") == 1.5

    def test_fig_2c_scenario(self, wb_t):
        """Edit a DBTABLE cell; a DBSQL region on the same table refreshes
        immediately (the paper's Feature 3 demonstration)."""
        wb_t.dbtable("Sheet1", "A1", "items")
        wb_t.dbsql("Sheet1", "F1", "SELECT sum(qty) FROM items")
        assert wb_t.get("Sheet1", "F1") == 60
        wb_t.set("Sheet1", "C2", 100)  # front-end edit: qty of id 1 -> 100
        assert wb_t.get("Sheet1", "F1") == 150

    def test_no_pk_table_uses_position_mapping(self, wb):
        wb.execute("CREATE TABLE nopk (v TEXT)")
        wb.execute("INSERT INTO nopk VALUES ('a'),('b')")
        wb.dbtable("Sheet1", "A1", "nopk")
        wb.set("Sheet1", "A3", "B!")
        rows = wb.execute("SELECT v FROM nopk").rows
        assert rows == [("a",), ("B!",)]
