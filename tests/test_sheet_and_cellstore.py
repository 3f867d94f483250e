"""Unit tests for the interface storage manager (CellStore) and Sheet."""

import pytest

from repro.core.cell import Cell
from repro.core.sheet import Sheet
from repro.interface_storage import CellStore


class TestCellStore:
    def test_point_ops(self):
        store = CellStore()
        store.set(5, 3, "v")
        assert store.get(5, 3) == "v"
        assert store.get(5, 4) is None
        assert store.delete(5, 3)
        assert not store.delete(5, 3)

    def test_negative_coordinates_rejected(self):
        store = CellStore()
        with pytest.raises(ValueError):
            store.set(-1, 0, "x")

    def test_len_and_blocks(self):
        store = CellStore(tile_rows=4, tile_cols=4)
        for i in range(10):
            store.set(i, 0, i)
        assert len(store) == 10
        assert store.n_blocks == 3  # rows 0-3, 4-7, 8-9

    def test_get_range_row_major(self):
        store = CellStore()
        store.set(1, 1, "a")
        store.set(0, 2, "b")
        store.set(1, 0, "c")
        hits = list(store.get_range(0, 0, 2, 2))
        assert [payload for _, _, payload in hits] == ["b", "c", "a"]

    def test_range_query_counts_blocks(self):
        store = CellStore(tile_rows=4, tile_cols=4)
        store.set(0, 0, 1)
        store.set(100, 100, 2)
        list(store.get_range(0, 0, 3, 3))
        assert store.stats.blocks_scanned == 1

    def test_used_bounds(self):
        store = CellStore()
        assert store.used_bounds() is None
        store.set(5, 2, "x")
        store.set(1, 7, "y")
        assert store.used_bounds() == (1, 2, 5, 7)

    def test_insert_rows_shifts_down_without_moving_cells(self):
        store = CellStore()
        store.set(5, 0, "below")
        store.set(2, 0, "above")
        moved = store.insert_rows(3, 2)
        assert moved == 0  # positional mapping: the key space splices
        assert store.stats.cells_moved == 0
        assert store.get(7, 0) == "below"
        assert store.get(2, 0) == "above"

    def test_delete_rows_drops_and_shifts(self):
        store = CellStore()
        store.set(2, 0, "doomed")
        store.set(5, 0, "survivor")
        dropped = store.delete_rows(2, 2)
        assert dropped == 1
        assert store.stats.cells_dropped == 1
        assert store.stats.cells_moved == 0
        assert store.get(2, 0) is None
        assert store.get(3, 0) == "survivor"

    def test_insert_cols(self):
        store = CellStore()
        store.set(0, 3, "x")
        store.insert_cols(1, 2)
        assert store.get(0, 5) == "x"

    def test_delete_cols(self):
        store = CellStore()
        store.set(0, 3, "x")
        store.set(0, 1, "gone")
        store.delete_cols(1, 1)
        assert store.get(0, 2) == "x"
        assert store.get(0, 1) is None

    def test_clear_range(self):
        store = CellStore()
        for i in range(5):
            store.set(i, 0, i)
        removed = store.clear_range(1, 0, 3, 0)
        assert removed == 3
        assert len(store) == 2

    def test_one_cell_tiles(self):
        store = CellStore(tile_rows=1, tile_cols=1)
        store.set(10, 10, "x")
        assert store.get(10, 10) == "x"
        assert len(list(store.get_range(0, 0, 20, 20))) == 1
        assert store.n_blocks == 1


class TestSheet:
    def test_set_get_value(self):
        sheet = Sheet("S")
        sheet.set_value("B2", 42)
        assert sheet.value("B2") == 42
        assert sheet.value_at(1, 1) == 42

    def test_cell_object_identity(self):
        sheet = Sheet("S")
        cell = sheet.ensure_cell("A1")
        cell.set_value(5)
        assert sheet.cell("A1") is cell

    def test_grid_dense_with_blanks(self):
        sheet = Sheet("S")
        sheet.set_value("A1", 1)
        sheet.set_value("B2", 2)
        assert sheet.grid("A1:B2") == [[1, None], [None, 2]]

    def test_set_grid_returns_extent(self):
        sheet = Sheet("S")
        extent = sheet.set_grid("B2", [[1, 2], [3, 4]])
        assert extent.to_a1(include_sheet=False) == "B2:C3"
        assert sheet.value("C3") == 4

    def test_used_range(self):
        sheet = Sheet("S")
        sheet.set_value("C3", 1)
        sheet.set_value("E7", 2)
        assert sheet.used_range().to_a1(include_sheet=False) == "C3:E7"

    def test_clear_range(self):
        sheet = Sheet("S")
        sheet.set_grid("A1", [[1, 2], [3, 4]])
        assert sheet.clear_range("A1:A2") == 2
        assert sheet.value("A1") is None
        assert sheet.value("B1") == 2

    def test_range_cells_skips_blanks(self):
        sheet = Sheet("S")
        sheet.set_value("A1", 1)
        cells = list(sheet.range_cells("A1:C3"))
        assert len(cells) == 1

    def test_formula_cells_iterator(self):
        sheet = Sheet("S")
        sheet.ensure_cell("A1").set_input("=B1+1")
        sheet.set_value("A2", 5)
        formulas = list(sheet.formula_cells())
        assert len(formulas) == 1
        assert formulas[0][0].to_a1(include_sheet=False) == "A1"

    def test_display(self):
        sheet = Sheet("S")
        sheet.set_value("A1", 2.0)
        assert sheet.display("A1") == "2"

    def test_structural_edit_delegates(self):
        sheet = Sheet("S")
        sheet.set_value("A5", "x")
        sheet.insert_rows(0, 2)
        assert sheet.value("A7") == "x"

    def test_empty_name_rejected(self):
        from repro.errors import SheetError

        with pytest.raises(SheetError):
            Sheet("")
