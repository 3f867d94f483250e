"""The structural-edit fast path: formulas are bound to the positional
mapper's keys, so a splice touches only the range subscriptions that reach
it and the formulas on or referencing a deleted key — and the
workbook-level guarantee that this work does not depend on sheet size."""

import pytest

from repro import Workbook
from repro.compute.graph import DependencyGraph
from repro.core.address import CellAddress, RangeAddress
from repro.index.posmap import PositionalMapper


def key(sheet, row, col):
    return (sheet, row, col)


def column_range(top, bottom, col=0):
    return RangeAddress(CellAddress(top, col), CellAddress(bottom, col))


class SplicedSheet:
    """Sheet "S" as two mappers: the ``locate`` a graph is wired to, and
    the key a logical position currently has."""

    def __init__(self):
        self.rows, self.cols = PositionalMapper(seed=1), PositionalMapper(seed=2)

    def locate(self, cell_key):
        row, col = self.rows.position_of(cell_key[1]), self.cols.position_of(cell_key[2])
        return None if row is None or col is None else (row, col)

    def key_at(self, row, col):
        return key("S", self.rows.key_at(row), self.cols.key_at(col))


class TestRangeRebucketing:
    """What replaced the half-space scan over every reference."""

    def test_only_subscriptions_reaching_the_edit_are_touched(self):
        sheet = SplicedSheet()
        graph = DependencyGraph(sheet.locate)
        graph.set_dependencies(key("S", 0, 5), [], [column_range(0, 9)])
        graph.set_dependencies(key("S", 1, 5), [], [column_range(300, 310)])
        sheet.rows.splice(100, 300)
        resized, broken, touched = graph.resubscribe("S", "row", 100)
        assert (resized, broken, touched) == ([], [], 1)  # moved, same size

    def test_moved_range_is_found_in_its_new_tile(self):
        sheet = SplicedSheet()
        graph = DependencyGraph(sheet.locate)
        graph.set_dependencies(key("S", 1, 5), [], [column_range(300, 310)])
        member = sheet.key_at(305, 0)
        sheet.rows.splice(100, 300)  # rows 300..310 now answer to 600..610: another tile
        graph.resubscribe("S", "row", 100)
        assert sheet.locate(member) == (605, 0)
        assert graph.dependents_of(member) == {key("S", 1, 5)}
        assert graph.dependents_of(sheet.key_at(305, 0)) == set()  # an inserted row

    def test_far_tile_buckets_are_reached(self):
        sheet = SplicedSheet()
        graph = DependencyGraph(sheet.locate)
        graph.set_dependencies(key("S", 0, 0), [], [column_range(100_000, 100_001, col=3)])
        sheet.rows.splice(5, 1)
        assert graph.resubscribe("S", "row", 5)[2] == 1
        assert graph.dependents_of(sheet.key_at(100_002, 3)) == {key("S", 0, 0)}

    def test_insert_inside_resizes_insert_at_first_row_moves(self):
        sheet = SplicedSheet()
        graph = DependencyGraph(sheet.locate)
        graph.set_dependencies(key("S", 0, 5), [], [column_range(10, 19)])
        sheet.rows.splice(10, 1)  # at the first row: the range moves
        resized, _, _ = graph.resubscribe("S", "row", 10)
        assert resized == []
        assert graph.dependents_of(sheet.key_at(10, 0)) == set()
        sheet.rows.splice(15, 2)  # inside: the new rows are members
        resized, _, _ = graph.resubscribe("S", "row", 15)
        assert [sub.dependent for sub in resized] == [key("S", 0, 5)]
        assert graph.dependents_of(sheet.key_at(15, 0)) == {key("S", 0, 5)}
        assert resized[0].extent == (11, 0, 22, 0)

    def test_freed_corner_is_reported_not_rebucketed(self):
        sheet = SplicedSheet()
        graph = DependencyGraph(sheet.locate)
        graph.set_dependencies(key("S", 0, 5), [], [column_range(10, 19)])
        sheet.rows.splice(19, -1)
        resized, broken, _ = graph.resubscribe("S", "row", 19)
        assert resized == [] and [sub.dependent for sub in broken] == [key("S", 0, 5)]

    def test_other_axis_and_other_sheet_are_untouched(self):
        sheet = SplicedSheet()
        graph = DependencyGraph(sheet.locate)
        graph.set_dependencies(key("S", 0, 5), [], [column_range(10, 19)])
        assert graph.resubscribe("S", "col", 1)[2] == 0
        assert graph.resubscribe("Other", "row", 0)[2] == 0


class TestDeletedKeyLookup:
    """What replaced walking every formula of the sheet after a delete."""

    def test_readers_of_freed_row_keys(self):
        graph = DependencyGraph()
        graph.set_dependencies(key("S", 0, 1), [CellAddress(5, 0)], [])
        graph.set_dependencies(key("S", 0, 2), [CellAddress(1, 0)], [])
        graph.set_dependencies(key("S", 0, 3), [CellAddress(100_000, 7)], [])
        assert graph.readers_of_keys("S", "row", [(5, 6)]) == {key("S", 0, 1)}
        assert graph.readers_of_keys("S", "row", [(0, 1), (99_999, 100_000)]) == {
            key("S", 0, 2),
            key("S", 0, 3),
        }
        assert graph.readers_of_keys("S", "row", [(2, 4)]) == set()
        assert graph.readers_of_keys("S", "col", [(7, 7)]) == {key("S", 0, 3)}
        assert graph.readers_of_keys("Other", "row", [(0, 10)]) == set()

    def test_cleared_dependent_is_no_longer_a_reader(self):
        graph = DependencyGraph()
        graph.set_dependencies(key("S", 0, 1), [CellAddress(5, 0)], [])
        graph.clear_dependencies(key("S", 0, 1))
        assert graph.readers_of_keys("S", "row", [(5, 5)]) == set()


def count_parses(monkeypatch):
    """Count ``parse_formula`` calls wherever the workbook path binds it."""
    from repro.compute import engine
    from repro.core import workbook
    from repro.formula import dependency, evaluator, parser

    calls = []

    def counting(source):
        calls.append(source)
        return parser.parse_formula(source)

    for module in (workbook, engine, dependency, evaluator):
        monkeypatch.setattr(module, "parse_formula", counting)
    return calls


def per_row_sheet(n_rows):
    """A formula per row plus three range aggregates over the column."""
    workbook = Workbook()
    for row in range(n_rows):
        workbook.set("Sheet1", CellAddress(row, 2), row)             # C
        workbook.set("Sheet1", CellAddress(row, 0), f"=C{row + 1}*2")  # A
    workbook.set("Sheet1", "E1", f"=SUM(C1:C{n_rows})")
    workbook.set("Sheet1", "E2", f"=MAX(C1:C{n_rows})")
    workbook.set("Sheet1", "E3", f"=COUNT(C{n_rows // 4}:C{3 * n_rows // 4})")
    return workbook


class TestWorkbookLogicalWork:
    @pytest.fixture
    def grid(self):
        return per_row_sheet(20)

    def test_splice_work_does_not_depend_on_sheet_size(self, monkeypatch):
        parses = count_parses(monkeypatch)
        touched = {}
        for n_rows in (200, 2000):
            workbook = per_row_sheet(n_rows)
            del parses[:]
            workbook.compute.stats.reset()
            mid = n_rows // 2
            for edit, at in (("insert_rows", mid), ("delete_rows", mid + 1), ("insert_cols", 1)):
                before = workbook.compute.stats.splice_touched
                getattr(workbook, edit)("Sheet1", at, 1)
                touched[n_rows, edit] = workbook.compute.stats.splice_touched - before
            assert workbook.compute.stats.reparses == 0
            assert parses == []
            assert workbook.sheet("Sheet1").store.stats.cells_moved == 0
            # ... and the sheet still computes: one row in, one out, one column in.
            assert workbook.get("Sheet1", "F1") == sum(range(n_rows)) - mid
            assert workbook.get("Sheet1", CellAddress(n_rows - 1, 0)) == 2 * (n_rows - 1)
        for edit in ("insert_rows", "delete_rows", "insert_cols"):
            assert touched[200, edit] == touched[2000, edit] > 0

    def test_insert_reparses_nothing(self, grid):
        grid.compute.stats.reset()
        grid.insert_rows("Sheet1", 15, 1)
        assert grid.compute.stats.reparses == 0
        assert grid.sheet("Sheet1").store.stats.cells_moved == 0
        assert grid.get("Sheet1", "A1") == 0
        assert grid.get("Sheet1", "A21") == 38
        assert grid.formula_text("Sheet1", "A21") == "C21*2"

    def test_unaffected_formula_not_recomputed(self, grid):
        grid.compute.stats.reset()
        grid.insert_rows("Sheet1", 15, 1)
        # Only the readers of the ranges the new row entered recompute.
        assert grid.compute.stats.evaluations <= 3

    def test_delete_makes_only_readers_ref_error(self, grid):
        grid.set("Sheet1", "G1", "=C11+1")  # reads the soon-deleted row 10
        grid.delete_rows("Sheet1", 10, 1)
        assert grid.get("Sheet1", "G1") == "#REF!"
        assert grid.sheet("Sheet1").cell_at(0, 6).formula is None
        assert grid.get("Sheet1", "A10") == 18  # row above: untouched
        assert grid.get("Sheet1", "A11") == 22  # shifted up
        assert grid.get("Sheet1", "A19") == 38

    def test_moved_formula_keeps_identity_and_dependencies(self, grid):
        cell_before = grid.sheet("Sheet1").cell_at(19, 0)
        tree_before = cell_before.formula
        grid.insert_rows("Sheet1", 0, 3)
        assert grid.sheet("Sheet1").cell_at(22, 0) is cell_before
        assert cell_before.formula is tree_before  # not even the tree changed
        grid.set("Sheet1", CellAddress(22, 2), 100)
        assert grid.get("Sheet1", CellAddress(22, 0)) == 200

    def test_formula_chain_across_edit_boundary(self):
        workbook = Workbook()
        workbook.set("Sheet1", "A1", 1)
        workbook.set("Sheet1", "A10", "=A1+1")   # below edit, refs above
        workbook.set("Sheet1", "B2", "=A10*10")  # above edit, refs below
        workbook.insert_rows("Sheet1", 4, 2)
        assert workbook.get("Sheet1", "A12") == 2
        assert workbook.get("Sheet1", "B2") == 20
        workbook.set("Sheet1", "A1", 5)
        assert workbook.get("Sheet1", "B2") == 60

    def test_range_formula_above_edit_expands(self):
        workbook = Workbook()
        for row in range(1, 6):
            workbook.set("Sheet1", f"A{row}", row)
        workbook.set("Sheet1", "C1", "=SUM(A1:A5)")
        workbook.insert_rows("Sheet1", 2, 1)
        workbook.set("Sheet1", "A3", 100)  # the inserted blank row
        assert workbook.get("Sheet1", "C1") == 115

    def test_lazy_mode_edit_keeps_demand_consistency(self):
        workbook = Workbook(eager=False)
        workbook.set("Sheet1", "A5", 7)
        workbook.set("Sheet1", "B5", "=A5+1")
        workbook.insert_rows("Sheet1", 0, 2)
        assert workbook.get("Sheet1", "B7") == 8

    def test_rendered_text_is_never_stale(self, grid):
        """Nothing stores text: a read right after a splice renders the
        tree through the spliced mapper."""
        assert grid.formula_text("Sheet1", "E1") == "SUM(C1:C20)"
        grid.insert_rows("Sheet1", 3, 2)
        assert grid.formula_text("Sheet1", "E1") == "SUM(C1:C22)"
        grid.insert_cols("Sheet1", 1, 1)
        assert grid.formula_text("Sheet1", "F1") == "SUM(D1:D22)"
        assert grid.formula_text("Sheet1", "A6") == "D6*2"
