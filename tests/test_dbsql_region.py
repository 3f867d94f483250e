"""Tests for DBSQL regions: spills, RANGEVALUE/RANGETABLE, dependency
tracking, one-pass computation (Feature 1 / Fig 2a)."""

import pytest

from repro import Workbook
from repro.core.dbsql import extract_sql_dependencies, grid_to_relation
from repro.core.address import RangeAddress
from repro.engine.sql_parser import parse_statement
from repro.errors import SqlError


@pytest.fixture
def wb_movies(movie_db):
    return Workbook(database=movie_db)


class TestSpill:
    def test_single_column_spill(self, wb_movies):
        wb_movies.dbsql(
            "Sheet1", "B3",
            "SELECT title FROM movies ORDER BY movieid LIMIT 5",
        )
        values = [wb_movies.get("Sheet1", f"B{row}") for row in range(3, 8)]
        assert all(isinstance(v, str) for v in values)
        assert wb_movies.get("Sheet1", "B8") is None

    def test_multi_column_spill(self, wb_movies):
        region = wb_movies.dbsql(
            "Sheet1", "A1",
            "SELECT movieid, title, year FROM movies ORDER BY movieid LIMIT 3",
        )
        assert region.context.extent.n_cols == 3
        assert region.context.extent.n_rows == 3
        assert wb_movies.get("Sheet1", "A1") == 1

    def test_headers_option(self, wb_movies):
        wb_movies.dbsql(
            "Sheet1", "A1",
            "SELECT movieid, title FROM movies LIMIT 2",
            include_headers=True,
        )
        assert wb_movies.get("Sheet1", "A1") == "movieid"
        assert wb_movies.get("Sheet1", "B1") == "title"

    def test_empty_result_leaves_blank_anchor(self, wb_movies):
        wb_movies.dbsql("Sheet1", "A1", "SELECT title FROM movies WHERE year = 1800")
        assert wb_movies.get("Sheet1", "A1") is None

    def test_shrinking_result_clears_stale_cells(self, wb_movies):
        wb_movies.set("Sheet1", "E1", 5)
        region = wb_movies.dbsql(
            "Sheet1", "A1",
            "SELECT movieid FROM movies WHERE movieid <= RANGEVALUE(E1) ORDER BY movieid",
        )
        assert wb_movies.get("Sheet1", "A5") == 5
        wb_movies.set("Sheet1", "E1", 2)
        assert wb_movies.get("Sheet1", "A2") == 2
        assert wb_movies.get("Sheet1", "A5") is None

    def test_only_select_allowed(self, wb_movies):
        with pytest.raises(SqlError):
            wb_movies.dbsql("Sheet1", "A1", "DELETE FROM movies")

    def test_formula_text_installed_at_anchor(self, wb_movies):
        wb_movies.dbsql("Sheet1", "A1", "SELECT 1")
        cell = wb_movies.sheet("Sheet1").cell("A1")
        assert cell.is_formula
        assert wb_movies.formula_text("Sheet1", "A1") == 'DBSQL("SELECT 1")'

    def test_set_formula_string_installs_region(self, wb_movies):
        wb_movies.set("Sheet1", "A1", '=DBSQL("SELECT count(*) FROM actors")')
        assert wb_movies.get("Sheet1", "A1") == 30
        assert len(wb_movies.regions) == 1


class TestRangeValue:
    def test_precedent_edit_reruns_query(self, wb_movies):
        wb_movies.set("Sheet1", "B1", 1)
        region = wb_movies.dbsql(
            "Sheet1", "B3",
            "SELECT title FROM movies WHERE movieid = RANGEVALUE(B1)",
        )
        first = wb_movies.get("Sheet1", "B3")
        wb_movies.set("Sheet1", "B1", 2)
        second = wb_movies.get("Sheet1", "B3")
        assert first != second
        assert region.refresh_count == 2

    def test_rangevalue_of_formula_cell_sees_fresh_value(self, wb_movies):
        wb_movies.set("Sheet1", "A1", 1)
        wb_movies.set("Sheet1", "B1", "=A1+1")  # B1 = 2
        wb_movies.dbsql(
            "Sheet1", "C1",
            "SELECT title FROM movies WHERE movieid = RANGEVALUE(B1)",
        )
        title_for_2 = wb_movies.database.execute(
            "SELECT title FROM movies WHERE movieid = 2"
        ).scalar()
        assert wb_movies.get("Sheet1", "C1") == title_for_2

    def test_cross_sheet_rangevalue(self, wb_movies):
        wb_movies.add_sheet("Params")
        wb_movies.set("Params", "A1", 3)
        wb_movies.dbsql(
            "Sheet1", "A1",
            "SELECT movieid FROM movies WHERE movieid = RANGEVALUE('Params!A1')",
        )
        assert wb_movies.get("Sheet1", "A1") == 3


class TestRangeTable:
    def test_rangetable_with_headers(self, wb):
        wb.sheet("Sheet1").set_grid("A1", [["id", "score"], [1, 95], [2, 80], [3, 99]])
        wb.dbsql(
            "Sheet1", "D1",
            "SELECT id FROM RANGETABLE(A1:B4) WHERE score > 90 ORDER BY id",
        )
        assert wb.get("Sheet1", "D1") == 1
        assert wb.get("Sheet1", "D2") == 3

    def test_rangetable_without_headers_uses_column_letters(self, wb):
        wb.sheet("Sheet1").set_grid("A1", [[10, 20], [30, 40]])
        wb.dbsql("Sheet1", "D1", "SELECT a FROM RANGETABLE(A1:B2) ORDER BY a DESC")
        assert wb.get("Sheet1", "D1") == 30

    def test_rangetable_join_with_database_table(self, wb_movies):
        wb_movies.sheet("Sheet1").set_grid(
            "A1", [["movieid", "tag"], [1, "fav"], [3, "meh"]]
        )
        wb_movies.dbsql(
            "Sheet1", "E1",
            "SELECT m.title, r.tag FROM movies m "
            "JOIN RANGETABLE(A1:B3) r ON m.movieid = r.movieid ORDER BY r.tag",
        )
        assert wb_movies.get("Sheet1", "F1") == "fav"

    def test_edit_inside_rangetable_reruns(self, wb):
        wb.sheet("Sheet1").set_grid("A1", [["v"], [1], [2]])
        wb.dbsql("Sheet1", "D1", "SELECT sum(v) FROM RANGETABLE(A1:A3)")
        assert wb.get("Sheet1", "D1") == 3
        wb.set("Sheet1", "A2", 10)
        assert wb.get("Sheet1", "D1") == 12


class TestOnePass:
    def test_spill_is_single_query_execution(self, wb_movies):
        """E10's claim: an m-row spill runs the statement once, not m
        times (unlike one-per-cell formulas)."""
        before = wb_movies.database.statements_executed
        region = wb_movies.dbsql(
            "Sheet1", "A1",
            "SELECT title FROM movies ORDER BY movieid LIMIT 20",
        )
        assert region.last_row_count == 20
        assert wb_movies.database.statements_executed == before + 1


class TestDependencyExtraction:
    def test_tables_and_cells_and_ranges(self):
        statement = parse_statement(
            "SELECT a.name FROM movies m JOIN actors a ON m.movieid = a.actorid "
            "JOIN RANGETABLE(A1:B3) r ON r.movieid = m.movieid "
            "WHERE m.year = RANGEVALUE(B1)"
        )
        cells, ranges, tables = extract_sql_dependencies(statement, "S")
        assert tables == {"movies", "actors"}
        assert {c.to_a1(include_sheet=False) for c in cells} == {"B1"}
        assert len(ranges) == 1

    def test_subquery_dependencies(self):
        statement = parse_statement(
            "SELECT 1 FROM t WHERE x IN (SELECT y FROM u WHERE y = RANGEVALUE(C2))"
        )
        cells, _, tables = extract_sql_dependencies(statement, "S")
        assert tables == {"t", "u"}
        assert len(cells) == 1


class TestGridToRelation:
    def rng(self, text):
        return RangeAddress.parse(text)

    def test_header_detected(self):
        columns, rows = grid_to_relation(
            [["id", "name"], [1, "x"]], self.rng("A1:B2")
        )
        assert columns == ["id", "name"]
        assert rows == [(1, "x")]

    def test_no_header_all_numbers(self):
        columns, rows = grid_to_relation([[1, 2], [3, 4]], self.rng("B1:C2"))
        assert columns == ["b", "c"]
        assert len(rows) == 2

    def test_header_name_sanitisation(self):
        columns, _ = grid_to_relation(
            [["Student ID", "Full Name"], [1, "x"]], self.rng("A1:B2")
        )
        assert columns == ["student_id", "full_name"]

    def test_empty_grid(self):
        assert grid_to_relation([], self.rng("A1:A1")) == ([], [])
