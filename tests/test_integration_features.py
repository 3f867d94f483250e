"""Integration tests reproducing the paper's §4 demonstration end-to-end.

Each test narrates one of the three demonstrated features (Fig 2a/2b/2c)
plus the §1 motivating scenarios, exercising the full stack: parser →
planner → executor → storage → interface manager → compute → sync.
"""

import pytest

from repro import Workbook
from repro.workloads.datasets import (
    generate_grades_data,
    load_grades_database,
)


class TestFeature1Querying:
    """Fig 2a: DBSQL joining three relations with RANGEVALUE references."""

    def test_fig_2a(self, movie_wb):
        wb = movie_wb
        # B1/B2 hold the query parameters, exactly like the screenshot.
        wb.set("Sheet1", "B1", 1960)
        wb.set("Sheet1", "B2", 2010)
        wb.dbsql(
            "Sheet1", "B3",
            "SELECT DISTINCT a.name "
            "FROM movies m "
            "JOIN movies2actors ma ON m.movieid = ma.movieid "
            "JOIN actors a ON a.actorid = ma.actorid "
            "WHERE m.year >= RANGEVALUE(B1) AND m.year <= RANGEVALUE(B2) "
            "ORDER BY a.name LIMIT 8",
        )
        spill = [wb.get("Sheet1", f"B{row}") for row in range(3, 11)]
        names = [v for v in spill if v is not None]
        assert names == sorted(names)
        assert len(names) >= 1
        # Narrowing the year window re-runs the query and shrinks the spill.
        wb.set("Sheet1", "B1", 2015)
        wb.set("Sheet1", "B2", 2015)
        narrowed = [
            v for v in (wb.get("Sheet1", f"B{row}") for row in range(3, 11)) if v is not None
        ]
        assert len(narrowed) <= len(names)


class TestFeature2ImportExport:
    """Fig 2b: create table from a range; DBTABLE import."""

    def test_export_then_import(self, wb):
        wb.sheet("Sheet1").set_grid(
            "A1",
            [
                ["sid", "name", "points"],
                [1, "ann", 93],
                [2, "bob", 77],
                [3, "cat", 88],
            ],
        )
        table = wb.create_table_from_range(
            "Sheet1", "A1:C4", "roster", primary_key="sid"
        )
        # Schema inferred from heading + data (paper: "automatically
        # inferred using the column heading and the data").
        assert table.column_names == ["sid", "name", "points"]
        assert table.schema.column("points").dtype.value == "INTEGER"
        # Sheet range replaced by a live DBTABLE view.
        assert wb.formula_text("Sheet1", "A1") == 'DBTABLE("roster")'
        # Import the same table elsewhere.
        wb.add_sheet("View")
        wb.dbtable("View", "A1", "roster")
        assert wb.get("View", "B2") == "ann"
        # SQL can use it like any regular table.
        assert wb.execute("SELECT max(points) FROM roster").scalar() == 93


class TestFeature3Modifications:
    """Fig 2c: two-way sync between a DBTABLE, the database, and a DBSQL."""

    def test_fig_2c(self, wb):
        wb.execute("CREATE TABLE budget (item TEXT PRIMARY KEY, amount INT)")
        wb.execute("INSERT INTO budget VALUES ('rent', 1000), ('food', 400)")
        # A3:B5 (paper's layout): DBTABLE with headers.
        wb.dbtable("Sheet1", "A3", "budget")
        # A10: a DBSQL referencing that data.
        wb.dbsql("Sheet1", "A10", "SELECT sum(amount) FROM budget")
        assert wb.get("Sheet1", "A10") == 1400
        # Front-end modification -> database -> dependent DBSQL updates.
        wb.set("Sheet1", "B4", 1200)  # rent -> 1200
        assert wb.execute("SELECT amount FROM budget WHERE item='rent'").scalar() == 1200
        assert wb.get("Sheet1", "A10") == 1600
        # Back-end modification -> front-end updates.
        wb.execute("UPDATE budget SET amount = 500 WHERE item = 'food'")
        assert wb.get("Sheet1", "B5") == 500
        assert wb.get("Sheet1", "A10") == 1700


class TestMotivatingScenarios:
    """§1: the course-grades operations that are cumbersome in a plain
    spreadsheet but one-liners in DataSpread."""

    @pytest.fixture
    def grades_wb(self):
        data = generate_grades_data(n_students=100, seed=13)
        wb = Workbook(database=load_grades_database(data))
        return wb, data

    def test_select_students_above_90(self, grades_wb):
        wb, data = grades_wb
        wb.dbsql(
            "Sheet1", "A1",
            "SELECT student_id FROM grades "
            "WHERE a1 > 90 OR a2 > 90 OR a3 > 90 OR a4 > 90 OR a5 > 90 "
            "ORDER BY student_id",
        )
        expected = [
            row[0] for row in data.grades if any(score > 90 for score in row[1:6])
        ]
        got = []
        row = 1
        while wb.get("Sheet1", f"A{row}") is not None:
            got.append(wb.get("Sheet1", f"A{row}"))
            row += 1
        assert got == expected

    def test_join_and_group_average_by_level(self, grades_wb):
        wb, data = grades_wb
        wb.dbsql(
            "Sheet1", "D1",
            "SELECT d.level, avg(g.a1 + g.a2 + g.a3 + g.a4 + g.a5) "
            "FROM grades g JOIN demographics d ON g.student_id = d.student_id "
            "GROUP BY d.level ORDER BY d.level",
            include_headers=True,
        )
        assert wb.get("Sheet1", "D1") == "level"
        levels = [wb.get("Sheet1", f"D{row}") for row in range(2, 5)]
        assert sorted(levels) == ["MS", "PhD", "undergrad"]

    def test_continuously_added_external_data(self, grades_wb):
        """§1: course software appends actions; the sheet stays current."""
        wb, _ = grades_wb
        wb.execute(
            "CREATE TABLE actions (aid INT PRIMARY KEY, student_id INT, kind TEXT)"
        )
        wb.dbsql("Sheet1", "G1", "SELECT count(*) FROM actions")
        assert wb.get("Sheet1", "G1") == 0
        for i in range(5):
            wb.execute(f"INSERT INTO actions VALUES ({i}, {i + 1}, 'submit')")
        assert wb.get("Sheet1", "G1") == 5


class TestMixedFormulaAndSql:
    def test_spreadsheet_formula_over_dbsql_spill(self, movie_wb):
        wb = movie_wb
        wb.dbsql(
            "Sheet1", "A1",
            "SELECT year FROM movies ORDER BY movieid LIMIT 10",
        )
        wb.set("Sheet1", "C1", "=AVERAGE(A1:A10)")
        years = [wb.get("Sheet1", f"A{row}") for row in range(1, 11)]
        assert wb.get("Sheet1", "C1") == pytest.approx(sum(years) / 10)
        # Database change flows through the spill into the formula.
        wb.execute("UPDATE movies SET year = year + 10 WHERE movieid <= 10")
        new_years = [wb.get("Sheet1", f"A{row}") for row in range(1, 11)]
        assert wb.get("Sheet1", "C1") == pytest.approx(sum(new_years) / 10)

    def test_formula_feeding_rangevalue(self, movie_wb):
        wb = movie_wb
        wb.set("Sheet1", "A1", 1)
        wb.set("Sheet1", "A2", "=A1+1")
        wb.dbsql(
            "Sheet1", "A3",
            "SELECT title FROM movies WHERE movieid = RANGEVALUE(A2)",
        )
        expected = wb.execute("SELECT title FROM movies WHERE movieid = 2").scalar()
        assert wb.get("Sheet1", "A3") == expected
        wb.set("Sheet1", "A1", 4)  # A2 becomes 5; query re-runs
        expected = wb.execute("SELECT title FROM movies WHERE movieid = 5").scalar()
        assert wb.get("Sheet1", "A3") == expected
