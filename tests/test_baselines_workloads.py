"""Tests for the baselines and workload generators."""

import pytest

from repro.baselines.naive_db import NaiveDbTable
from repro.baselines.naive_spreadsheet import NaiveSpreadsheet
from repro.engine.types import DBType
from repro.workloads.datasets import (
    generate_grades_data,
    generate_movie_data,
    load_grades_database,
    load_movie_database,
)
from repro.workloads.traces import (
    mixed_scroll_trace,
    random_edit_trace,
    random_jump_trace,
    sequential_scroll_trace,
)


class TestNaiveSpreadsheet:
    def test_set_get(self):
        sheet = NaiveSpreadsheet()
        sheet.set("A1", "5")
        assert sheet.get("A1") == 5

    def test_formula_evaluates(self):
        sheet = NaiveSpreadsheet()
        sheet.set("A1", 2)
        sheet.set("A2", "=A1*3")
        assert sheet.get("A2") == 6

    def test_every_edit_recalculates_everything(self):
        sheet = NaiveSpreadsheet()
        for row in range(1, 11):
            sheet.set(f"B{row}", f"=A{row}+1")
        evaluated_before = sheet.cells_evaluated
        sheet.set("A1", 5)  # one edit...
        # ...but all 10 formulas were re-evaluated (at least once each).
        assert sheet.cells_evaluated - evaluated_before >= 10

    def test_fixpoint_chain(self):
        sheet = NaiveSpreadsheet()
        sheet.set("A1", 1)
        sheet.set("A2", "=A1+1")
        sheet.set("A3", "=A2+1")
        assert sheet.get("A3") == 3

    def test_load_rows_materialises_everything(self):
        sheet = NaiveSpreadsheet()
        count = sheet.load_rows([(i, i * 2) for i in range(100)])
        assert count == 200
        assert sheet.n_cells == 200

    def test_window(self):
        sheet = NaiveSpreadsheet()
        sheet.load_rows([(i,) for i in range(50)])
        window = sheet.window(10, 3, 0, 1)
        assert window == [[10], [11], [12]]

    def test_error_renders_code(self):
        sheet = NaiveSpreadsheet()
        sheet.set("A1", "=1/0")
        assert sheet.get("A1") == "#DIV/0!"


class TestNaiveDbTable:
    def make(self, n=50):
        table = NaiveDbTable([("id", DBType.INTEGER), ("v", DBType.TEXT)])
        for i in range(n):
            table.append((i, f"v{i}"))
        return table

    def test_row_at_scans(self):
        table = self.make()
        assert table.row_at(10) == (10, "v10")
        assert table.rows_scanned >= 10

    def test_window(self):
        table = self.make()
        rows = table.window(20, 5)
        assert [r[0] for r in rows] == [20, 21, 22, 23, 24]
        assert table.rows_scanned >= 50  # full scan

    def test_insert_at_renumbers_tail(self):
        table = self.make(10)
        rid = table.insert_at(5, (99, "mid"))
        assert table.rows_renumbered == 5
        assert table.position_of(rid) == 5
        assert table.row_at(5) == (99, "mid")
        assert table.row_at(6) == (5, "v5")
        assert table.n_rows == 11

    def test_delete_at_renumbers(self):
        table = self.make(10)
        table.delete_at(3)
        assert table.rows_renumbered == 6
        assert table.row_at(3) == (4, "v4")

    def test_scan_ordered(self):
        table = self.make(5)
        table.insert_at(0, (-1, "first"))
        assert [r[0] for r in table.scan_ordered()] == [-1, 0, 1, 2, 3, 4]

    def test_missing_position(self):
        table = self.make(3)
        with pytest.raises(IndexError):
            table.row_at(99)


class TestDatasets:
    def test_movie_data_deterministic(self):
        first = generate_movie_data(n_movies=20, n_actors=10, seed=5)
        second = generate_movie_data(n_movies=20, n_actors=10, seed=5)
        assert first.movies == second.movies
        assert first.actors == second.actors

    def test_movie_data_shape(self):
        data = generate_movie_data(n_movies=20, n_actors=10, links_per_movie=3)
        assert len(data.movies) == 20
        assert len(data.actors) == 10
        assert len(data.movies2actors) == 60
        assert all(1 <= a <= 10 for _, a in data.movies2actors)

    def test_load_movie_database(self):
        db = load_movie_database(generate_movie_data(10, 5, 2))
        assert db.execute("SELECT count(*) FROM movies").scalar() == 10
        joined = db.execute(
            "SELECT count(*) FROM movies m JOIN movies2actors ma "
            "ON m.movieid = ma.movieid"
        ).scalar()
        assert joined == 20

    def test_grades_shape(self):
        data = generate_grades_data(n_students=30)
        assert len(data.grades) == 30
        assert all(40 <= row[1] <= 100 for row in data.grades)
        assert all(row[6] in "ABCD" for row in data.grades)

    def test_load_grades_database(self):
        db = load_grades_database(generate_grades_data(25))
        assert db.execute("SELECT count(*) FROM demographics").scalar() == 25
        levels = db.execute("SELECT DISTINCT level FROM demographics").rows
        assert set(l for (l,) in levels) <= {"undergrad", "MS", "PhD"}


class TestTraces:
    def test_sequential_visits_final_partial_window(self):
        # 100 rows / window 40: the tail window starts at 60; the old
        # wrap-to-0 arithmetic skipped rows 80..99 entirely.
        trace = sequential_scroll_trace(n_rows=100, window=40, steps=5)
        assert trace == [0, 40, 60, 0, 40]

    def test_sequential_covers_every_row(self):
        for n_rows, window in [(100, 40), (95, 30), (64, 64), (50, 7), (10, 3)]:
            steps = 3 * (n_rows // window + 2)
            trace = sequential_scroll_trace(n_rows, window, steps)
            covered = set()
            for position in trace:
                covered.update(range(position, min(position + window, n_rows)))
            assert covered == set(range(n_rows)), (n_rows, window)

    def test_sequential_exact_multiple_unchanged(self):
        assert sequential_scroll_trace(n_rows=80, window=40, steps=4) == [0, 40, 0, 40]

    def test_random_jump_bounds(self):
        trace = random_jump_trace(n_rows=1000, window=40, steps=50)
        assert len(trace) == 50
        assert all(0 <= p < 960 for p in trace)

    def test_mixed_deterministic(self):
        first = mixed_scroll_trace(500, 40, 20, seed=9)
        second = mixed_scroll_trace(500, 40, 20, seed=9)
        assert first == second

    def test_mixed_can_reach_the_tail_window(self):
        # Sequential panning inside the mixed trace must visit the final
        # partial window (the old `% (n_rows - window)` arithmetic could
        # never produce a start > n_rows - 2*window + 1).
        trace = mixed_scroll_trace(100, 40, 12, jump_probability=0.0, seed=1)
        assert 60 in trace
        covered = set()
        for position in trace:
            covered.update(range(position, min(position + 40, 100)))
        assert covered == set(range(100))
        # Jumps draw from every valid window start, inclusive of the last.
        jumpy = mixed_scroll_trace(60, 20, 400, jump_probability=1.0, seed=3)
        assert all(0 <= p <= 40 for p in jumpy)
        assert 40 in jumpy

    def test_edit_trace(self):
        trace = random_edit_trace(10, 3, 25)
        assert len(trace) == 25
        assert all(0 <= r < 10 and 0 <= c < 3 for r, c, _ in trace)
