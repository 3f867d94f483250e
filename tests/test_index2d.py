"""Unit + property tests for the 2-D grid index, at two tile shapes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.index2d import GridIndex


INDEXES = [
    pytest.param(lambda: GridIndex(tile_rows=4, tile_cols=4), id="grid"),
    pytest.param(lambda: GridIndex(tile_rows=1, tile_cols=1), id="grid1x1"),
]


@pytest.mark.parametrize("make", INDEXES)
class TestCommon:
    def test_put_get(self, make):
        index = make()
        index.put(3, 5, "x")
        assert index.get(3, 5) == "x"
        assert index.get(3, 6) is None
        assert index.get(3, 6, "d") == "d"

    def test_overwrite(self, make):
        index = make()
        index.put(1, 1, "a")
        index.put(1, 1, "b")
        assert index.get(1, 1) == "b"
        assert len(index) == 1

    def test_remove(self, make):
        index = make()
        index.put(2, 2, "v")
        assert index.remove(2, 2)
        assert not index.remove(2, 2)
        assert index.get(2, 2) is None
        assert len(index) == 0

    def test_query_range_row_major(self, make):
        index = make()
        for row, col in [(0, 0), (0, 5), (5, 0), (5, 5), (2, 2)]:
            index.put(row, col, f"{row},{col}")
        hits = list(index.query_range(0, 0, 5, 5))
        assert [(r, c) for r, c, _ in hits] == [(0, 0), (0, 5), (2, 2), (5, 0), (5, 5)]

    def test_query_range_excludes_outside(self, make):
        index = make()
        index.put(10, 10, "in")
        index.put(100, 100, "out")
        hits = list(index.query_range(0, 0, 50, 50))
        assert [payload for _, _, payload in hits] == ["in"]

    def test_items(self, make):
        index = make()
        points = {(i * 7, i * 3) for i in range(10)}
        for row, col in points:
            index.put(row, col, None)
        assert {(r, c) for r, c, _ in index.items()} == points

    def test_sparse_far_points(self, make):
        index = make()
        index.put(0, 0, "origin")
        index.put(50_000, 2_000, "far")
        assert index.get(50_000, 2_000) == "far"
        assert index.get(0, 0) == "origin"
        hits = list(index.query_range(49_999, 1_999, 50_001, 2_001))
        assert len(hits) == 1


class TestGridSpecifics:
    def test_tiles_created_lazily(self):
        grid = GridIndex(tile_rows=10, tile_cols=10)
        grid.put(5, 5, 1)
        grid.put(6, 6, 2)
        assert grid.n_tiles == 1
        grid.put(55, 55, 3)
        assert grid.n_tiles == 2

    def test_empty_tile_removed(self):
        grid = GridIndex(tile_rows=10, tile_cols=10)
        grid.put(1, 1, "x")
        grid.remove(1, 1)
        assert grid.n_tiles == 0

    def test_tiles_overlapping_metric(self):
        grid = GridIndex(tile_rows=10, tile_cols=10)
        grid.put(5, 5, 1)
        grid.put(95, 95, 2)
        assert grid.tiles_overlapping(0, 0, 9, 9) == 1
        assert grid.tiles_overlapping(0, 0, 99, 99) == 2

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            GridIndex(tile_rows=0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)), max_size=80),
    st.tuples(st.integers(0, 300), st.integers(0, 300), st.integers(0, 300), st.integers(0, 300)),
)
def test_indexes_agree_with_dict_model(points, box):
    top, left, bottom, right = box
    top, bottom = min(top, bottom), max(top, bottom)
    left, right = min(left, right), max(left, right)
    grid = GridIndex(tile_rows=16, tile_cols=16)
    cells = GridIndex(tile_rows=1, tile_cols=1)
    model = {}
    for row, col in points:
        grid.put(row, col, (row, col))
        cells.put(row, col, (row, col))
        model[(row, col)] = (row, col)
    expected = sorted(
        (r, c) for (r, c) in model if top <= r <= bottom and left <= c <= right
    )
    assert [(r, c) for r, c, _ in grid.query_range(top, left, bottom, right)] == expected
    assert [(r, c) for r, c, _ in cells.query_range(top, left, bottom, right)] == expected
