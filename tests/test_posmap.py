"""Positional mapping: the key-space splice behind O(log n) structural
edits (PositionalMapper) and its integration into the CellStore."""

import math
import random

import pytest

from repro import Workbook
from repro.core.cell import Cell
from repro.index.posmap import LOGICAL_MAX, PositionalMapper
from repro.interface_storage import CellStore


class TestPositionalMapper:
    def test_identity_until_spliced(self):
        mapper = PositionalMapper()
        assert mapper.pristine
        assert mapper.key_at(0) == 0
        assert mapper.key_at(12345) == 12345
        assert mapper.position_of(77) == 77

    def test_insert_shifts_logical_not_physical(self):
        mapper = PositionalMapper()
        mapper.splice(3, 2)
        assert not mapper.pristine
        assert mapper.key_at(2) == 2       # above: untouched
        assert mapper.key_at(5) == 3       # below: same physical key
        assert mapper.key_at(100) == 98
        # The fresh rows got keys outside the identity space.
        assert mapper.key_at(3) >= LOGICAL_MAX
        assert mapper.key_at(4) >= LOGICAL_MAX
        assert len(mapper) == LOGICAL_MAX
        mapper.validate()

    def test_delete_frees_keys_and_reports_intervals(self):
        mapper = PositionalMapper()
        dropped = mapper.splice(2, -3)
        assert dropped == [(2, 4)]
        assert mapper.key_at(2) == 5       # shifted up
        assert mapper.position_of(3) is None    # freed key
        assert mapper.position_of(5) == 2
        assert len(mapper) == LOGICAL_MAX
        mapper.validate()

    def test_reverse_lookup_roundtrip_through_edits(self):
        mapper = PositionalMapper()
        for step in range(50):
            if step % 3 == 2:
                mapper.splice(step % 7, -(1 + step % 2))
            else:
                mapper.splice(step % 11, 1 + step % 3)
        mapper.validate()
        for pos in range(0, 300, 7):
            assert mapper.position_of(mapper.key_at(pos)) == pos

    def test_intervals_cover_range_in_order(self):
        mapper = PositionalMapper()
        mapper.splice(5, 2)
        spans = mapper.intervals(0, 9)
        # Contiguous logical coverage of [0, 9] in order.
        assert spans[0][2] == 0
        covered = sum(hi - lo + 1 for lo, hi, _ in spans)
        assert covered == 10
        logical_starts = [s[2] for s in spans]
        assert logical_starts == sorted(logical_starts)

    def test_out_of_universe_rejected(self):
        mapper = PositionalMapper()
        with pytest.raises(IndexError):
            mapper.key_at(-1)
        with pytest.raises(IndexError):
            mapper.key_at(LOGICAL_MAX)

    def test_insert_pushes_the_last_positions_out_of_the_universe(self):
        mapper = PositionalMapper()
        assert mapper.splice(0, 3) == [(LOGICAL_MAX - 3, LOGICAL_MAX - 1)]
        assert len(mapper) == LOGICAL_MAX
        assert mapper.key_at(LOGICAL_MAX - 1) == LOGICAL_MAX - 4
        assert mapper.position_of(LOGICAL_MAX - 1) is None
        mapper.validate()

    def test_delete_pads_the_end_with_fresh_keys(self):
        mapper = PositionalMapper()
        assert mapper.splice(0, -2) == [(0, 1)]
        assert len(mapper) == LOGICAL_MAX
        assert mapper.key_at(LOGICAL_MAX - 3) == LOGICAL_MAX - 1
        padding = mapper.key_at(LOGICAL_MAX - 1)
        assert padding >= LOGICAL_MAX
        assert mapper.position_of(padding) == LOGICAL_MAX - 1
        mapper.validate()

    def test_splice_counts(self):
        mapper = PositionalMapper()
        mapper.splice(0, 1)
        mapper.splice(0, -1)
        assert mapper.counts.splices == 2


def test_random_single_row_deletes_keep_the_treap_shallow():
    """A carved span's tail gets a fresh priority: 5 000 single-row deletes
    at random rows leave a treap whose lookups climb O(log s) links.  (With
    the tail inheriting its span's priority the treap became a chain and
    the splice recursion overflowed after ~1 100 deletes.)"""
    workbook = Workbook()
    rng = random.Random(22)
    for _ in range(5_000):
        workbook.delete_rows("Sheet1", rng.randrange(100_000), 1)
    mapper = workbook.sheet("Sheet1").store.rows
    mapper.validate()
    bound = 4 * math.log2(mapper.n_spans + 1)
    for pos in range(0, 100_000, 97):
        before = mapper.counts.rank_steps
        assert mapper.position_of(mapper.key_at(pos)) == pos
        assert mapper.counts.rank_steps - before <= bound


#: The default-like tile shape and one cell per tile.
TILE_SHAPES = [
    pytest.param((8, 4), id="grid"),
    pytest.param((1, 1), id="grid1x1"),
]


class TestCellStoreStructural:
    @pytest.mark.parametrize("tiles", TILE_SHAPES)
    def test_insert_moves_zero_cells(self, tiles):
        store = CellStore(*tiles)
        for row in range(100):
            store.set(row, 0, row)
        store.stats.reset()
        store.insert_rows(50, 5)
        assert store.stats.cells_moved == 0
        assert store.stats.cells_dropped == 0
        assert store.get(49, 0) == 49
        assert store.get(55, 0) == 50
        assert store.get(104, 0) == 99

    def test_delete_drops_only_removed_slice(self):
        store = CellStore()
        for row in range(100):
            store.set(row, 0, row)
        store.stats.reset()
        dropped = store.delete_rows(10, 3)
        assert dropped == 3
        assert store.stats.cells_dropped == 3
        assert store.stats.cells_moved == 0
        assert store.get(10, 0) == 13
        assert len(store) == 97

    def test_column_splice(self):
        store = CellStore()
        store.set(0, 10, "x")
        store.insert_cols(0, 4)
        assert store.get(0, 14) == "x"
        store.delete_cols(0, 4)
        assert store.get(0, 10) == "x"
        assert store.stats.cells_moved == 0

    @pytest.mark.parametrize("tiles", TILE_SHAPES)
    def test_used_bounds_agrees_with_brute_force(self, tiles):
        store = CellStore(*tiles)
        coords = [(3, 17), (40, 2), (9, 9), (77, 30), (5, 0)]
        for row, col in coords:
            store.set(row, col, "v")
        store.insert_rows(6, 3)
        store.delete_cols(1, 2)
        store.delete_rows(0, 1)
        brute = {(row, col) for row, col, _ in store.items()}
        rows = [r for r, _ in brute]
        cols = [c for _, c in brute]
        assert store.used_bounds() == (min(rows), min(cols), max(rows), max(cols))

    def test_used_bounds_empty_after_purge(self):
        store = CellStore()
        store.set(5, 5, "x")
        store.delete_rows(5, 1)
        assert len(store) == 0
        assert store.used_bounds() is None

    def test_range_query_after_splice_is_row_major(self):
        store = CellStore()
        for row in range(6):
            for col in range(3):
                store.set(row, col, (row, col))
        store.insert_rows(2, 2)
        hits = list(store.get_range(0, 0, 10, 10))
        assert [coord for coord in hits] == sorted(hits)
        assert {payload for _, _, payload in hits} == {
            (row, col) for row in range(6) for col in range(3)
        }

    def test_get_range_blocks_scanned_stays_local(self):
        """The E8 property survives the mapper: a viewport-sized range on a
        spliced sheet still touches only nearby blocks."""
        store = CellStore(tile_rows=8, tile_cols=4)
        for row in range(400):
            store.set(row, 0, row)
        store.insert_rows(100, 1)
        store.stats.reset()
        list(store.get_range(0, 0, 7, 3))
        assert store.stats.blocks_scanned <= 2
