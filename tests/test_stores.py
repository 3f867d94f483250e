"""Unit tests for the three physical layouts (row / column / hybrid).

The schema-change cost table from the hybridstore docstring is verified
here at page granularity — the core of experiment E6.
"""

import pytest

from repro.engine.encoding import EncodedPage, encoded_size
from repro.engine.expr import IntervalSet
from repro.engine.pager import BufferPool
from repro.engine.schema import Column, TableSchema
from repro.engine.store import GroupedTupleStore, LayoutPolicy
from repro.engine.types import DBType
from repro.errors import SchemaError, StorageError


def schema4(group_size=None):
    return TableSchema.from_pairs(
        [("a", DBType.INTEGER), ("b", DBType.TEXT), ("c", DBType.REAL), ("d", DBType.TEXT)],
        group_size=group_size,
    )


def fill(store, n):
    return [store.insert((i, f"t{i}", i * 0.5, f"u{i}")) for i in range(n)]


def make_store(layout, pool=None):
    """A store over ``schema4``; HYBRID keeps the schema's own width-2
    groups, ROW and COLUMN regroup it to their extreme."""
    group_size = 2 if layout is LayoutPolicy.HYBRID else None
    return GroupedTupleStore(
        schema4(group_size), pool=pool, layout=layout, page_capacity=8
    )


ROW, COLUMN, HYBRID = LayoutPolicy.ROW, LayoutPolicy.COLUMN, LayoutPolicy.HYBRID


@pytest.mark.parametrize("layout", list(LayoutPolicy), ids=lambda layout: layout.value)
class TestCommonBehaviour:
    def test_insert_get_roundtrip(self, layout):
        store = make_store(layout)
        rids = fill(store, 20)
        for i, rid in enumerate(rids):
            assert store.get(rid) == (i, f"t{i}", i * 0.5, f"u{i}")

    def test_n_rows(self, layout):
        store = make_store(layout)
        fill(store, 5)
        assert store.n_rows == 5

    def test_update_full_row(self, layout):
        store = make_store(layout)
        rids = fill(store, 3)
        store.update(rids[1], (99, "new", 9.9, "z"))
        assert store.get(rids[1]) == (99, "new", 9.9, "z")
        assert store.get(rids[0])[0] == 0

    def test_update_single_column(self, layout):
        store = make_store(layout)
        rids = fill(store, 3)
        store.update_column(rids[2], "b", "patched")
        assert store.get(rids[2]) == (2, "patched", 1.0, "u2")

    def test_delete(self, layout):
        store = make_store(layout)
        rids = fill(store, 4)
        store.delete(rids[1])
        assert store.n_rows == 3
        assert not store.exists(rids[1])
        with pytest.raises(StorageError):
            store.get(rids[1])

    def test_scan_yields_all_rows(self, layout):
        store = make_store(layout)
        rids = fill(store, 10)
        scanned = dict(store.scan())
        assert set(scanned) == set(rids)
        assert scanned[rids[3]] == (3, "t3", 1.5, "u3")

    def test_scan_one_column(self, layout):
        store = make_store(layout)
        fill(store, 6)
        values = [value for _, (value,) in store.scan_groups(["a"])]
        assert sorted(values) == list(range(6))

    def test_add_column_values_default(self, layout):
        store = make_store(layout)
        rids = fill(store, 5)
        store.add_column(Column("e", DBType.INTEGER, default=7))
        for rid in rids:
            assert store.get(rid) == store.get(rid)[:4] + (7,)

    def test_drop_column(self, layout):
        store = make_store(layout)
        rids = fill(store, 5)
        store.drop_column("c")
        assert store.get(rids[0]) == (0, "t0", "u0")

    def test_rename_column_metadata_only(self, layout):
        store = make_store(layout)
        fill(store, 2)
        before = store.pool.stats.snapshot()
        store.checkpoint()
        baseline_writes = store.pool.stats.writes
        store.rename_column("b", "bee")
        store.checkpoint()
        assert store.pool.stats.writes == baseline_writes  # nothing rewritten
        assert store.schema.has_column("bee")

    def test_validate_passes(self, layout):
        store = make_store(layout)
        fill(store, 25)
        store.delete(store.rids()[3])
        store.validate()

    def test_insert_after_schema_change(self, layout):
        store = make_store(layout)
        fill(store, 3)
        store.add_column(Column("e", DBType.TEXT, default="?"))
        rid = store.insert((9, "x", 0.0, "y", "z"))
        assert store.get(rid) == (9, "x", 0.0, "y", "z")
        store.validate()


class TestLayoutCosts:
    """The E6 cost model at page granularity."""

    def test_row_store_add_column_rewrites_all_pages(self):
        store = make_store(ROW)
        fill(store, 80)  # width 4, 8-value pages -> 2 rows/page -> 40 pages
        total_pages = store.n_pages
        rewritten = store.add_column(Column("e", default=0))
        assert rewritten == total_pages == 40

    def test_column_store_add_column_rewrites_nothing(self):
        store = make_store(COLUMN)
        fill(store, 80)
        rewritten = store.add_column(Column("e", default=0))
        assert rewritten == 0

    def test_hybrid_add_column_new_group_rewrites_nothing(self):
        store = make_store(HYBRID)
        fill(store, 80)
        rewritten = store.add_column(Column("e", default=0))
        assert rewritten == 0
        assert store.schema.groups[-1] == ["e"]

    def test_hybrid_add_column_into_group_rewrites_one_group(self):
        store = make_store(HYBRID)
        fill(store, 80)  # width-2 groups, 4 rows/page -> 20 pages/group
        pages_before = store.pages_in_group(1)
        rewritten = store.add_column(Column("e", default=0), group_index=1)
        assert rewritten == pages_before == 20
        assert rewritten < store.n_pages  # strictly less than a full rewrite

    def test_row_store_drop_column_rewrites_all_pages(self):
        store = make_store(ROW)
        fill(store, 80)
        assert store.drop_column("b") == 40  # every page of the sole group

    def test_column_store_drop_column_frees_chain(self):
        store = make_store(COLUMN)
        fill(store, 80)
        frees_before = store.pool.stats.frees
        assert store.drop_column("b") == 0
        assert store.pool.stats.frees > frees_before

    def test_fresh_chain_blocks_cheaper_than_rewrite(self):
        """The block-budget model: a fresh single-column chain packs
        page_capacity records per block, so ADD COLUMN via a new group
        writes ~width× fewer blocks than the row store's full rewrite."""
        row_store = make_store(ROW)
        hybrid = make_store(HYBRID)
        fill(row_store, 80)
        fill(hybrid, 80)
        row_store.checkpoint()
        hybrid.checkpoint()
        rw0 = row_store.pool.stats.writes
        hw0 = hybrid.pool.stats.writes
        row_store.add_column(Column("e", default=0))
        hybrid.add_column(Column("e", default=0))
        row_store.checkpoint()
        hybrid.checkpoint()
        row_blocks = row_store.pool.stats.writes - rw0
        hybrid_blocks = hybrid.pool.stats.writes - hw0
        assert row_blocks == 40          # full rewrite (now 5-wide rows)
        assert hybrid_blocks == 10       # fresh width-1 chain: 8 recs/page
        assert hybrid_blocks * 4 == row_blocks

    def test_hybrid_drop_sole_member_rewrites_nothing(self):
        store = make_store(HYBRID)
        fill(store, 40)
        store.add_column(Column("e", default=1))  # own group
        assert store.drop_column("e") == 0
        store.validate()

    def test_single_column_update_touches_one_group(self):
        """Tuple-update parity: updating one column in the hybrid layout
        dirties only that column's group chain."""
        store = make_store(HYBRID)
        rids = fill(store, 16)
        store.checkpoint()
        before = store.pool.stats.writes
        store.update_column(rids[0], "a", 999)
        store.checkpoint()
        assert store.pool.stats.writes - before == 1

    def test_row_insert_cost_scales_with_groups(self):
        """An insert touches one page per group: the hybrid trade-off."""
        row_store = make_store(ROW)
        column_store = make_store(COLUMN)
        fill(row_store, 8)
        fill(column_store, 8)
        row_store.checkpoint()
        column_store.checkpoint()
        rw0 = row_store.pool.stats.writes
        cw0 = column_store.pool.stats.writes
        row_store.insert((1, "x", 0.1, "y"))
        column_store.insert((1, "x", 0.1, "y"))
        row_store.checkpoint()
        column_store.checkpoint()
        assert row_store.pool.stats.writes - rw0 == 1
        assert column_store.pool.stats.writes - cw0 == 4


class TestHybridCompaction:
    def test_compact_groups_repartitions(self):
        store = make_store(HYBRID)
        rids = fill(store, 20)
        store.add_column(Column("e", default=5))
        store.restructure([["a", "b", "c", "d", "e"]])
        assert store.schema.n_groups == 1
        assert store.n_pages == 20  # one 5-wide record per 8-value page
        for i, rid in enumerate(rids):
            assert store.get(rid) == (i, f"t{i}", i * 0.5, f"u{i}", 5)
        store.validate()

    def test_compact_rejects_wrong_cover(self):
        store = make_store(HYBRID)
        fill(store, 4)
        with pytest.raises(SchemaError):
            store.restructure([["a", "b"]])

    def test_compact_crash_mid_rebuild_leaves_store_intact(self, monkeypatch):
        """Regression: compaction used to free every page *before*
        rebuilding, so a failure mid-rebuild corrupted the store.  With
        build-then-swap-then-free, an injected crash at any allocation
        leaves data, layout and directory exactly as they were."""
        store = make_store(HYBRID)
        rids = fill(store, 20)
        before_rows = [store.read_row(rid) for rid in rids]
        before_groups = store.schema.groups
        before_pages = store.pool.disk.n_pages
        real_new_page = BufferPool.new_page
        # Crash at every possible allocation point of the rebuild.
        crash_at = 0
        while True:
            calls = {"n": 0}

            def exploding_new_page(pool, tag=None, _limit=crash_at):
                if calls["n"] >= _limit:
                    raise RuntimeError("injected crash mid-rebuild")
                calls["n"] += 1
                return real_new_page(pool, tag)

            monkeypatch.setattr(BufferPool, "new_page", exploding_new_page)
            try:
                store.restructure([["a", "b", "c", "d"]])
                monkeypatch.setattr(BufferPool, "new_page", real_new_page)
                break  # enough allocations allowed: compaction succeeded
            except RuntimeError:
                monkeypatch.setattr(BufferPool, "new_page", real_new_page)
                # Every crash point must leave a fully usable store.
                store.validate()
                assert store.schema.groups == before_groups
                assert [store.read_row(rid) for rid in rids] == before_rows
                # Staged pages were released — no leaked allocations.
                assert store.pool.disk.n_pages == before_pages
            crash_at += 1
        # And once no crash fires, the compaction itself still works.
        assert store.schema.groups == [["a", "b", "c", "d"]]
        assert [store.read_row(rid) for rid in rids] == before_rows
        store.validate()

    def test_group_summary(self):
        store = make_store(HYBRID)
        fill(store, 20)
        summary = store.group_summary()
        assert len(summary) == 2
        assert summary[0]["columns"] == ["a", "b"]
        assert summary[0]["pages"] >= 1

    def test_restructure_keeps_no_counters_for_dead_groups(self):
        """Regression: every restructure mints fresh group ids and releases
        the dead groups' pager tags, but their skip/scan counters used to
        stay behind, one entry per dead group, forever."""
        store = make_store(HYBRID)
        fill(store, 400)
        groupings = ([["a"], ["b"], ["c", "d"]], [["a", "b"], ["c", "d"]])
        sizes = []
        for cycle in range(50):
            store.restructure(groupings[cycle % 2])
            list(store.scan_groups(["a", "b", "c", "d"]))
            sizes.append(
                {
                    name: len(value)
                    for name, value in vars(store).items()
                    if isinstance(value, dict)
                }
            )
        # Same grouping, same live pages: nothing store-wide may grow.
        assert sizes[-1] == sizes[1]
        assert store.pool.stats_snapshot()["pager_tags"] == store.n_groups == 2
        # ["a", "b"] was rebuilt by the last restructure and scanned once;
        # ["c", "d"] kept its record through all 50 and was scanned 50 times.
        assert [store.group_skip_stats(i)["pages_scanned"] for i in range(2)] == [
            store.pages_in_group(0),
            50 * store.pages_in_group(1),
        ]
        store.validate()

    def test_validate_checks_each_groups_plain_page_count(self):
        store = make_store(HYBRID)
        fill(store, 40)
        assert store.encode_group(0) > 0
        fill(store, 10)  # plain tail pages after the encoded prefix
        store.validate()
        store._groups[0].plain_pages += 1
        with pytest.raises(StorageError, match="plain pages"):
            store.validate()


#: Logical I/O of :func:`run_pinned_script` per layout: per-group
#: ``group_io_snapshot`` rows (values in IOStats field order), store
#: counters, ``encoding_snapshot`` rows, ``group_skip_stats`` rows, and
#: ``snapshot_stats`` while a scan is held open and after it finishes.
PINNED_IO = {
    ROW: dict(
        group_io=[(58, 34, 34, 27, 1734, 302), (238, 102, 102, 2, 2160, 0)],
        counters=(98, 16, 10784),
        encoding=[(True, 4.0, False), (False, 1.0, False)],
        skip=[(4, 28, 0.125), (64, 136, 0.32)],
        held=(3, 1, 4, 0),
        released=(4, 0, 0, 0),
    ),
    COLUMN: dict(
        group_io=[(104, 67, 41, 34, 1334, 574), (238, 102, 102, 2, 2160, 0)],
        counters=(88, 16, 5670),
        encoding=[(True, 4.0, False), (False, 1.0, False)],
        skip=[(8, 20, 0.286), (64, 136, 0.32)],
        held=(3, 1, 3, 0),
        released=(4, 0, 0, 0),
    ),
    HYBRID: dict(
        group_io=[(58, 34, 34, 27, 1734, 302), (238, 102, 102, 2, 2160, 0)],
        counters=(110, 16, 7174),
        encoding=[(True, 4.0, False), (False, 1.0, False)],
        skip=[(4, 28, 0.125), (64, 136, 0.32)],
        held=(3, 1, 4, 0),
        released=(4, 0, 0, 0),
    ),
}


def run_pinned_script(layout):
    """One fixed script over every store mutator: bulk insert, encode,
    a skipping scan, thawing update/delete, ADD COLUMN into a fresh and
    an existing group, DROP COLUMN of a sole and a shared member,
    restructure, and writes while a scan's snapshot is open."""
    pool = BufferPool(capacity=6, page_capacity=8)
    group_size = 2 if layout is HYBRID else None
    store = GroupedTupleStore(schema4(group_size), pool=pool, layout=layout)
    rids = [store.insert((i, f"t{i % 4}", i * 0.5, f"u{i % 3}")) for i in range(200)]
    assert store.encode_group(0) > 0
    tail = {"a": IntervalSet([(150, True, None, False)])}
    assert len(list(store.scan_groups(["a", "c"]))) == 200
    list(store.scan_group_batches(["a", "c"], predicate_ranges=tail))
    store.update(rids[2], (2, "t9", 1.0, "u9"))
    store.delete(rids[160])
    store.add_column(Column("e", DBType.INTEGER, default=1))
    store.add_column(Column("f", DBType.INTEGER, default=2), group_index=0, new_group=False)
    store.drop_column("e")
    store.drop_column("b")
    store.restructure([["a"], ["c", "d", "f"]])
    open_scan = store.scan_group_batches(["a", "d"], batch_size=16)
    next(open_scan)
    store.update(rids[1], (1, 0.5, "x", 7))
    store.delete(rids[0])
    store.insert((999, 9.5, "y", 8))
    held = store.snapshot_stats()
    list(open_scan)
    store.encode_group(0)
    list(store.scan_group_batches(["a", "d"], predicate_ranges=tail))
    store.validate()
    return store, held


@pytest.mark.parametrize("layout", list(LayoutPolicy), ids=lambda layout: layout.value)
def test_logical_io_of_a_fixed_script_is_pinned(layout):
    store, held = run_pinned_script(layout)
    expected = PINNED_IO[layout]
    group_io = store.group_io_snapshot()
    assert all(
        list(entry) == ["reads", "writes", "allocations", "frees", "bytes_read", "bytes_written"]
        for entry in group_io
    )
    assert [tuple(entry.values()) for entry in group_io] == expected["group_io"]
    counters = (store.pages_skipped, store.batches_emitted, store.bytes_decoded)
    assert counters == expected["counters"]
    encoding = store.encoding_snapshot()
    assert all(list(entry) == ["encoded", "ratio", "failed"] for entry in encoding)
    assert [tuple(entry.values()) for entry in encoding] == expected["encoding"]
    skip = [tuple(store.group_skip_stats(i).values()) for i in range(store.n_groups)]
    assert skip == expected["skip"]
    assert tuple(held.values()) == expected["held"]
    assert tuple(store.snapshot_stats().values()) == expected["released"]


def _assert_frozen(value):
    """``value`` is immutable all the way down: tuples and bytes whose
    items cannot be assigned, over scalars."""
    if isinstance(value, (tuple, bytes)):
        if value:
            with pytest.raises(TypeError):
                value[0] = value[0]  # type: ignore[index]
        if isinstance(value, tuple):
            for item in value:
                _assert_frozen(item)
    else:
        assert value is None or isinstance(value, (bool, int, float, str)), value


class TestFrameIsolation:
    """The disk and the buffer frames share page images without copying
    them: a frame's records list and header dict are its own, and
    everything inside them is immutable."""

    def encoded_store(self):
        pool = BufferPool(page_capacity=8)
        store = GroupedTupleStore(schema4(), pool=pool, layout=ROW)
        for i in range(64):
            store.insert((i, f"k{i % 3}", float(i // 16), f"unique-{i}"))
        assert store.encode_group(0) > 0
        store.insert((64, "k0", 4.0, "tail"))  # a plain tail page
        pool.flush_all()
        chain = store._groups[0].chain
        return store, pool.disk, chain[0], chain[-1]

    @staticmethod
    def image(disk, page_id):
        page = disk.read(page_id)
        return list(page.records), dict(page.header)

    def test_every_encoding_kind_is_a_frozen_payload(self):
        store, disk, encoded_id, _ = self.encoded_store()
        enc = disk.read(encoded_id).header["enc"]
        assert isinstance(enc, EncodedPage)
        assert sorted(kind for kind, _ in enc.cols) == ["dict", "packed", "plain", "rle"]
        for field_name in enc._fields:
            with pytest.raises(AttributeError):
                setattr(enc, field_name, getattr(enc, field_name))
            _assert_frozen(getattr(enc, field_name))
        for kind, payload in enc.cols:
            assert encoded_size(len(enc.rids), kind, payload) > 0

    def test_mutating_a_read_frame_leaves_the_disk_image(self):
        store, disk, encoded_id, plain_id = self.encoded_store()
        for page_id in (encoded_id, plain_id):
            before = self.image(disk, page_id)
            frame = disk.read(page_id)
            store._thaw_page(0, frame)  # pops "enc", rebuilds the records
            frame.records.append((999, (1, "x", 1.0, "y")))
            frame.records[0] = (-1, ())
            frame.header["junk"] = True
            assert self.image(disk, page_id) == before
        assert "enc" in disk.read(encoded_id).header
        assert not disk.read(encoded_id).records

    def test_mutating_a_frame_after_its_write_leaves_the_disk_image(self):
        store, disk, encoded_id, plain_id = self.encoded_store()
        for page_id in (encoded_id, plain_id):
            frame = disk.read(page_id)
            store._thaw_page(0, frame)
            frame.records.append((999, (1, "x", 1.0, "y")))
            disk.write(frame)
            written = self.image(disk, page_id)
            assert written[0][-1] == (999, (1, "x", 1.0, "y"))
            assert "enc" not in written[1]
            frame.records.pop()
            frame.records[0] = (-1, ())
            frame.header["enc"] = "junk"
            assert self.image(disk, page_id) == written


class TestSharedPool:
    def test_two_stores_share_io_accounting(self):
        pool = BufferPool(page_capacity=8)
        first = make_store(ROW, pool=pool)
        second = make_store(ROW, pool=pool)
        fill(first, 8)
        fill(second, 8)
        assert pool.disk.stats.allocations >= 2
