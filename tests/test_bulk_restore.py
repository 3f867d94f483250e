"""Snapshot restore in bulk: the bottom-up B+-tree, ``Table.load`` and the
chain-by-chain dump.

A restored table must be the table a row-at-a-time restore would have
built — rows, positions, key indexes, page splits, encoding kinds and
zone maps — and the dump must be byte for byte the per-row one."""

from __future__ import annotations

import datetime as dt
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import persist
from repro.core.persist import workbook_from_dict, workbook_to_dict
from repro.core.workbook import Workbook
from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.store import _decode_page, _zone_of
from repro.engine.table import Table
from repro.engine.types import DBType
from repro.errors import ConstraintError, ExecutionError, StorageError
from repro.index.btree import BPlusTree

# -- the bottom-up tree ---------------------------------------------------------


def assert_tree_is(tree: BPlusTree, model: dict, probes) -> None:
    tree.validate()
    assert list(tree.items()) == sorted(model.items())
    assert len(tree) == sum(1 if tree.unique else len(v) for v in model.values())
    for key in probes:
        assert tree.get(key) == model.get(key)


@settings(max_examples=60, deadline=None)
@given(
    unique=st.booleans(),
    keys=st.lists(st.integers(0, 300), max_size=400),
    operations=st.lists(
        st.tuples(st.booleans(), st.integers(0, 300), st.integers(0, 10_000)),
        max_size=150,
    ),
)
def test_bottom_up_tree_agrees_with_a_sorted_dict(unique, keys, operations):
    if unique:
        keys = list(dict.fromkeys(keys))
    pairs = sorted(((key, rid) for rid, key in enumerate(keys)), key=lambda p: p[0])
    tree = BPlusTree.from_sorted([k for k, _ in pairs], [v for _, v in pairs], unique)
    model: dict = {}
    for key, rid in pairs:
        if unique:
            model[key] = rid
        else:
            model.setdefault(key, []).append(rid)
    probes = range(-1, 302)
    assert_tree_is(tree, model, probes)
    for is_insert, key, value in operations:
        if is_insert and unique and key in model:
            with pytest.raises(StorageError):
                tree.insert(key, value)
        elif is_insert:
            tree.insert(key, value)
            if unique:
                model[key] = value
            else:
                model.setdefault(key, []).append(value)
        elif unique:
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
        else:
            bucket = model.get(key)
            victim = bucket[value % len(bucket)] if bucket else value
            assert tree.delete(key, victim) == bool(bucket)
            if bucket:
                bucket.remove(victim)
                if not bucket:
                    del model[key]
    assert_tree_is(tree, model, probes)


def test_bottom_up_tree_spans_several_internal_levels():
    n = 40_000  # > 33 * 33 * 32 keys: leaves, two internal levels, a root
    tree = BPlusTree.from_sorted(range(0, 2 * n, 2), range(n), unique=True)
    tree.validate()
    depth, node = 0, tree._root
    while hasattr(node, "children"):
        depth, node = depth + 1, node.children[0]
    assert depth == 3
    assert [tree.get(key * 2) for key in range(0, n, 97)] == list(range(0, n, 97))
    assert tree.get(1) is None and tree.get(2 * n) is None
    assert [k for k, _ in tree.range_scan(1001, 1009)] == [1002, 1004, 1006, 1008]
    for key in range(1, 2000, 2):
        tree.insert(key, -key)
    for key in range(0, 4000, 4):
        assert tree.delete(key)
    tree.validate()
    assert len(tree) == n + 1000 - 1000


def test_bottom_up_tree_refuses_what_insert_refuses():
    with pytest.raises(StorageError, match="duplicate key 2"):
        BPlusTree.from_sorted([1, 2, 2], [0, 1, 2], unique=True)
    with pytest.raises(StorageError, match="NULL"):
        BPlusTree.from_sorted([None], [0], unique=False)
    tree = BPlusTree.from_sorted([1, 1.0, True, 3], [0, 1, 2, 3], unique=False)
    assert list(tree.items()) == [(1, [0, 1, 2]), (3, [3])]  # the first key object stays
    assert type(next(tree.keys())) is int
    assert len(BPlusTree.from_sorted([], [])) == 0


# -- live tables -----------------------------------------------------------------


def make_table(database: Database) -> Table:
    """Mixed types, NULL-able defaulted columns, two attribute groups, a
    unique and a non-unique secondary index."""
    schema = TableSchema(
        [
            Column("id", DBType.INTEGER, primary_key=True),
            Column("a", DBType.INTEGER, default=5),
            Column("b", DBType.TEXT),
            Column("c", DBType.REAL, default=1.5),
            Column("d", DBType.DATE),
        ],
        [["id", "a"], ["b", "c", "d"]],
    )
    table = database.create_table("t", schema)
    table.create_index("t_a", "a", unique=False)
    table.create_index("t_b", "b", unique=True)
    return table


VALUES = {
    "id": st.integers(0, 400),
    "a": st.one_of(st.none(), st.integers(-2, 2)),
    "b": st.one_of(st.none(), st.text("pq", max_size=3)),
    "c": st.one_of(st.none(), st.sampled_from([0.5, 2.0, -1.25]), st.integers(0, 3)),
    "d": st.one_of(st.none(), st.dates(dt.date(2020, 1, 1), dt.date(2020, 1, 4))),
}
ROW = st.tuples(*VALUES.values())
OPERATION = st.one_of(
    st.tuples(st.just("insert"), st.one_of(st.none(), st.integers(0, 200)), ROW),
    st.tuples(
        st.just("update"),
        st.integers(0, 200),
        st.sampled_from(["id", "a", "b", "c", "d"]).flatmap(
            lambda name: st.tuples(st.just(name), VALUES[name])
        ),
    ),
    st.tuples(st.just("delete"), st.integers(0, 200)),
    st.tuples(st.just("encode"), st.integers(0, 1)),
)


def run_dml(table: Table, seed_rows: int, operations) -> None:
    for index in range(seed_rows):  # enough rows for multi-page chains
        table.insert((1000 + index, index % 3, None, index % 2 or None, None))
    for kind, *args in operations:
        try:
            if kind == "insert":
                position, row = args
                table.insert(row, position=position)
            elif kind == "update" and len(table.positions):
                position, (name, value) = args
                position %= len(table.positions)
                if name != "id" or value is not None:
                    table.update_rid(table.rid_at(position), {name: value})
            elif kind == "delete" and len(table.positions):
                table.delete_at(args[0] % len(table.positions))
            elif kind == "encode":
                table.store.encode_group(args[0])
        except ConstraintError:
            pass  # refused whole: nothing changed


def live_workbook(seed_rows: int, operations, encode_last) -> Workbook:
    database = Database()
    table = make_table(database)
    run_dml(table, seed_rows, operations)
    if encode_last is not None:
        table.store.encode_group(encode_last)
    table.validate()
    return Workbook(database=database)


def round_trip(workbook: Workbook) -> Workbook:
    """A snapshot's life: dump, JSON, parse, restore."""
    return workbook_from_dict(json.loads(json.dumps(workbook_to_dict(workbook))))


def group_kinds(table: Table, group_index: int):
    chain = table.store._groups[group_index].chain
    if not chain or not table.store.group_encoded(group_index):
        return None
    enc = table.store.pool.get(chain[0]).header.get("enc")
    return enc and [kind for kind, _ in enc.cols]


def index_positions(table: Table, index) -> dict:
    """Index items with rids turned into presentation positions."""
    where = table.positions_of(table.store.rids())
    return {
        key: sorted(where[rid] for rid in (hit if isinstance(hit, list) else [hit]))
        for key, hit in index.tree.items()
    }


DML = dict(
    seed_rows=st.integers(0, 150),
    operations=st.lists(OPERATION, max_size=60),
    encode_last=st.sampled_from([None, 0, 1]),
)


@settings(max_examples=30, deadline=None)
@given(**DML)
def test_restore_equals_the_live_table(seed_rows, operations, encode_last):
    workbook = live_workbook(seed_rows, operations, encode_last)
    live = workbook.database.table("t")
    restored = round_trip(workbook).database.table("t")
    restored.validate()
    assert restored.rows() == live.rows()
    assert list(restored.positions) == list(range(live.n_rows))
    assert restored.positions.n_spans <= 1
    for mine, theirs in zip(restored.key_indexes(), live.key_indexes()):
        assert mine.name == theirs.name
        assert index_positions(restored, mine) == index_positions(live, theirs)
    # A chain encoded last and in presentation order is one the restore
    # rebuilds from the same columns: the same kinds.  (Live DML after an
    # encode thaws pages the restore encodes again.)
    store = live.store
    if (
        encode_last is not None
        and store.group_encoded(encode_last)
        and store._groups[encode_last].plain_pages == 0
        and store.rids() == list(live.positions)
    ):
        assert restored.store.group_encoded(encode_last)
        assert group_kinds(restored, encode_last) == group_kinds(live, encode_last)


def physical(table: Table):
    """Everything a page-for-page comparison looks at."""
    store = table.store
    groups = []
    for group in store._groups:
        pages = []
        for page_id in group.chain:
            page = store.pool.get(page_id)
            rids, columns, _, encoded = _decode_page(page, None)
            enc = page.header.get("enc")
            kinds = [kind for kind, _ in enc.cols] if enc else None
            zones = store._page_meta.get(page_id)
            if encoded:  # built with the page, from the values it holds
                assert zones == (len(rids), {i: _zone_of(c) for i, c in enumerate(columns)})
            pages.append((rids, columns, encoded, kinds, zones))
        groups.append((pages, group.encoded, group.ratio, group.enc_failed, group.plain_pages))
    indexes = [(i.name, i.unique, list(i.tree.items())) for i in table.key_indexes()]
    return groups, list(table.positions), indexes, store.n_rows, store.rids()


@settings(max_examples=30, deadline=None)
@given(**DML)
def test_restore_equals_row_at_a_time_inserts_plus_encode_group(
    seed_rows, operations, encode_last
):
    """The restore the bulk load replaced: one ``Table.insert`` per stored
    row into a table whose indexes already exist, so each tree grows key by
    key (a stored NULL is put back where the insert applied the DEFAULT),
    then ``encode_group`` on every flagged group."""
    workbook = live_workbook(seed_rows, operations, encode_last)
    payload = json.loads(json.dumps(workbook_to_dict(workbook)))
    (spec,) = payload["tables"]
    restored = workbook_from_dict(json.loads(json.dumps(payload))).database.table("t")

    reference = make_table(Database())
    assert reference.schema.groups == spec["groups"]
    defaults = [column.default for column in reference.schema.columns]
    for stored in spec["rows"]:
        row = [persist._decode_value(value) for value in stored]
        rid = reference.insert(row, emit=False)
        for column, value, default in zip(reference.column_names, row, defaults):
            if value is None and default is not None:
                reference.update_rid(rid, {column: None}, emit=False)
    for group_index, flags in enumerate(spec["encodings"]):
        if flags["encoded"]:
            reference.store.encode_group(group_index)
        elif flags["failed"]:
            reference.store._groups[group_index].enc_failed = True
    assert physical(restored) == physical(reference)


# -- the load and the dump -------------------------------------------------------


def test_load_never_goes_through_the_change_chokepoint(monkeypatch):
    workbook = live_workbook(80, [("encode", 0)], None)
    payload = json.loads(json.dumps(workbook_to_dict(workbook)))
    calls = []
    real_change = Table._change

    def spy(self, *args, **kwargs):
        calls.append(args)
        return real_change(self, *args, **kwargs)

    monkeypatch.setattr(Table, "_change", spy)
    restored = workbook_from_dict(payload).database.table("t")
    assert restored.n_rows == 80
    assert calls == []


@settings(max_examples=20, deadline=None)
@given(**DML)
def test_dump_is_the_per_row_dump(seed_rows, operations, encode_last):
    workbook = live_workbook(seed_rows, operations, encode_last)
    table = workbook.database.table("t")
    dumped = workbook_to_dict(workbook)
    (spec,) = dumped["tables"]
    per_row = [
        [persist._encode_value(value) for value in table.store.read_row(rid)]
        for rid in table.positions
    ]
    assert spec["rows"] == per_row
    spec["rows"] = per_row
    assert json.dumps(workbook_to_dict(workbook)) == json.dumps(dumped)


class TestTableLoad:
    @pytest.fixture
    def table(self):
        return make_table(Database())

    def test_a_stored_null_is_not_the_default(self, table):
        table.load([(1, None, "x", None, None), (2, 7, None, 2, "2020-01-02")])
        assert table.rows() == [
            (1, None, "x", None, None),
            (2, 7, None, 2.0, dt.date(2020, 1, 2)),
        ]
        assert table.indexes["t_a"].tree.get(7) == [1]
        table.validate()

    def test_refuses_a_table_with_rows(self, table):
        table.insert((1, 1, None, None, None))
        with pytest.raises(StorageError, match="not empty"):
            table.load([(2, 2, None, None, None)])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(1, 0, "x", 0, None), (2, 0, "y", 0, None), (1, 0, "z", 0, None)],
             "duplicate primary key 1 in table 't'"),
            ([(1, 0, "x", 0, None), (2, 0, "y", 0, None), (3, 0, "x", 0, None)],
             "duplicate key 'x' violates unique index 't_b'"),
            ([(1, 0, None, 0, None), (None, 0, None, 0, None)],
             "column 'id' of table 't' is NOT NULL"),
        ],
    )
    def test_a_violation_raises_what_insert_raises_and_loads_nothing(
        self, table, rows, message
    ):
        fresh = make_table(Database())
        with pytest.raises(ConstraintError, match=message):
            for row in rows:
                fresh.insert(row)
        events = []
        table.listeners.append(events.append)
        with pytest.raises(ConstraintError, match=message):
            table.load(rows)
        assert table.n_rows == 0 and len(table.positions) == 0
        assert all(len(index.tree) == 0 for index in table.key_indexes())
        assert events == []
        table.load(rows[:1])  # still loadable: nothing was installed
        table.validate()

    def test_the_first_repeat_in_row_order_is_reported(self, table):
        rows = [(3, 0, None, 0, None), (9, 0, None, 0, None), (9, 0, None, 0, None),
                (3, 0, None, 0, None)]
        with pytest.raises(ConstraintError, match="duplicate primary key 9"):
            table.load(rows)

    def test_a_short_row_is_refused(self, table):
        with pytest.raises(ExecutionError, match="expects 5 values, got 4"):
            table.load([(1, 0, None, 0)])

    def test_values_coerce_as_an_insert_coerces_them(self, table):
        rows = [("7", 1.0, 12, "2.5", dt.datetime(2020, 1, 3, 4, 5)), (8, True, "q", 1, None)]
        table.load(rows)
        fresh = make_table(Database())
        for row in rows:
            fresh.insert(row)
        assert table.rows() == fresh.rows()
        assert [type(value) for value in table.rows()[0]] == [int, int, str, float, dt.date]
