"""Unit tests for the Table abstraction: positional order, key index,
change events."""

import random
import threading

import pytest

from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.store import LayoutPolicy
from repro.engine.table import ChangeEvent, Table
from repro.engine.types import DBType
from repro.errors import ConstraintError, ExecutionError, SchemaError, StorageError
from repro.index.posmap import KeySequence


def make_table(pk=True):
    schema = TableSchema.from_pairs(
        [("id", DBType.INTEGER), ("name", DBType.TEXT)],
        primary_key="id" if pk else None,
    )
    return Table("t", schema)


class TestPositionalOrder:
    def test_append_order(self):
        table = make_table()
        for i in range(5):
            table.insert((i, f"n{i}"))
        assert [row[0] for row in table.rows()] == [0, 1, 2, 3, 4]

    def test_insert_at_position(self):
        table = make_table()
        table.insert((1, "a"))
        table.insert((2, "b"))
        table.insert((9, "mid"), position=1)
        assert [row[0] for row in table.rows()] == [1, 9, 2]

    def test_row_at_and_rid_at(self):
        table = make_table()
        rid = table.insert((7, "x"))
        assert table.rid_at(0) == rid
        assert table.row_at(0) == (7, "x")

    def test_window(self):
        table = make_table()
        for i in range(100):
            table.insert((i, f"n{i}"))
        window = table.window(40, 5)
        assert [row[0] for row in window] == [40, 41, 42, 43, 44]

    def test_window_clamps(self):
        table = make_table()
        table.insert((1, "a"))
        assert table.window(5, 10) == []

    def test_delete_at_shifts_positions(self):
        table = make_table()
        for i in range(4):
            table.insert((i, str(i)))
        table.delete_at(1)
        assert [row[0] for row in table.rows()] == [0, 2, 3]
        assert table.row_at(1) == (2, "2")

    def test_scan_yields_positions(self):
        table = make_table()
        for i in range(3):
            table.insert((i, str(i)))
        positions = [pos for pos, _, _ in table.scan()]
        assert positions == [0, 1, 2]


class TestPrimaryKey:
    def test_find_by_key(self):
        table = make_table()
        rid = table.insert((42, "x"))
        assert table.find_by_key(42) == rid
        assert table.find_by_key(99) is None

    def test_no_pk_find_raises(self):
        table = make_table(pk=False)
        table.insert((1, "a"))
        with pytest.raises(ExecutionError):
            table.find_by_key(1)

    def test_update_changes_key_index(self):
        table = make_table()
        rid = table.insert((1, "a"))
        table.update_rid(rid, {"id": 5})
        assert table.find_by_key(5) == rid
        assert table.find_by_key(1) is None

    def test_delete_removes_key(self):
        table = make_table()
        table.insert((1, "a"))
        table.delete_at(0)
        assert table.find_by_key(1) is None

    def test_not_null_enforced_on_update(self):
        table = make_table()
        rid = table.insert((1, "a"))
        with pytest.raises(ConstraintError):
            table.update_rid(rid, {"id": None})


class TestEvents:
    def collect(self, table):
        events = []
        table.listeners.append(events.append)
        return events

    def test_insert_event(self):
        table = make_table()
        events = self.collect(table)
        table.insert((1, "a"))
        assert events[0].kind == "insert"
        assert events[0].position == 0
        assert events[0].row == (1, "a")

    def test_update_event_carries_old_row(self):
        table = make_table()
        rid = table.insert((1, "a"))
        events = self.collect(table)
        table.update_rid(rid, {"name": "b"}, position=0)
        assert events[0].kind == "update"
        assert events[0].old_row == (1, "a")
        assert events[0].row == (1, "b")

    def test_delete_event(self):
        table = make_table()
        table.insert((1, "a"))
        events = self.collect(table)
        table.delete_at(0)
        assert events[0].kind == "delete"
        assert events[0].old_row == (1, "a")

    def test_schema_events(self):
        table = make_table()
        events = self.collect(table)
        table.add_column(Column("x", DBType.INTEGER))
        table.rename_column("x", "y")
        table.drop_column("y")
        assert [e.kind for e in events] == ["add_column", "rename_column", "drop_column"]

    def test_emit_false_suppresses(self):
        table = make_table()
        events = self.collect(table)
        table.insert((1, "a"), emit=False)
        assert events == []

    def test_delete_rids_bulk(self):
        table = make_table()
        rids = [table.insert((i, str(i))) for i in range(5)]
        events = self.collect(table)
        deleted = table.delete_rids([rids[1], rids[3]])
        assert deleted == 2
        assert [row[0] for row in table.rows()] == [0, 2, 4]
        assert all(e.kind == "delete" for e in events)


class TestValidation:
    def test_validate_full_consistency(self):
        table = make_table()
        for i in range(50):
            table.insert((i, str(i)))
        table.delete_at(10)
        table.update_rid(table.rid_at(5), {"name": "patched"}, position=5)
        table.validate()

    def test_single_column_update_uses_group_path(self):
        schema = TableSchema.from_pairs(
            [("id", DBType.INTEGER), ("a", DBType.TEXT), ("b", DBType.TEXT)],
            primary_key="id",
            group_size=1,
        )
        table = Table("g", schema, LayoutPolicy.HYBRID)
        rid = table.insert((1, "x", "y"))
        table.checkpoint()
        before = table.store.pool.stats.writes
        table.update_rid(rid, {"b": "z"})
        table.checkpoint()
        assert table.store.pool.stats.writes - before == 1


class TestOneWritePath:
    """Every row change is one ``Table._change``: all constraints checked
    before anything is written, everything written under one lock."""

    def test_rejected_update_leaves_every_index_untouched(self):
        table = make_table()
        table.create_index("u_name", "name", unique=True)
        first = table.insert((1, "a"))
        table.insert((2, "b"))
        # The primary key would accept 5; the unique index refuses "b".
        with pytest.raises(ConstraintError):
            table.update_rid(first, {"id": 5, "name": "b"})
        assert table.find_by_key(1) == first
        assert table.find_by_key(5) is None
        with pytest.raises(ConstraintError):
            table.insert((1, "c"))
        assert table.rows() == [(1, "a"), (2, "b")]
        table.validate()

    def test_rejected_insert_writes_nothing(self):
        table = make_table()
        table.insert((1, "a"))
        for bad, position in [((1, "dup"), None), ((2, "b"), -1)]:
            with pytest.raises((ConstraintError, ExecutionError)):
                table.insert(bad, position=position)
        assert table.rows() == [(1, "a")] and table.n_rows == 1
        table.validate()

    def test_primary_key_is_a_key_index(self):
        table = make_table()
        rid = table.insert((7, "x"))
        index = table.index_for("id")
        assert index is table.primary_index and index.unique
        assert index.tree.get(7) == rid
        assert table.indexes == {}  # not a named (droppable, persisted) one
        table.rename_column("id", "key")
        assert table.index_for("key") is index and table.find_by_key(7) == rid
        # Its name is taken, in any spelling.
        with pytest.raises(SchemaError):
            table.create_index("primary", "name", unique=False)

    @pytest.mark.parametrize("name", ["PRIMARY", "u_name", "by_name"])
    def test_validate_compares_index_entries_not_sizes(self, name):
        table = make_table()
        table.create_index("u_name", "name", unique=True)
        table.create_index("by_name", "name", unique=False)
        rids = [table.insert((i, f"n{i}")) for i in range(4)]
        table.validate()
        # Same number of entries, wrong content: re-point one key.
        index = {i.name: i for i in table.key_indexes()}[name]
        key = 0 if name == "PRIMARY" else "n0"
        index.tree.delete(key, None if index.unique else rids[0])
        index.tree.insert(-1 if name == "PRIMARY" else "zz", rids[0])
        with pytest.raises(StorageError):
            table.validate()

    def test_validate_compares_positional_entries_not_counts(self):
        table = make_table()
        rids = [table.insert((i, f"n{i}")) for i in range(4)]
        table.delete_at(3)
        table.validate()
        # Same number of entries, wrong content: a dead rid for a live one.
        table.positions.delete(0)
        table.positions.insert(0, rids[3])
        with pytest.raises(StorageError):
            table.validate()

    @pytest.mark.parametrize("mutator", ["insert", "delete"])
    def test_scan_from_another_thread_never_sees_half_a_change(
        self, monkeypatch, mutator
    ):
        """The positional index is written mid-change; a scan opened right
        then must wait for the change to finish, not report a rid the two
        structures disagree on."""
        table = make_table()
        for i in range(5):
            table.insert((i, str(i)))
        seen = {}

        def scan():
            try:
                seen["rows"] = list(table.scan())
            except Exception as error:  # noqa: BLE001 - reported below
                seen["error"] = error

        real = getattr(KeySequence, mutator)

        def racing(self, *args):
            result = real(self, *args)
            reader = threading.Thread(target=scan)
            reader.start()
            reader.join(timeout=0.2)
            seen["blocked"] = reader.is_alive()
            seen["thread"] = reader
            return result

        monkeypatch.setattr(KeySequence, mutator, racing)
        if mutator == "insert":
            table.insert((5, "5"))
            expected = [0, 1, 2, 3, 4, 5]
        else:
            table.delete_at(2)
            expected = [0, 1, 3, 4]
        seen["thread"].join(timeout=5)
        assert not seen["thread"].is_alive()
        assert "error" not in seen, seen.get("error")
        assert seen["blocked"], "the scan ran inside the half-applied change"
        assert [row[0] for _, _, row in seen["rows"]] == expected
        assert [p for p, _, _ in seen["rows"]] == list(range(len(expected)))
        table.validate()


class TestRidToPosition:
    """``positions_of`` is a climb per rid, never a walk of the index."""

    @staticmethod
    def oracle(table, rids):
        wanted = set(rids)
        return [(rid, pos) for pos, rid in enumerate(table.positions) if rid in wanted]

    def test_matches_the_enumerate_oracle_under_a_seeded_mix(self):
        rng = random.Random(15)
        db = Database()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        table = db.table("t")
        ever = [table.insert((key, 0)) for key in range(200)]
        next_key = 200

        def check():
            probe = ever + ever[:7] + [10**9]  # duplicates and a rid never issued
            assert list(table.positions_of(probe).items()) == self.oracle(table, ever)
            table.validate()

        check()
        for step in range(120):
            action = step % 5
            live = [row[0] for row in table.rows()]
            if action == 0:  # positional insert into the middle
                ever.append(table.insert((next_key, step), position=rng.randrange(len(live) + 1)))
                next_key += 1
            elif action == 1:
                db.execute("UPDATE t SET v = ? WHERE id = ?", (step, rng.choice(live)))
            elif action == 2:
                doomed = rng.sample(live, 3)
                db.execute(f"DELETE FROM t WHERE id IN ({doomed[0]}, {doomed[1]}, {doomed[2]})")
            elif action == 3:  # the insert is undone by rid, wherever it is by then
                db.execute("BEGIN")
                db.execute(f"INSERT INTO t VALUES ({next_key}, -1), ({next_key + 1}, -1)")
                ever.extend(table.find_by_key(key) for key in (next_key, next_key + 1))
                db.execute(f"DELETE FROM t WHERE id = {rng.choice(live)}")
                db.execute("ROLLBACK")
                next_key += 2
            else:
                dead = next(rid for rid in ever if not table.store.exists(rid))
                alive = [table.rid_at(rng.randrange(table.n_rows)) for _ in range(2)]
                assert table.delete_rids(alive + alive[:1] + [dead]) == len(set(alive))
            check()
        assert table.positions_of([]) == {}

    def test_point_statements_never_walk_the_index(self, monkeypatch):
        """The guard: with the walk every whole-order read is built on
        patched to raise, an indexed point UPDATE, DELETE and SELECT still
        complete."""
        db = Database()
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        table = db.table("t")
        for key in range(5000):
            table.insert((key, key))

        def walked(*args, **kwargs):
            raise AssertionError("a point statement walked the positional index")

        monkeypatch.setattr(KeySequence, "intervals", walked)
        assert db.execute("UPDATE t SET v = -1 WHERE id = 2500").rowcount == 1
        assert db.execute("DELETE FROM t WHERE id IN (17, 4000, 17)").rowcount == 2
        assert db.execute("SELECT v FROM t WHERE id = 2500").rows == [(-1,)]
        assert db.execute("SELECT v FROM t WHERE id = 4000").rows == []
        assert table.row_at(17) == (18, 18)
        with pytest.raises(AssertionError):
            table.rows()
