"""DML and DDL execution tests, including the DataSpread positional insert
and cheap schema changes."""

import pytest

from repro import Database
from repro.engine.store import LayoutPolicy
from repro.errors import CatalogError, ConstraintError, ExecutionError, SchemaError


@pytest.fixture
def people(db):
    db.execute("CREATE TABLE people (pid INT PRIMARY KEY, name TEXT, age INT)")
    db.execute("INSERT INTO people VALUES (1,'ann',30),(2,'bob',40),(3,'cat',50)")
    return db


class TestInsert:
    def test_rowcount(self, people):
        result = people.execute("INSERT INTO people VALUES (4,'dan',60),(5,'eve',70)")
        assert result.rowcount == 2
        assert people.table("people").n_rows == 5

    def test_column_subset_fills_nulls(self, people):
        people.execute("INSERT INTO people (pid, name) VALUES (9, 'zoe')")
        assert people.execute("SELECT age FROM people WHERE pid=9").scalar() is None

    def test_insert_select(self, people):
        people.execute("CREATE TABLE copy (pid INT, name TEXT, age INT)")
        people.execute("INSERT INTO copy SELECT * FROM people WHERE age >= 40")
        assert people.table("copy").n_rows == 2

    def test_insert_at_position(self, people):
        people.execute("INSERT INTO people VALUES (7,'mid',35) AT POSITION 1")
        rows = people.execute("SELECT pid FROM people").rows
        assert [r[0] for r in rows] == [1, 7, 2, 3]

    def test_insert_at_position_zero(self, people):
        people.execute("INSERT INTO people VALUES (8,'first',1) AT POSITION 0")
        assert people.execute("SELECT pid FROM people LIMIT 1").scalar() == 8

    def test_duplicate_pk_rejected(self, people):
        with pytest.raises(ConstraintError):
            people.execute("INSERT INTO people VALUES (1,'dup',0)")

    def test_null_pk_rejected(self, people):
        with pytest.raises(ConstraintError):
            people.execute("INSERT INTO people VALUES (NULL,'x',0)")

    def test_wrong_arity(self, people):
        with pytest.raises(ExecutionError):
            people.execute("INSERT INTO people (pid) VALUES (10, 'extra')")

    def test_type_coercion_on_insert(self, people):
        people.execute("INSERT INTO people VALUES (11, 'kim', '44')")
        value = people.execute("SELECT age FROM people WHERE pid=11").scalar()
        assert value == 44 and isinstance(value, int)

    def test_default_applies(self, db):
        db.execute("CREATE TABLE d (id INT, status TEXT DEFAULT 'new')")
        db.execute("INSERT INTO d (id) VALUES (1)")
        assert db.execute("SELECT status FROM d").scalar() == "new"


class TestUpdate:
    def test_update_where(self, people):
        result = people.execute("UPDATE people SET age = age + 1 WHERE age >= 40")
        assert result.rowcount == 2
        assert people.execute("SELECT age FROM people WHERE pid=3").scalar() == 51

    def test_update_all(self, people):
        assert people.execute("UPDATE people SET age = 0").rowcount == 3

    def test_update_sees_pre_update_values(self, people):
        # Swap-ish: both assignments read the original row.
        people.execute("UPDATE people SET age = pid, pid = pid + 100 WHERE pid = 1")
        row = people.execute("SELECT pid, age FROM people WHERE pid = 101").rows[0]
        assert row == (101, 1)

    def test_update_pk_uniqueness_enforced(self, people):
        with pytest.raises(ConstraintError):
            people.execute("UPDATE people SET pid = 2 WHERE pid = 1")

    def test_update_with_parameter(self, people):
        people.execute("UPDATE people SET name = ? WHERE pid = ?", ("ANN", 1))
        assert people.execute("SELECT name FROM people WHERE pid=1").scalar() == "ANN"


class TestDelete:
    def test_delete_where(self, people):
        assert people.execute("DELETE FROM people WHERE age > 35").rowcount == 2
        assert people.table("people").n_rows == 1

    def test_delete_all(self, people):
        people.execute("DELETE FROM people")
        assert people.table("people").n_rows == 0

    def test_delete_preserves_position_order(self, people):
        people.execute("DELETE FROM people WHERE pid = 2")
        rows = people.execute("SELECT pid FROM people").rows
        assert [r[0] for r in rows] == [1, 3]


class TestCreateDrop:
    def test_create_as_select_infers_types(self, people):
        people.execute("CREATE TABLE stats AS SELECT name, age * 2 AS dbl FROM people")
        table = people.table("stats")
        assert table.n_rows == 3
        assert table.schema.column("dbl").dtype.value == "INTEGER"

    def test_create_duplicate_rejected(self, people):
        with pytest.raises(CatalogError):
            people.execute("CREATE TABLE people (x INT)")

    def test_if_not_exists(self, people):
        people.execute("CREATE TABLE IF NOT EXISTS people (x INT)")
        assert people.table("people").schema.has_column("pid")

    def test_drop(self, people):
        people.execute("DROP TABLE people")
        assert not people.has_table("people")

    def test_drop_missing(self, people):
        with pytest.raises(CatalogError):
            people.execute("DROP TABLE nope")
        people.execute("DROP TABLE IF EXISTS nope")


class TestAlter:
    def test_add_column_visible_and_defaulted(self, people):
        people.execute("ALTER TABLE people ADD COLUMN email TEXT DEFAULT 'n/a'")
        result = people.execute("SELECT email FROM people WHERE pid=1")
        assert result.scalar() == "n/a"

    def test_add_column_rowcount_reports_rewrites(self, db):
        db.execute("CREATE TABLE w (a INT)")
        for i in range(300):
            db.execute("INSERT INTO w VALUES (?)", (i,))
        # Hybrid layout: new column lands in a fresh group -> zero rewrites.
        assert db.execute("ALTER TABLE w ADD COLUMN b INT").rowcount == 0

    def test_add_column_row_layout_rewrites_everything(self):
        db = Database(default_layout=LayoutPolicy.ROW)
        db.execute("CREATE TABLE w (a INT)")
        for i in range(300):
            db.execute("INSERT INTO w VALUES (?)", (i,))
        assert db.execute("ALTER TABLE w ADD COLUMN b INT").rowcount > 0

    def test_drop_column(self, people):
        people.execute("ALTER TABLE people DROP COLUMN age")
        assert people.table("people").column_names == ["pid", "name"]

    def test_drop_pk_rejected(self, people):
        with pytest.raises(SchemaError):
            people.execute("ALTER TABLE people DROP COLUMN pid")

    def test_rename_column(self, people):
        people.execute("ALTER TABLE people RENAME COLUMN name TO full_name")
        assert people.execute("SELECT full_name FROM people WHERE pid=1").scalar() == "ann"

    def test_add_at_group(self, db):
        db.execute("CREATE TABLE g (a INT, b INT)")
        db.execute("INSERT INTO g VALUES (1, 2)")
        db.execute("ALTER TABLE g ADD COLUMN c INT AT GROUP 0")
        schema = db.table("g").schema
        assert schema.group_of("c") == 0


class TestTransactions:
    def test_commit_keeps_changes(self, people):
        people.execute("BEGIN")
        people.execute("INSERT INTO people VALUES (10,'tmp',1)")
        people.execute("COMMIT")
        assert people.table("people").n_rows == 4

    def test_rollback_undoes_insert(self, people):
        people.execute("BEGIN")
        people.execute("INSERT INTO people VALUES (10,'tmp',1)")
        people.execute("ROLLBACK")
        assert people.table("people").n_rows == 3

    def test_rollback_undoes_update(self, people):
        people.execute("BEGIN")
        people.execute("UPDATE people SET age = 0")
        people.execute("ROLLBACK")
        assert people.execute("SELECT age FROM people WHERE pid=1").scalar() == 30

    def test_rollback_undoes_delete_with_position(self, people):
        people.execute("BEGIN")
        people.execute("DELETE FROM people WHERE pid = 2")
        people.execute("ROLLBACK")
        rows = people.execute("SELECT pid FROM people").rows
        assert [r[0] for r in rows] == [1, 2, 3]

    def test_rollback_undoes_schema_change(self, people):
        """The paper's §2.2 challenge: DDL participates in transactions."""
        people.execute("BEGIN")
        people.execute("ALTER TABLE people ADD COLUMN extra INT DEFAULT 1")
        people.execute("UPDATE people SET extra = 5 WHERE pid = 1")
        people.execute("ROLLBACK")
        assert people.table("people").column_names == ["pid", "name", "age"]

    def test_rollback_restores_dropped_column_values(self, people):
        people.execute("BEGIN")
        people.execute("ALTER TABLE people DROP COLUMN age")
        people.execute("ROLLBACK")
        assert people.execute("SELECT age FROM people WHERE pid=3").scalar() == 50

    def test_rollback_undoes_drop_table(self, people):
        people.execute("BEGIN")
        people.execute("DROP TABLE people")
        people.execute("ROLLBACK")
        assert people.table("people").n_rows == 3

    def test_rollback_undoes_create_table(self, people):
        people.execute("BEGIN")
        people.execute("CREATE TABLE temp (x INT)")
        people.execute("ROLLBACK")
        assert not people.has_table("temp")

    def test_mixed_dml_ddl_transaction(self, people):
        people.execute("BEGIN")
        people.execute("ALTER TABLE people ADD COLUMN score REAL DEFAULT 0")
        people.execute("UPDATE people SET score = age * 1.5")
        people.execute("DELETE FROM people WHERE pid = 3")
        people.execute("ROLLBACK")
        assert people.table("people").n_rows == 3
        assert people.table("people").column_names == ["pid", "name", "age"]

    def test_nested_begin_rejected(self, people):
        from repro.errors import TransactionError

        people.execute("BEGIN")
        with pytest.raises(TransactionError):
            people.execute("BEGIN")
        people.execute("ROLLBACK")

    def test_commit_without_begin_rejected(self, people):
        from repro.errors import TransactionError

        with pytest.raises(TransactionError):
            people.execute("COMMIT")

    def test_table_validates_after_rollback(self, people):
        people.execute("BEGIN")
        people.execute("INSERT INTO people VALUES (10,'x',1)")
        people.execute("UPDATE people SET age = 99 WHERE pid = 1")
        people.execute("DELETE FROM people WHERE pid = 2")
        people.execute("ROLLBACK")
        people.table("people").validate()


def _state(db, name="s"):
    """Everything a failed statement must leave alone: rows in order,
    the rid at every position, and every key index entry."""
    table = db.table(name)
    table.validate()
    return (
        table.rows(),
        list(table.positions),
        {
            index.name: sorted(index.tree.items(), key=repr)
            for index in table.key_indexes()
        },
    )


#: statements whose k-th row violates a constraint after earlier rows of
#: the same statement were already changed.
FAILING_STATEMENTS = [
    "INSERT INTO s VALUES (10, 1, 'a'), (11, 2, 'b'), (0, 3, 'c')",  # dup PK
    "INSERT INTO s VALUES (10, 1, 'a'), (11, 2, NULL)",  # NOT NULL
    "INSERT INTO s VALUES (10, 1, 'a'), (11, 5, 'b')",  # unique index
    "INSERT INTO s SELECT id + 10, u + 10, tag FROM s",  # 3rd source row: dup u
    "INSERT INTO s VALUES (10, 1, 'a'), (0, 2, 'b') AT POSITION 1",  # mid-table
    "UPDATE s SET u = 40 WHERE id >= 1",  # second target collides with first
    "UPDATE s SET tag = CASE WHEN id = 2 THEN NULL ELSE 'z' END",
    "UPDATE s SET id = id + 1",  # 0 -> 1 collides at the first row already
]


@pytest.fixture
def constrained(db):
    db.execute(
        "CREATE TABLE s (id INT PRIMARY KEY, u INT, tag TEXT NOT NULL)"
    )
    db.execute("CREATE UNIQUE INDEX s_u ON s (u)")
    db.execute("INSERT INTO s VALUES (0, 5, 'p'), (1, 20, 'q'), (2, 30, 'r')")
    return db


class TestStatementAtomicity:
    @pytest.mark.parametrize("sql", FAILING_STATEMENTS)
    def test_failed_statement_leaves_nothing_in_autocommit(self, constrained, sql):
        before = _state(constrained)
        with pytest.raises((ConstraintError, ExecutionError)):
            constrained.execute(sql)
        assert _state(constrained) == before

    @pytest.mark.parametrize("sql", FAILING_STATEMENTS)
    def test_failed_statement_inside_a_transaction(self, constrained, sql):
        start = _state(constrained)
        constrained.execute("BEGIN")
        constrained.execute("INSERT INTO s VALUES (7, 70, 'kept')")
        constrained.execute("UPDATE s SET tag = 'edited' WHERE id = 1")
        middle = _state(constrained)
        with pytest.raises((ConstraintError, ExecutionError)):
            constrained.execute(sql)
        # The transaction is still open, minus the failed statement only.
        assert constrained.in_transaction
        assert _state(constrained) == middle
        constrained.execute("DELETE FROM s WHERE id = 0")
        constrained.execute("ROLLBACK")
        assert _state(constrained) == start

    def test_listeners_see_the_compensating_events(self, constrained):
        events = []
        constrained.add_listener(events.append)
        with pytest.raises(ConstraintError):
            constrained.execute(FAILING_STATEMENTS[0])
        assert [e.kind for e in events] == ["insert", "insert", "delete", "delete"]

    def test_rollback_of_multi_row_delete_restores_presentation_order(self, constrained):
        constrained.execute("INSERT INTO s VALUES (3, 40, 's'), (4, 50, 't')")
        start = _state(constrained)
        constrained.execute("BEGIN")
        constrained.execute("DELETE FROM s WHERE id IN (1, 3)")
        constrained.execute("ROLLBACK")
        assert _state(constrained) == start

    def test_rollback_of_drop_column_restores_its_indexes(self, db):
        db.execute("CREATE TABLE d (id INT PRIMARY KEY, tag TEXT, u INT)")
        db.execute("CREATE UNIQUE INDEX d_u ON d (u)")
        db.execute("CREATE INDEX d_u2 ON d (u)")
        db.execute("CREATE INDEX d_tag ON d (tag)")
        db.execute("INSERT INTO d VALUES (0, 'p', 5), (1, 'q', 20), (2, 'r', NULL)")
        start = _state(db, "d")
        table = db.table("d")
        db.execute("BEGIN")
        db.execute("ALTER TABLE d DROP COLUMN u")
        assert set(table.indexes) == {"d_tag"}
        db.execute("INSERT INTO d VALUES (9, 'late')")
        db.execute("ROLLBACK")
        assert set(table.indexes) == {"d_u", "d_u2", "d_tag"}
        assert _state(db, "d") == start
        # Definitions and contents: the restored index still enforces and
        # still answers.
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO d VALUES (8, 'dup', 20)")
        assert table.store.get(table.indexes["d_u"].tree.get(5))[0] == 0

    @pytest.mark.parametrize("indexed", [False, True])
    def test_rollback_replays_row_inverses_recorded_before_a_drop_column(
        self, db, indexed
    ):
        """Row inverses are full rows in schema order, so the undo of DROP
        COLUMN must put the column back where it was (here: the middle)
        before the older UPDATE/DELETE/INSERT inverses run."""
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, c INT NOT NULL, v TEXT)")
        if indexed:
            db.execute("CREATE INDEX tc ON t (c)")
        db.execute("INSERT INTO t VALUES (1, 10, 'a'), (2, 10, 'b'), (3, 30, 'c')")
        start = _state(db, "t")
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = 'q' WHERE id = 2")
        db.execute("DELETE FROM t WHERE id = 1")
        db.execute("INSERT INTO t VALUES (4, 40, 'd')")
        db.execute("ALTER TABLE t DROP COLUMN c")
        db.execute("UPDATE t SET v = 'z' WHERE id = 3")
        db.execute("ROLLBACK")
        assert not db.in_transaction
        assert db.table("t").column_names == ["id", "c", "v"]
        assert _state(db, "t") == start
        assert db.execute("SELECT c, v FROM t WHERE id = 2").rows == [(10, "b")]
