"""The selective-read stack: zone maps, sargable ranges, secondary
indexes, and the planner's access-path choice.

Covers the tentpole claims end to end:

* ``extract_sargable_ranges`` compiles pushed WHERE conjuncts into
  per-column interval sets with Kleene-correct NULL handling,
* ``CREATE [UNIQUE] INDEX`` / ``DROP INDEX`` flow through the whole SQL
  stack, are maintained by every DML path, and survive crash recovery
  (snapshot + WAL, cut at arbitrary byte boundaries),
* the planner picks an index probe for selective point predicates and a
  zone-map-skipping scan otherwise — and both return the same rows,
* trace spans report ``pages_skipped`` consistent with the pager's
  independent per-tag I/O accounting,
* the property: random DML ∘ migrations ∘ encodings, then random
  sargable predicates — the skipping scan and a dict model agree.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.expr import IntervalSet, extract_sargable_ranges
from repro.engine.sql_parser import parse_statement
from repro.errors import CatalogError, ConstraintError, SqlError
from repro.server.service import WAL_FILENAME, WorkbookService, recover_state
from repro.server.snapshot import SnapshotStore
from repro.server.wal import read_wal


def find_prefix(span, prefix: str):
    if span.name.startswith(prefix):
        return span
    for child in span.children:
        hit = find_prefix(child, prefix)
        if hit is not None:
            return hit
    return None


def where_ranges(sql_where: str, params=None):
    statement = parse_statement(f"SELECT * FROM t WHERE {sql_where}")
    return extract_sargable_ranges(statement.where, params)


# -- sargable extraction ------------------------------------------------------


class TestSargableExtraction:
    def test_comparisons_and_between(self):
        ranges = where_ranges("a > 3 AND a <= 9 AND b BETWEEN 1 AND 2")
        assert ranges["a"].intervals == [(3, False, 9, True)]
        assert ranges["b"].intervals == [(1, True, 2, True)]
        assert not ranges["a"].includes_null

    def test_equality_and_in_are_points(self):
        ranges = where_ranges("a = 5 AND b IN (1, 2, 3)")
        assert ranges["a"].points() == [5]
        assert sorted(ranges["b"].points()) == [1, 2, 3]

    def test_or_unions_only_shared_columns(self):
        ranges = where_ranges("(a < 2 AND b = 1) OR a > 8")
        # b is unconstrained on the right branch — it must not survive.
        assert "b" not in ranges
        assert ranges["a"].intervals == [
            (None, False, 2, False),
            (8, False, None, False),
        ]

    def test_null_comparison_matches_nothing(self):
        # Kleene: `a = NULL` is never TRUE, so the interval set is empty
        # (a scan consulting it may skip every page).
        ranges = where_ranges("a = NULL")
        assert ranges["a"].is_empty()

    def test_is_null_keeps_only_nulls(self):
        ranges = where_ranges("a IS NULL")
        assert ranges["a"].includes_null
        assert ranges["a"].intervals == []
        ranges = where_ranges("a IS NOT NULL")
        assert not ranges["a"].includes_null

    def test_unbound_parameter_never_authorises_a_skip(self):
        # Plan time (no params): `?` could be anything, so `a`'s set
        # carries an unknown bound that matches every page, while `b`'s
        # literal constraint survives the AND at full strength.
        ranges = where_ranges("a > ? AND b = 7")
        assert ranges["a"].may_match(0, 5, 0, 8)
        assert ranges["a"].may_match(100, 200, 0, 8)
        assert ranges["a"].points() is None
        assert ranges["b"].points() == [7]

    def test_bound_parameter_is_a_real_bound(self):
        ranges = where_ranges("a > ?", params=(5,))
        assert ranges["a"].intervals == [(5, False, None, False)]

    def test_may_match_is_conservative(self):
        interval_set = IntervalSet([(10, True, 20, True)], False)
        assert interval_set.may_match(15, 30, 0, 8)
        assert not interval_set.may_match(21, 30, 0, 8)
        # Unknown page bounds must never authorise a skip.
        assert interval_set.may_match(None, None, 0, 8)


# -- index DDL ----------------------------------------------------------------


class TestIndexDdl:
    def build(self, n_rows=50):
        db = Database(page_capacity=16)
        db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT, s TEXT)")
        for i in range(n_rows):
            db.execute("INSERT INTO t VALUES (?, ?, ?)", (i, i * 3, f"s{i % 7}"))
        return db

    def test_create_probe_and_drop(self):
        db = self.build()
        db.execute("CREATE INDEX idx_v ON t (v)")
        table = db.table("t")
        assert "idx_v" in table.indexes
        rows = db.execute("SELECT k FROM t WHERE v = 36").rows
        assert rows == [(12,)]
        table.validate()
        db.execute("DROP INDEX idx_v")
        assert "idx_v" not in table.indexes
        assert db.execute("SELECT k FROM t WHERE v = 36").rows == [(12,)]

    def test_unique_index_rejects_duplicates(self):
        db = self.build()
        db.execute("CREATE UNIQUE INDEX idx_v ON t (v)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (100, 3, 'dup')")  # v=3 taken
        # The failed insert left no trace in table or index.
        assert db.execute("SELECT COUNT(*) FROM t").rows == [(50,)]
        db.table("t").validate()

    def test_unique_index_on_duplicated_column_fails_to_build(self):
        db = self.build()
        with pytest.raises(ConstraintError):
            db.execute("CREATE UNIQUE INDEX idx_s ON t (s)")  # s repeats
        assert "idx_s" not in db.table("t").indexes

    def test_duplicate_and_missing_names(self):
        db = self.build()
        db.execute("CREATE INDEX idx_v ON t (v)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX idx_v ON t (k)")
        db.execute("CREATE INDEX IF NOT EXISTS idx_v ON t (k)")  # swallowed
        assert db.table("t").indexes["idx_v"].column == "v"
        with pytest.raises(CatalogError):
            db.execute("DROP INDEX ghost")
        db.execute("DROP INDEX IF EXISTS ghost")

    def test_parse_errors(self):
        with pytest.raises(SqlError):
            parse_statement("CREATE INDEX ON t (v)")
        with pytest.raises(SqlError):
            parse_statement("CREATE INDEX idx ON t ()")

    def test_indexes_follow_column_renames_and_drops(self):
        db = self.build()
        db.execute("CREATE INDEX idx_v ON t (v)")
        db.execute("ALTER TABLE t RENAME COLUMN v TO w")
        table = db.table("t")
        assert table.indexes["idx_v"].column == "w"
        assert db.execute("SELECT k FROM t WHERE w = 36").rows == [(12,)]
        db.execute("ALTER TABLE t DROP COLUMN w")
        assert "idx_v" not in table.indexes

    def test_transaction_rollback_unwinds_index_ddl(self):
        db = self.build()
        db.execute("BEGIN")
        db.execute("CREATE INDEX idx_v ON t (v)")
        db.execute("ROLLBACK")
        assert "idx_v" not in db.table("t").indexes
        db.execute("CREATE INDEX idx_v ON t (v)")
        db.execute("BEGIN")
        db.execute("DROP INDEX idx_v")
        db.execute("ROLLBACK")
        assert "idx_v" in db.table("t").indexes
        db.table("t").validate()


# -- planner access path ------------------------------------------------------


def build_big_db(n_rows=2000, **kwargs):
    db = Database(page_capacity=64, **kwargs)
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT, w INT)")
    for start in range(0, n_rows, 50):
        values = ",".join(
            f"({i},{i * 7},{i % 13})" for i in range(start, start + 50)
        )
        db.execute(f"INSERT INTO t VALUES {values}")
    return db


class TestPlannerAccessPath:
    def test_point_lookup_uses_the_index(self):
        db = build_big_db()
        db.execute("CREATE UNIQUE INDEX idx_v ON t (v)")
        result, trace = db.trace_statement("SELECT k FROM t WHERE v = 700")
        assert result.rows == [(100,)]
        scan = find_prefix(trace, "IndexScan")
        assert scan is not None
        assert scan.counters["index_probes"] == 1
        assert scan.counters["rows_scanned"] == 1

    def test_primary_key_lookup_needs_no_create_index(self):
        db = build_big_db()
        assert db.table("t").indexes == {}
        trace = db.execute("EXPLAIN TRACE SELECT v FROM t WHERE k = 100").rows
        probe = [line for (line,) in trace if "IndexScan" in line]
        assert len(probe) == 1 and "index=PRIMARY on k" in probe[0]
        assert "index_probes=1" in probe[0] and "rows_out=1" in probe[0]
        assert db.execute("SELECT v FROM t WHERE k = 100").rows == [(700,)]

    def test_non_selective_predicate_stays_a_scan(self):
        db = build_big_db()
        db.execute("CREATE INDEX idx_v ON t (v)")
        result, trace = db.trace_statement("SELECT k FROM t WHERE v >= 0")
        assert len(result.rows) == 2000
        assert find_prefix(trace, "IndexScan") is None
        assert find_prefix(trace, "ProjectedScan") is not None

    def test_index_and_scan_agree_on_every_shape(self):
        db = build_big_db(n_rows=600)
        plain = Database(page_capacity=64)
        plain.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT, w INT)")
        for start in range(0, 600, 50):
            values = ",".join(
                f"({i},{i * 7},{i % 13})" for i in range(start, start + 50)
            )
            plain.execute(f"INSERT INTO t VALUES {values}")
        db.execute("CREATE INDEX idx_v ON t (v)")
        queries = [
            "SELECT k, v FROM t WHERE v = 77",
            "SELECT k, v FROM t WHERE v IN (7, 70, 700)",
            "SELECT k, v FROM t WHERE v BETWEEN 100 AND 140",
            "SELECT k, v FROM t WHERE v = 77 AND w > 2",
            "SELECT k, v FROM t WHERE v = 77 OR v = 140",
            "SELECT k, v FROM t WHERE v IS NULL",
        ]
        for sql in queries:
            assert sorted(db.execute(sql).rows) == sorted(plain.execute(sql).rows), sql

    def test_point_lookup_with_parameter(self):
        db = build_big_db(n_rows=400)
        db.execute("CREATE UNIQUE INDEX idx_v ON t (v)")
        assert db.execute("SELECT k FROM t WHERE v = ?", (770,)).rows == [(110,)]


# -- DML through the same machinery -------------------------------------------


class TestDmlSelectiveReads:
    def test_update_delete_keep_indexes_exact(self):
        db = build_big_db(n_rows=500)
        db.execute("CREATE INDEX idx_v ON t (v)")
        table = db.table("t")
        db.execute("UPDATE t SET v = v + 1 WHERE v = 700")
        assert db.execute("SELECT k FROM t WHERE v = 701").rows == [(100,)]
        assert db.execute("SELECT k FROM t WHERE v = 700").rows == []
        db.execute("DELETE FROM t WHERE v = 701")
        assert db.execute("SELECT k FROM t WHERE v = 701").rows == []
        assert db.execute("SELECT COUNT(*) FROM t").rows == [(499,)]
        table.validate()

    def test_dml_point_predicate_probes_the_index(self):
        db = build_big_db(n_rows=500)
        db.execute("CREATE UNIQUE INDEX idx_v ON t (v)")
        table = db.table("t")
        before = table.store.scan_stats.index_lookups
        result, trace = db.trace_statement("DELETE FROM t WHERE v = 777")
        assert table.store.scan_stats.index_lookups > before
        # The probe is the plan operator a SELECT would get.
        probe = trace.find("execute").children[0]
        assert probe.name.startswith("IndexScan(t as t, index=idx_v on v")
        assert probe.counters["index_probes"] == 1
        assert probe.counters["rows_out"] == result.rowcount == 1
        table.validate()

    def test_update_after_skipping_scan_stays_correct(self):
        """Zone maps may only over-approximate after updates: a stale
        min/max widens the candidate set, never narrows it."""
        db = build_big_db(n_rows=500)
        # Warm the zone cache, then move rows across the old bounds.
        assert len(db.execute("SELECT k FROM t WHERE v > 3000").rows) > 0
        db.execute("UPDATE t SET v = 9999 WHERE k < 5")
        rows = db.execute("SELECT k FROM t WHERE v = 9999").rows
        assert sorted(rows) == [(0,), (1,), (2,), (3,), (4,)]
        db.table("t").validate()


# -- observability ------------------------------------------------------------


class TestSkippingObservability:
    def test_span_pages_skipped_matches_tag_stats(self):
        """The scan span's pages_skipped and the pager's independent
        per-tag read accounting describe the same scan: with warm zone
        maps and a cold cache, pages fetched + pages skipped covers the
        whole chain."""
        db = build_big_db(n_rows=2000)
        store = db.table("t").store
        sql = "SELECT k, v FROM t WHERE v >= 13500"
        # First pass populates the zone cache (cold zones are computed
        # from fetched pages, which still counts as a read).
        expected = sorted(db.execute(sql).rows)
        db.checkpoint()
        store.pool.drop_cache()
        before = [
            store.group_io_stats(g).snapshot() for g in range(store.n_groups)
        ]
        result, trace = db.trace_statement(sql)
        assert sorted(result.rows) == expected
        scan = find_prefix(trace, "ProjectedScan")
        assert scan is not None
        skipped = scan.counters.get("pages_skipped", 0)
        assert skipped > 0
        deltas = [
            store.group_io_stats(g).delta(before[g])
            for g in range(store.n_groups)
        ]
        fetched = sum(delta.reads for delta in deltas)
        chain_pages = sum(
            store.pages_in_group(g) for g in range(store.n_groups)
        )
        # Every chain page was either fetched or skipped via a cached
        # zone — two independent counters closing over the same total.
        assert fetched + skipped == chain_pages
        assert scan.counters["pages_read"] == fetched

    def test_db_metrics_expose_skips_and_probes(self):
        db = build_big_db(n_rows=1000)
        db.execute("CREATE UNIQUE INDEX idx_v ON t (v)")
        # Probe while the zone cache is cold (a warm cache makes the
        # skipping scan cheap enough to beat the index — also correct).
        db.execute("SELECT k FROM t WHERE v = 700")    # index probe
        db.execute("SELECT k FROM t WHERE v >= 6650")  # warm zones
        db.execute("SELECT k FROM t WHERE v >= 6650")  # skipping pass
        snap = db.metrics()
        assert snap["db_pages_skipped"] > 0
        assert snap["db_index_lookups"] >= 1

    def test_group_skip_stats_surface(self):
        db = build_big_db(n_rows=1000)
        db.execute("SELECT k FROM t WHERE v >= 6650")
        db.execute("SELECT k FROM t WHERE v >= 6650")
        store = db.table("t").store
        stats = store.group_skip_stats(0)
        assert stats["pages_skipped"] > 0
        assert 0.0 < stats["skip_ratio"] <= 1.0
        summary = store.group_summary()[0]
        assert summary["skip"]["pages_skipped"] == stats["pages_skipped"]
        assert summary["zones"] > 0


# -- equivalence property -----------------------------------------------------

COLUMNS = ("a", "b", "c")

DML_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 10**6), st.integers(-50, 50)),
        st.tuples(st.just("update"), st.integers(-50, 50), st.integers(-50, 50)),
        st.tuples(st.just("delete"), st.integers(-50, 50), st.none()),
        st.tuples(st.just("null_insert"), st.integers(0, 10**6), st.none()),
        st.tuples(
            st.just("layout"), st.sampled_from(["ROW", "COLUMN"]), st.none()
        ),
        st.tuples(st.just("encode"), st.none(), st.none()),
    ),
    min_size=3,
    max_size=14,
)

PREDICATES = st.lists(
    st.tuples(
        st.sampled_from(COLUMNS),
        st.sampled_from(["=", "<", "<=", ">", ">=", "between", "in", "isnull"]),
        st.integers(-60, 60),
        st.integers(-60, 60),
    ),
    min_size=1,
    max_size=3,
)


def model_matches(model, predicates):
    """The dict model: rows surviving every conjunct under SQL ternary
    logic (NULL comparisons are never TRUE)."""
    out = []
    for key, row in sorted(model.items()):
        keep = True
        for column, op, x, y in predicates:
            value = row[COLUMNS.index(column)]
            if op == "isnull":
                keep = value is None
            elif value is None:
                keep = False
            elif op == "=":
                keep = value == x
            elif op == "<":
                keep = value < x
            elif op == "<=":
                keep = value <= x
            elif op == ">":
                keep = value > x
            elif op == ">=":
                keep = value >= x
            elif op == "between":
                low, high = min(x, y), max(x, y)
                keep = low <= value <= high
            else:  # in
                keep = value in (x, y, x + 1)
            if not keep:
                break
        if keep:
            out.append(row)
    return out


def predicate_sql(predicates):
    parts = []
    for column, op, x, y in predicates:
        if op == "isnull":
            parts.append(f"{column} IS NULL")
        elif op == "between":
            parts.append(f"{column} BETWEEN {min(x, y)} AND {max(x, y)}")
        elif op == "in":
            parts.append(f"{column} IN ({x}, {y}, {x + 1})")
        else:
            parts.append(f"{column} {op} {x}")
    return " AND ".join(parts)


@settings(max_examples=25, deadline=None)
@given(ops=DML_OPS, predicates=PREDICATES)
def test_skipping_scan_equals_model(ops, predicates):
    db = Database(page_capacity=8)
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, a INT, b INT, c INT)")
    db.execute("CREATE INDEX idx_a ON t (a)")
    model = {}
    next_key = 0
    for kind, x, y in ops:
        if kind == "insert":
            row = (x % 101 - 50, (x // 7) % 101 - 50, y)
            db.execute("INSERT INTO t VALUES (?, ?, ?, ?)", (next_key, *row))
            model[next_key] = row
            next_key += 1
        elif kind == "null_insert":
            row = (None, x % 101 - 50, None)
            db.execute("INSERT INTO t VALUES (?, ?, ?, ?)", (next_key, *row))
            model[next_key] = row
            next_key += 1
        elif kind == "update":
            db.execute("UPDATE t SET b = ? WHERE a = ?", (y, x))
            for key, row in model.items():
                if row[0] == x:
                    model[key] = (row[0], y, row[2])
        elif kind == "delete":
            db.execute("DELETE FROM t WHERE a = ?", (x,))
            model = {k: r for k, r in model.items() if r[0] != x}
        elif kind == "layout":
            db.execute(f"ALTER TABLE t SET LAYOUT {x}")
        else:  # encode: force a checkpoint + page encoding pass
            db.checkpoint()
            table = db.table("t")
            for g in range(table.store.n_groups):
                table.store.encode_group(g)
    sql = f"SELECT a, b, c FROM t WHERE {predicate_sql(predicates)}"
    rows = sorted(db.execute(sql).rows, key=repr)
    assert rows == sorted(model_matches(model, predicates), key=repr)
    db.table("t").validate()


# -- crash recovery -----------------------------------------------------------


class TestIndexCrashRecovery:
    """Pattern from test_layout_durability: cut the WAL at byte
    boundaries across the index-DDL tail; every intact prefix recovers a
    consistent catalog whose indexes answer queries correctly."""

    def build(self, tmp_path):
        directory = str(tmp_path / "svc")
        service = WorkbookService(directory, fsync=False, compact_every=0)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        for start in range(0, 60, 10):
            values = ",".join(f"({i},{i * 3})" for i in range(start, start + 10))
            service.execute(session.session_id, f"INSERT INTO t VALUES {values}")
        service.execute(session.session_id, "CREATE UNIQUE INDEX idx_v ON t (v)")
        service.execute(session.session_id, "INSERT INTO t VALUES (100, 450)")
        service.execute(session.session_id, "DROP INDEX idx_v")
        service.execute(session.session_id, "CREATE INDEX idx_v2 ON t (v)")
        service.close()
        with open(os.path.join(directory, WAL_FILENAME), "rb") as handle:
            data = handle.read()
        return directory, data

    def test_cuts_across_the_index_ddl_tail(self, tmp_path):
        directory, data = self.build(tmp_path)
        records, _, _ = read_wal(os.path.join(directory, WAL_FILENAME))
        index_records = [
            r for r in records if r.op["type"] in ("index_create", "index_drop")
        ]
        assert len(index_records) == 3  # promoted to first-class ops
        first = index_records[0]
        cuts = set()
        for record in records:
            if record.end_offset >= first.offset:
                cuts.update(
                    (record.offset, record.offset + 1, record.end_offset)
                )
        cuts.add(len(data))
        for case, cut in enumerate(
            sorted(c for c in cuts if first.offset <= c <= len(data))
        ):
            case_dir = str(tmp_path / f"case{case}")
            os.makedirs(case_dir)
            with open(os.path.join(case_dir, WAL_FILENAME), "wb") as handle:
                handle.write(data[:cut])
            recovery = recover_state(case_dir)
            table = recovery.workbook.database.table("t")
            table.validate()
            # Exactly the fully-logged DDL is reflected.
            applied = [r.op for r in index_records if r.end_offset <= cut]
            expect = set()
            for op in applied:
                if op["type"] == "index_create":
                    expect.add(op["name"].lower())
                else:
                    expect.discard(op["name"].lower())
            assert set(table.indexes) == expect, f"cut={cut}"
            # Whatever index exists answers probes correctly.
            for index in table.indexes.values():
                hits = index.tree.get(30)
                rids = hits if isinstance(hits, list) else [hits]
                assert table.store.get(rids[0])[0] == 10, f"cut={cut}"

    def test_snapshot_covers_index_definitions(self, tmp_path):
        directory = str(tmp_path / "svc")
        service = WorkbookService(directory, fsync=False, compact_every=0)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        for i in range(40):
            service.execute(
                session.session_id, "INSERT INTO t VALUES (?, ?)", (i, i * 3)
            )
        service.execute(session.session_id, "CREATE UNIQUE INDEX idx_v ON t (v)")
        service.compact()
        service.close()
        payload = SnapshotStore(directory).load()
        [spec] = payload["workbook"]["tables"]
        assert spec["indexes"] == [
            {"name": "idx_v", "column": "v", "unique": True}
        ]
        # Recovery must work from the snapshot alone (WAL replays nothing
        # past it) — the tree is rebuilt from the restored rows.
        recovery = recover_state(directory)
        assert recovery.ops_replayed == 0
        table = recovery.workbook.database.table("t")
        assert "idx_v" in table.indexes
        assert table.store.get(table.indexes["idx_v"].tree.get(39))[0] == 13
        table.validate()

    def test_index_ddl_inside_transaction_stays_sql(self, tmp_path):
        """Mirrors the layout rule: inside a txn the DDL must keep riding
        the engine's undo log, so it is not promoted to a first-class
        record (the bracket's replay is all-or-nothing)."""
        directory = str(tmp_path / "svc")
        service = WorkbookService(directory, fsync=False, compact_every=0)
        session = service.connect("alice")
        service.execute(session.session_id, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        service.execute(session.session_id, "BEGIN")
        service.execute(session.session_id, "CREATE INDEX idx_v ON t (v)")
        kinds = [r.op["type"] for r in service.wal.records()]
        assert "index_create" not in kinds
        service.execute(session.session_id, "ROLLBACK")
        assert "idx_v" not in service.workbook.database.table("t").indexes
        service.close()
        recovery = recover_state(directory)
        assert "idx_v" not in recovery.workbook.database.table("t").indexes


# -- sanitizer ----------------------------------------------------------------


def test_sanitizer_verifies_zone_maps():
    """REPRO_SANITIZE=1 cross-checks every cached zone against decoded
    page contents; a correct run stays silent."""
    from repro.analysis.sanitizer import Sanitizer

    db = Database(page_capacity=16)
    db.catalog.sanitizer = Sanitizer()
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    table = db.table("t")
    table.sanitizer = db.catalog.sanitizer
    table.store.sanitizer = db.catalog.sanitizer
    for i in range(200):
        db.execute("INSERT INTO t VALUES (?, ?)", (i, i * 3))
    assert len(db.execute("SELECT k FROM t WHERE v > 400").rows) > 0
    db.execute("UPDATE t SET v = -1 WHERE k = 7")
    assert db.execute("SELECT k FROM t WHERE v = -1").rows == [(7,)]
