"""Vectorized batch execution over compressed column fragments.

Coverage for the batched executor: codec round-trips with exact types,
scan results (rows, order) checked against the SQLite oracle and
AccessStats charges against literal expectations under
hypothesis-generated schemas and encodings, encodings surviving snapshot +
WAL crash recovery, DML riding the narrow batched predicate scan (strictly
fewer page reads than the table's full width, trace counters for both
WHERE shapes), and the bytes-decoded feedback surfaced through per-group
tag stats and the CLI ``layout-stats`` report.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sqlite_backend import SqliteComparator
from repro.engine import encoding
from repro.engine import sql_ast as ast
from repro.engine.database import Database
from repro.engine.expr import Scope, compile_batch_predicate, compile_expression
from repro.engine.schema import TableSchema
from repro.engine.sql_parser import parse_expression
from repro.engine.store import DEFAULT_BATCH_SIZE, LayoutPolicy
from repro.engine.types import DBType
from repro.errors import ExecutionError
from repro.server.service import WorkbookService


# -- codecs ------------------------------------------------------------------


values_strategy = st.lists(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**40), 2**40),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(["", "a", "b", "tag"]),
    ),
    max_size=60,
)


class TestCodecs:
    @given(values_strategy)
    @settings(max_examples=60, deadline=None)
    def test_chosen_encoding_round_trips_exactly(self, values):
        kind, size = encoding.choose_encoding(values)
        payload = encoding.encode_column(values, kind)
        decoded = encoding.decode_column(kind, payload)
        assert decoded == values
        # Exact types too: 1, True and 1.0 must not swap on the way back.
        assert [type(v) for v in decoded] == [type(v) for v in values]
        assert size <= encoding.plain_size(len(values))

    def test_low_cardinality_prefers_dict_or_rle(self):
        kind, size = encoding.choose_encoding(["x", "y"] * 50)
        assert kind in ("dict", "rle")
        assert size < encoding.plain_size(100)

    def test_small_ints_pack(self):
        kind, size = encoding.choose_encoding(list(range(100)))
        assert kind == "packed"
        assert size == 100  # one byte each

    def test_distinct_wide_ints_stay_plain(self):
        kind, size = encoding.choose_encoding(
            [i * 2**33 for i in range(100)]
        )
        assert kind in ("plain", "packed")
        assert size >= encoding.plain_size(100)


# -- batched scan vs the SQLite oracle ----------------------------------------


COLUMN_TYPES = {
    "INT": st.one_of(st.none(), st.integers(-5, 5), st.integers(-(2**40), 2**40)),
    "TEXT": st.one_of(st.none(), st.sampled_from(["", "a", "b", "abc"])),
    "REAL": st.one_of(
        st.none(), st.floats(allow_nan=False, allow_infinity=False)
    ),
}

PREDICATES = [
    ("c0 = ?", 1),
    ("c0 < ?", 1),
    ("c0 >= ? AND c0 IS NOT NULL", 1),
    ("NOT (c0 > ?)", 1),
    ("c0 IS NULL", 0),
    ("c0 IN (?, ?)", 2),
    ("c0 < ? OR c0 IS NULL", 1),
    ("? < c0", 1),
    ("? >= c0", 1),
    ("c0 <> ?", 1),
    ("c0 <= ?", 1),
    ("c0 > ?", 1),
    ("c0 BETWEEN ? AND ?", 2),
]


@st.composite
def table_cases(draw):
    n_cols = draw(st.integers(min_value=1, max_value=4))
    types = [
        draw(st.sampled_from(sorted(COLUMN_TYPES))) for _ in range(n_cols)
    ]
    n_rows = draw(st.integers(min_value=0, max_value=40))
    rows = [
        tuple(draw(COLUMN_TYPES[types[c]]) for c in range(n_cols))
        for _ in range(n_rows)
    ]
    encode = draw(st.booleans())
    where, arity = draw(st.sampled_from(PREDICATES))
    params = [draw(COLUMN_TYPES[types[0]]) for _ in range(arity)]
    return types, rows, encode, where, params


def build_oracle(types, rows, encode):
    """The same table in our engine and in SQLite (the oracle of
    ``test_differential_sqlite.py``); our side optionally page-encoded."""
    oracle = SqliteComparator()
    columns = ", ".join(f"c{i} {t}" for i, t in enumerate(types))
    oracle.setup([f"CREATE TABLE t ({columns})"])
    insert = f"INSERT INTO t VALUES ({', '.join('?' * len(types))})"
    for row in rows:
        oracle.database.execute(insert, row)
        oracle.connection.execute(insert, row)
    table = oracle.database.table("t")
    if encode and rows:
        for group in range(table.store.n_groups):
            table.store.encode_group(group)
    table.store.access_stats.reset()
    return oracle


@given(table_cases())
@settings(max_examples=40, deadline=None)
def test_paths_agree_on_rows_order_and_stats(case):
    types, rows, encode, where, params = case
    oracle = build_oracle(types, rows, encode)
    probes = [
        ("SELECT * FROM t", []),
        ("SELECT c0 FROM t", []),
        (f"SELECT c0 FROM t WHERE {where}", params),
        ("SELECT COUNT(*) FROM t", []),
    ]
    try:
        for sql, sql_params in probes:
            ok, ours, theirs = oracle.ordered_match(sql, sql_params)
            assert ok, f"{sql!r}: ours={ours} sqlite={theirs}"
    finally:
        oracle.close()
    # What the four probes charge the advisor's workload window: SELECT *
    # (and any scan covering every column) is a full scan, the two c0
    # scans charge the column and its co-access set, COUNT(*) nothing.
    narrow = len(types) > 1
    assert oracle.database.table("t").store.access_stats.to_dict() == {
        "inserts": 0,
        "deletes": 0,
        "point_reads": 0,
        "full_updates": 0,
        "full_scans": 1 if narrow else 3,
        "schema_changes": 0,
        "columns": {"c0": {"scans": 2, "updates": 0}} if narrow else {},
        "group_scans": [[["c0"], 2]] if narrow else [],
    }


def test_row_fallback_predicates_agree():
    # LIKE does not batch-compile: the scan must fall back to the per-row
    # closure for it on the survivors of the batch-compiled conjunct.
    oracle = build_oracle(["TEXT", "INT"], [(f"tag{i % 4}", i) for i in range(50)], False)
    sql = "SELECT c1 FROM t WHERE c0 LIKE 'tag1%' AND c1 < 30"
    try:
        ok, ours, theirs = oracle.ordered_match(sql)
    finally:
        oracle.close()
    assert ok and ours == [(float(i),) for i in range(1, 30, 4)], (ours, theirs)


# -- the batch kernel against the row compiler ---------------------------------


KERNEL_SCOPE = Scope([("t", "a"), ("t", "b")])

kernel_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-(2**60), 2**60),
    st.floats(allow_nan=False),
    st.sampled_from(["", "a", "b", "10"]),
)


def constant_node(form, value):
    """``value`` as a literal, a ``?`` or (numbers only) a negated literal."""
    if form == "param":
        return ast.Parameter(0)
    if form == "negated" and type(value) in (int, float):
        return ast.UnaryOp("-", ast.Literal(-value))
    return ast.Literal(value)


@pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
@given(
    column=st.lists(kernel_values, max_size=30),
    value=kernel_values,
    form=st.sampled_from(["literal", "param", "negated"]),
    swapped=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_row_compiler(op, column, value, form, swapped):
    ref, constant = ast.ColumnRef("a"), constant_node(form, value)
    expression = (
        ast.BinaryOp(op, constant, ref) if swapped else ast.BinaryOp(op, ref, constant)
    )
    params = [value] if form == "param" else []
    kernel = compile_batch_predicate(expression, KERNEL_SCOPE)
    assert kernel is not None
    row_fn = compile_expression(expression, KERNEL_SCOPE)
    expected = [row_fn((v, None), params) for v in column]
    got = kernel([column, [None] * len(column)], params, len(column))
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]


@pytest.mark.parametrize(
    "text",
    ["a < b", "a + 1 > 2", "a BETWEEN 1 AND 2", "a IS NULL", "a IN (1, 2)", "NOT a > 1"],
)
def test_kernel_declines_every_other_shape(text):
    assert compile_batch_predicate(parse_expression(text), KERNEL_SCOPE) is None


def test_kernel_unbound_parameter_raises_the_row_compiler_error():
    expression = parse_expression("a > ?")
    kernel = compile_batch_predicate(expression, KERNEL_SCOPE)
    with pytest.raises(ExecutionError) as batch_error:
        kernel([[1], [2]], [], 1)
    with pytest.raises(ExecutionError) as row_error:
        compile_expression(expression, KERNEL_SCOPE)((1, 2), [])
    assert str(batch_error.value) == str(row_error.value)


def test_batches_respect_batch_size():
    db = Database(auto_layout_interval=0)
    db.execute("CREATE TABLE t (a INT, b INT)")
    table = db.table("t")
    for i in range(DEFAULT_BATCH_SIZE + 500):
        table.insert((i, i % 3), emit=False)
    batches = list(table.scan_column_batches(["a"], batch_size=256))
    assert all(len(rids) <= 256 for _, rids, _ in batches)
    assert sum(len(rids) for _, rids, _ in batches) == DEFAULT_BATCH_SIZE + 500
    # Presentation order is preserved across batch boundaries.
    flat = [value for _, _, cols in batches for value in cols[0]]
    assert flat == [row[0] for row in db.execute("SELECT a FROM t").rows]


def test_batch_size_below_one_is_an_error():
    # Used to be an empty iterator: a scan silently reporting zero rows.
    db = Database(auto_layout_interval=0)
    db.execute("CREATE TABLE t (a INT)")
    table = db.table("t")
    table.insert((1,), emit=False)
    for batch_size in (0, -1):
        with pytest.raises(ValueError):
            table.store.scan_group_batches(["a"], batch_size=batch_size)
        for names in (["a"], []):
            with pytest.raises(ValueError):
                table.scan_column_batches(names, batch_size=batch_size)
    assert table.store.snapshot_stats()["active_snapshots"] == 0


def test_zero_column_scan_counts_rows_without_reading_pages():
    db = build_dml_db()  # cold cache, I/O counters reset
    table = db.table("t")
    batches = list(table.scan_column_batches([], batch_size=150))
    assert [len(rids) for _, rids, _ in batches] == [150, 150, 100]
    assert all(cols == [] for _, _, cols in batches)
    assert [p for positions, _, _ in batches for p in positions] == list(range(400))
    assert [rid for _, rids, _ in batches for rid in rids] == list(table.positions)
    assert db.execute("SELECT COUNT(*) FROM t").rows == [(400,)]
    assert db.execute("SELECT COUNT(*) FROM t WHERE 1 = 1").rows == [(400,)]
    assert db.catalog.pool.stats.reads == 0


# -- encodings under maintenance, snapshot and crash recovery ----------------


def drive_encoding(db, name="t"):
    table = db.table(name)
    db.execute(f"ALTER TABLE {name} SET LAYOUT AUTO")
    for _ in range(30):
        list(table.store.scan_groups([table.schema.column_names[0]]))
    report = table.layout_tick()
    return table, report


def test_encoding_tick_encodes_hot_compressible_group():
    db = Database(auto_layout_interval=0)
    db.execute("CREATE TABLE t (a INT, b TEXT)")
    table = db.table("t")
    for i in range(800):
        table.insert((i % 10, f"tag{i % 3}"), emit=False)
    table, report = drive_encoding(db)
    assert report.get("encoded_groups")
    assert table.store.encoded_group_count >= 1
    ratios = table.store.column_encoding_ratios()
    assert ratios and all(r > 1.05 for r in ratios.values())
    # The maintenance event log records the encode with its ratio.
    kinds = [event.kind for event in table.events.tail(20)]
    assert "encode_group" in kinds
    table.validate()


def test_encoding_failure_is_remembered_not_retried():
    db = Database(auto_layout_interval=0)
    db.execute("CREATE TABLE t (a INT)")
    table = db.table("t")
    for i in range(200):
        table.insert((i * 2**33,), emit=False)  # incompressible
    assert table.store.encode_group(0) == 0
    assert not table.store.group_encoded(0)
    assert table.store.encoding_tick() == []  # failed flag skips the group


def test_mutations_thaw_pages_and_reads_do_not():
    db = Database(auto_layout_interval=0)
    db.execute("CREATE TABLE t (a INT, b INT)")
    table = db.table("t")
    for i in range(300):
        table.insert((i % 5, i % 7), emit=False)
    store = table.store
    store.encode_group(0)
    assert store.group_encoded(0)
    # Point reads and scans leave the encoded chain alone.
    store.get(store.rids()[10])
    assert db.execute("SELECT a FROM t WHERE b = 2").rows
    assert store.group_encoded(0)
    # A mutation thaws (only) the page holding the row.
    db.execute("UPDATE t SET a = 99 WHERE b = 3 AND a = 1")
    assert db.execute("SELECT COUNT(*) FROM t WHERE a = 99").rows[0][0] > 0
    store.validate()


def test_encodings_survive_snapshot_and_wal_recovery(tmp_path):
    service = WorkbookService(str(tmp_path / "svc"), fsync=False, compact_every=0)
    session = service.connect("alice")
    service.execute(session.session_id, "CREATE TABLE t (a INT, b TEXT)")
    for start in range(0, 600, 10):
        values = ",".join(
            f"({j % 12}, 'tag{j % 3}')" for j in range(start, start + 10)
        )
        service.execute(session.session_id, f"INSERT INTO t VALUES {values}")
    table = service.workbook.database.table("t")
    table.store.encode_group(0)
    ratio = table.store.group_encoding_ratio(0)
    assert table.store.group_encoded(0)
    expected = service.execute(session.session_id, "SELECT a, b FROM t").result.rows
    # Snapshot with the chain encoded, then write more rows so recovery
    # must also replay a WAL suffix on top of the re-encoded pages.
    service.compact()
    service.execute(session.session_id, "INSERT INTO t VALUES (99, 'late')")
    service.close()

    reopened = WorkbookService(str(tmp_path / "svc"), fsync=False, compact_every=0)
    store = reopened.workbook.database.table("t").store
    assert store.group_encoded(0)
    assert store.group_encoding_ratio(0) == pytest.approx(ratio, rel=0.2)
    session2 = reopened.connect("alice")
    rows = reopened.execute(session2.session_id, "SELECT a, b FROM t").result.rows
    assert rows == expected + [(99, "late")]
    store.validate()
    reopened.close()


# -- DML on the narrow batched predicate scan --------------------------------


DML_ROWS = [tuple((i * 7 + j) % 1000 for j in range(8)) for i in range(400)]


def build_dml_db() -> Database:
    db = Database(page_capacity=16, buffer_frames=8, auto_layout_interval=0)
    schema = TableSchema.from_pairs(
        [(f"c{i}", DBType.INTEGER) for i in range(8)]
    )
    db.create_table("t", schema, layout=LayoutPolicy.COLUMN)
    table = db.table("t")
    for row in DML_ROWS:
        table.insert(row, emit=False)
    db.checkpoint()
    db.catalog.pool.drop_cache()
    db.reset_io_stats()
    return db


def dml_page_reads(db: Database, sql: str) -> int:
    before = db.catalog.pool.stats.snapshot()
    db.execute(sql)
    return db.catalog.pool.stats.delta(before).reads


@pytest.mark.parametrize(
    "sql, remaining",
    [
        (
            "UPDATE t SET c7 = -1 WHERE c0 = 7",
            [row[:7] + (-1,) if row[0] == 7 else row for row in DML_ROWS],
        ),
        ("DELETE FROM t WHERE c0 = 7", [row for row in DML_ROWS if row[0] != 7]),
    ],
)
def test_dml_where_reads_fewer_pages_than_full_row_path(sql, remaining):
    db = build_dml_db()
    # A full-row scan would read every page of every chain.
    full = db.table("t").store.n_pages
    narrow = dml_page_reads(db, sql)
    assert 0 < narrow < full, f"{sql!r}: narrow={narrow} full={full}"
    # Same logical outcome as the model, and the statement hit something.
    assert db.execute("SELECT * FROM t").rows == remaining != DML_ROWS


def test_dml_where_scans_only_referenced_columns():
    db = build_dml_db()
    _, trace = db.trace_statement("UPDATE t SET c7 = 0 WHERE c0 < 35")
    # The operator a SELECT with the same WHERE gets, under the same
    # plan/execute spans.
    assert trace.find("plan") is not None
    scan = _find_prefix(trace.find("execute"), "ProjectedScan(t as t, cols=[c0]")
    assert scan is not None
    # Zone maps may prune pages the predicate provably misses, so the
    # scan examines at most every row and at least the matches.
    assert 15 <= scan.counters["rows_scanned"] <= 400
    assert scan.counters["cols_read"] == 1
    assert scan.counters["batches"] >= 1
    assert scan.counters["rows_out"] == 15
    assert scan.counters["pages_skipped"] >= 0
    assert (
        scan.counters["rows_per_batch"]
        == scan.counters["rows_scanned"] // scan.counters["batches"]
    )


def test_dml_without_where_short_circuits_predicate_path():
    for sql, remaining in [("UPDATE t SET c7 = 0", 400), ("DELETE FROM t", 0)]:
        db = build_dml_db()
        result, trace = db.trace_statement(sql)
        # No predicate scan at all: every row is a target, so no plan
        # operator runs and the rowcount covers the whole table.
        assert _find_prefix(trace, "ProjectedScan") is None
        assert _find_prefix(trace, "IndexScan") is None
        assert result.rowcount == 400
        assert db.execute("SELECT COUNT(*) FROM t").rows[0][0] == remaining


def _find_prefix(span, prefix):
    if span.name.startswith(prefix):
        return span
    for child in span.children:
        hit = _find_prefix(child, prefix)
        if hit is not None:
            return hit
    return None


# -- bytes-decoded feedback --------------------------------------------------


def test_scan_bytes_feed_group_tag_stats_and_cli():
    db = Database(auto_layout_interval=0)
    db.execute("CREATE TABLE t (a INT, b TEXT)")
    table = db.table("t")
    for i in range(600):
        table.insert((i % 9, f"tag{i % 3}"), emit=False)
    store = table.store
    plain_before = store.scan_stats.bytes_decoded
    list(store.scan_groups(["a"]))
    plain_cost = store.scan_stats.bytes_decoded - plain_before
    assert plain_cost == 600 * encoding.PLAIN_VALUE_BYTES

    store.encode_group(0)
    encoded_before = store.scan_stats.bytes_decoded
    list(store.scan_groups(["a"]))
    encoded_cost = store.scan_stats.bytes_decoded - encoded_before
    assert 0 < encoded_cost < plain_cost
    # The same bytes land on the per-group pager tag the advisor reads.
    assert store.group_io_stats(0).bytes_read >= plain_cost + encoded_cost
    summary = store.group_summary()[0]
    assert summary["encoded"] and summary["ratio"] > 1.05
    assert summary["io"]["bytes_read"] >= plain_cost + encoded_cost

    from repro.cli import DataSpreadShell

    shell = DataSpreadShell()
    shell.workbook.database = db
    report = shell.handle_line("layout-stats t")
    assert "bytes decoded" in report
    assert "encoded" in report


def test_cost_model_prices_encoded_groups_cheaper():
    from repro.engine.hybridstore import estimate_workload_blocks, pages_for_group
    from repro.engine.store import AccessStats

    assert pages_for_group(100, 1, 16, ratio=4.0) < pages_for_group(100, 1, 16)
    stats = AccessStats()
    stats.column("a").scans = 10
    grouping = [["a"], ["b"]]
    plain = estimate_workload_blocks(grouping, stats, 1000, 16)
    encoded = estimate_workload_blocks(
        grouping, stats, 1000, 16, ratios={"a": 4.0}
    )
    assert encoded < plain
