"""Regions follow their table by folding change events, not by re-querying.

After every step of a random mix of DML, rollbacks, failing statements,
schema changes and DBTABLE cell edits, each region's grid must equal the
grid a freshly installed region shows and the answer SQLite gives.  The
logical-work tests pin what a single-row DML costs under the maintained
aggregates: no region re-query, no parse, no scan, whatever the table
size.
"""

import math
import sqlite3
from typing import Any, List, Sequence

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.dbsql as dbsql_module
import repro.engine.database as database_module
from repro import Workbook
from repro.baselines.sqlite_backend import SqliteComparator
from repro.core.address import CellAddress
from repro.errors import DataSpreadError

STOCK = "CREATE TABLE stock (sku INT PRIMARY KEY, wh TEXT, qty INT, price REAL, cat TEXT)"
BY_CAT = "SELECT cat, SUM(qty), AVG(price) FROM stock GROUP BY cat ORDER BY cat"
LOW_STOCK = "SELECT wh, COUNT(*), SUM(qty) FROM stock WHERE qty < 20 GROUP BY wh ORDER BY wh"
QUERIES = [
    BY_CAT,
    LOW_STOCK,
    "SELECT COUNT(*), SUM(price), AVG(qty), COUNT(cat) FROM stock",
    "SELECT cat, COUNT(*) FROM stock GROUP BY cat HAVING COUNT(*) > 1 ORDER BY cat",
    "SELECT wh, MIN(price), MAX(qty) FROM stock GROUP BY wh ORDER BY wh DESC",
    "SELECT sku, qty FROM stock WHERE qty >= 10 ORDER BY sku",
]
#: (anchor, window_rows, offset) of the DBTABLE regions.
TABLES = [("A1", 3, 2), ("G1", None, 0)]
SQL_ANCHORS = ["M1", "Q1", "U1", "Z1", "AD1", "AH1"]

WH = st.sampled_from([None, "w0", "w1", "w2"])
CAT = st.sampled_from([None, "c0", "c1", "c2"])
QTY = st.one_of(st.none(), st.integers(0, 30))
PRICE = st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.25, 3.1, 1e16]))
SKU = st.integers(0, 11)
MULTI = [
    "UPDATE stock SET qty = qty + 7 WHERE wh = 'w0'",
    "UPDATE stock SET cat = 'c1' WHERE cat = 'c0'",
    "UPDATE stock SET price = NULL WHERE qty < 10",
    "DELETE FROM stock WHERE cat = 'c2'",
    # Fails on its second row: the first one is undone too.
    "INSERT INTO stock VALUES (50, 'w0', 1, 1.0, 'c0'), (50, 'w1', 2, 2.0, 'c1')",
    "UPDATE stock SET sku = 60 WHERE qty >= 0",
]


def statement(sku_strategy=SKU):
    insert = st.tuples(sku_strategy, WH, QTY, PRICE, CAT).map(
        lambda row: ("INSERT INTO stock VALUES (?, ?, ?, ?, ?)", row)
    )
    update = st.one_of(
        st.tuples(QTY, SKU).map(lambda p: ("UPDATE stock SET qty = ? WHERE sku = ?", p)),
        st.tuples(PRICE, SKU).map(lambda p: ("UPDATE stock SET price = ? WHERE sku = ?", p)),
        st.tuples(CAT, WH, SKU).map(
            lambda p: ("UPDATE stock SET cat = ?, wh = ? WHERE sku = ?", p)
        ),
    )
    delete = SKU.map(lambda sku: ("DELETE FROM stock WHERE sku = ?", (sku,)))
    return st.one_of(insert, update, delete)


STEP = st.one_of(
    statement().map(lambda s: ("sql",) + s),
    st.sampled_from(MULTI).map(lambda sql: ("sql", sql, ())),
    st.lists(statement(st.integers(100, 10_000)), min_size=1, max_size=3).map(
        lambda body: ("rollback", body)
    ),
    st.just(("add_column",)),
    st.tuples(
        st.integers(0, 2),
        st.sampled_from(["qty", "price", "cat"]),
        st.one_of(st.none(), st.integers(0, 30)),
    ).map(lambda edit: ("edit",) + edit),
)


class Harness:
    """A workbook with every region under test and SQLite beside it."""

    def __init__(self, rows: Sequence[Sequence[Any]]):
        self.sqlite = SqliteComparator()
        self.sqlite.connection.isolation_level = None  # explicit BEGIN/ROLLBACK
        self.workbook = Workbook(database=self.sqlite.database)
        self.workbook.add_sheet("Fresh")
        self.execute(STOCK)
        for row in rows:
            self.execute("INSERT INTO stock VALUES (?, ?, ?, ?, ?)", row)
        self.tables = []
        for anchor, window_rows, offset in TABLES:
            region = self.workbook.dbtable("Sheet1", anchor, "stock", window_rows=window_rows)
            region.scroll_to(offset)
            self.tables.append(region)
        self.queries = [
            self.workbook.dbsql("Sheet1", anchor, sql)
            for anchor, sql in zip(SQL_ANCHORS, QUERIES)
        ]
        self.columns = 5

    def close(self) -> None:
        self.sqlite.close()

    def execute(self, sql: str, params: Sequence[Any] = ()) -> None:
        """Run ``sql`` on both engines: both succeed or both fail."""
        try:
            self.workbook.execute(sql, params)
            ours = None
        except DataSpreadError as error:
            ours = error
        try:
            self.sqlite.connection.execute(sql, tuple(params))
            theirs = None
        except sqlite3.Error as error:
            theirs = error
        assert (ours is None) == (theirs is None), (sql, params, ours, theirs)

    def step(self, step) -> None:
        kind = step[0]
        if kind == "sql":
            self.execute(step[1], step[2])
        elif kind == "rollback":
            self.execute("BEGIN")
            for sql, params in step[1]:
                self.execute(sql, params)
            self.execute("ROLLBACK")
        elif kind == "add_column" and self.columns == 5:
            self.execute("ALTER TABLE stock ADD COLUMN note TEXT")
            self.columns += 1
        elif kind == "edit":
            self.edit(*step[1:])

    def edit(self, data_row: int, column: str, value: Any) -> None:
        """Type into a cell of the windowed DBTABLE, mirrored as an UPDATE."""
        region = self.tables[0]
        if data_row >= len(region.row_keys):
            return
        sku = region.row_keys[data_row]
        anchor = region.context.anchor
        col = anchor.col + self.workbook.database.table("stock").column_names.index(column)
        address = CellAddress(anchor.row + region.header_rows + data_row, col)
        if value is not None and column == "price":
            value = value + 0.5
        self.workbook.set("Sheet1", address, value)
        self.sqlite.connection.execute(
            f"UPDATE stock SET {column} = ? WHERE sku = ?", (value, sku)
        )

    # -- what the regions show --------------------------------------------------

    def grid(self, region) -> List[List[Any]]:
        return self.workbook.get_range(region.context.sheet, region.context.extent)

    def fresh_grid(self, region) -> List[List[Any]]:
        workbook = self.workbook
        if region.context.kind == "dbsql":
            fresh = workbook.dbsql("Fresh", region.context.anchor, region.sql)
        else:
            fresh = workbook.dbtable(
                "Fresh", region.context.anchor, "stock", window_rows=region.window_rows
            )
            fresh.scroll_to(region.offset)
        try:
            return self.grid(fresh)
        finally:
            workbook.remove_region(fresh.context.region_id)

    def check(self) -> None:
        for region in self.queries:
            grid = self.grid(region)
            assert_same(grid, self.fresh_grid(region))
            expected = self.sqlite.connection.execute(region.sql).fetchall()
            assert_same(data_rows(grid, 0), expected)
        for region in self.tables:
            grid = self.grid(region)
            assert_same(grid, self.fresh_grid(region))
            sql = "SELECT * FROM stock ORDER BY rowid"
            if region.window_rows is not None:
                sql += f" LIMIT {region.window_rows} OFFSET {region.offset}"
            expected = self.sqlite.connection.execute(sql).fetchall()
            assert_same(data_rows(grid, region.header_rows), expected)


def data_rows(grid: List[List[Any]], header_rows: int) -> List[List[Any]]:
    """The result rows of a grid (an empty result shows one blank row)."""
    rows = grid[header_rows:]
    return [row for row in rows if any(value is not None for value in row)] if len(
        rows
    ) == 1 else rows


def same_value(ours: Any, theirs: Any) -> bool:
    if isinstance(ours, float) or isinstance(theirs, float):
        return (
            isinstance(ours, (int, float))
            and isinstance(theirs, (int, float))
            and math.isclose(ours, theirs, rel_tol=1e-9)
        )
    return ours == theirs


def assert_same(ours: Sequence[Sequence[Any]], theirs: Sequence[Sequence[Any]]) -> None:
    assert len(ours) == len(theirs), (ours, theirs)
    for left, right in zip(ours, theirs):
        assert len(left) == len(right), (ours, theirs)
        assert all(same_value(a, b) for a, b in zip(left, right)), (ours, theirs)


SEED_ROWS = [
    (0, "w0", 5, 1.0, "c0"),
    (1, "w1", 25, 2.25, "c1"),
    (2, "w0", None, 0.5, "c0"),
    (3, None, 12, None, "c2"),
    (4, "w2", 3, 3.1, None),
    (5, "w1", 19, 1.0, "c1"),
    (6, "w2", 30, 2.25, "c2"),
]


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(STEP, max_size=6))
def test_regions_equal_a_fresh_install_and_sqlite(steps):
    harness = Harness(SEED_ROWS)
    try:
        harness.check()
        for step in steps:
            harness.step(step)
            harness.check()
    finally:
        harness.close()


def test_float_sum_cancellation_is_exact():
    harness = Harness([(0, "w0", 1, 1e16, "c0")])
    try:
        by_cat, _, ungrouped = harness.queries[:3]
        refreshes = [region.refresh_count for region in harness.queries]
        harness.execute("INSERT INTO stock VALUES (1, 'w0', 1, 1.0, 'c0')")
        harness.execute("DELETE FROM stock WHERE sku = 0")
        assert harness.grid(by_cat) == [["c0", 1, 1.0]]
        assert harness.grid(ungrouped)[0][1] == 1.0
        # Deleting MAX(price)'s holder costs nothing: only MIN(price) is shown.
        assert [region.refresh_count for region in harness.queries] == refreshes
    finally:
        harness.close()


def test_last_min_max_holder_leaving_falls_back_to_a_refresh():
    harness = Harness(SEED_ROWS)
    try:
        refreshes = [region.refresh_count for region in harness.queries]
        harness.execute("DELETE FROM stock WHERE sku = 6")  # MAX(qty) of w2
        refreshed = [
            region.sql
            for region, before in zip(harness.queries[:5], refreshes)
            if region.refresh_count != before
        ]
        assert refreshed == [QUERIES[4]]
        harness.check()
    finally:
        harness.close()


def test_a_window_only_rerenders_for_rows_it_shows():
    harness = Harness(SEED_ROWS)
    try:
        windowed = harness.tables[0]  # rows 2..4
        refreshes = windowed.refresh_count
        harness.execute("UPDATE stock SET qty = 1 WHERE sku = 6")  # below the window
        harness.execute("INSERT INTO stock VALUES (7, 'w0', 1, 1.0, 'c0')")
        harness.execute("UPDATE stock SET qty = 2 WHERE sku = 3")  # shown: patched
        assert windowed.refresh_count == refreshes
        harness.execute("DELETE FROM stock WHERE sku = 0")  # above: re-fetched
        assert windowed.refresh_count == refreshes + 1
        harness.check()
    finally:
        harness.close()


# -- logical work ------------------------------------------------------------------


def scanned(span) -> int:
    return span.counters.get("rows_scanned", 0) + sum(scanned(child) for child in span.children)


class CountingParses:
    """Counts calls of every SQL parse entry a region could reach."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for module, name in (
            (dbsql_module, "parse_statement"),
            (database_module, "parse_sql"),
        ):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, self._counting(original))

    def _counting(self, original):
        def parse(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        return parse


def single_row_costs(n_rows: int, monkeypatch) -> List[tuple]:
    """(rows scanned, parses, regions refreshed, regions patched) of one
    single-row UPDATE, INSERT and DELETE under the two htap aggregate
    regions."""
    workbook = Workbook()
    database = workbook.database
    database.execute(STOCK)
    database.execute("CREATE UNIQUE INDEX stock_sku ON stock (sku)")
    table = database.table("stock")
    for sku in range(n_rows):
        table.insert((sku, f"w{sku % 5}", sku % 40, sku * 0.25, f"c{sku % 7}"), emit=False)
    workbook.dbsql("Sheet1", "H1", BY_CAT)
    workbook.dbsql("Sheet1", "H10", LOW_STOCK)
    statements = [
        database_module.parse_sql(sql)[0]
        for sql in (
            "UPDATE stock SET qty = 3 WHERE sku = 17",
            f"INSERT INTO stock VALUES ({n_rows}, 'w1', 2, 1.5, 'c9')",
            "DELETE FROM stock WHERE sku = 5",
        )
    ]
    parses = CountingParses(monkeypatch)
    costs = []
    for parsed in statements:
        workbook.sync.stats.reset()
        parses.calls = 0
        root = database.tracer.begin("op")
        with root:
            with workbook.batch():
                database.execute_statement(parsed)
        tree = database.tracer.finish()
        stats = workbook.sync.stats
        costs.append((scanned(tree), parses.calls, stats.regions_refreshed, stats.regions_patched))
    monkeypatch.undo()
    return costs


def test_single_row_dml_costs_the_same_at_any_table_size(monkeypatch):
    small = single_row_costs(1_000, monkeypatch)
    large = single_row_costs(10_000, monkeypatch)
    assert small == large
    for statement_scans, parses, refreshes, patched in small:
        # The DML's own unique-index probe is the only row examined.
        assert statement_scans <= 1
        assert (parses, refreshes, patched) == (0, 0, 2)


def test_a_refresh_parses_nothing(monkeypatch):
    harness = Harness(SEED_ROWS)
    try:
        parses = CountingParses(monkeypatch)
        for region in harness.queries:
            region.refresh()
        assert parses.calls == 0
        harness.check()
    finally:
        harness.close()
