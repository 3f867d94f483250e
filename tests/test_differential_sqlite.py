"""Differential tests: our engine vs sqlite3 on the shared dialect.

Catches semantic drift in joins, aggregation, NULL handling and ORDER BY
that unit tests with hand-computed expectations might miss.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.sqlite_backend import SqliteComparator
from repro.errors import ConstraintError


SETUP = [
    "CREATE TABLE r (a INTEGER, b INTEGER, c TEXT)",
    "INSERT INTO r VALUES (1, 10, 'x'), (2, 20, 'y'), (3, NULL, 'x'), "
    "(4, 40, NULL), (5, 40, 'z'), (NULL, 7, 'x')",
    "CREATE TABLE s (a INTEGER, d TEXT)",
    "INSERT INTO s VALUES (1, 'one'), (2, 'two'), (3, 'three'), (9, 'nine'), (NULL, 'null')",
]


@pytest.fixture
def comparator():
    comp = SqliteComparator()
    comp.setup(SETUP)
    yield comp
    comp.close()


QUERIES = [
    "SELECT * FROM r",
    "SELECT a, b FROM r WHERE b > 15",
    "SELECT * FROM r WHERE b IS NULL",
    "SELECT * FROM r WHERE c = 'x' AND b < 15",
    "SELECT * FROM r WHERE a IN (1, 3, 5)",
    "SELECT * FROM r WHERE a NOT IN (1, 3, 5)",
    "SELECT * FROM r WHERE b BETWEEN 10 AND 40",
    "SELECT * FROM r WHERE c LIKE 'x%'",
    "SELECT a + b FROM r",
    "SELECT a * 2 + 1 FROM r WHERE a IS NOT NULL",
    "SELECT count(*) FROM r",
    "SELECT count(b) FROM r",
    "SELECT sum(b), min(b), max(b) FROM r",
    "SELECT c, count(*) FROM r GROUP BY c",
    "SELECT c, sum(b) FROM r GROUP BY c HAVING count(*) > 1",
    "SELECT count(DISTINCT b) FROM r",
    "SELECT DISTINCT c FROM r",
    "SELECT r.a, s.d FROM r JOIN s ON r.a = s.a",
    "SELECT r.a, s.d FROM r LEFT JOIN s ON r.a = s.a",
    "SELECT r.a, s.d FROM r, s WHERE r.a = s.a",
    "SELECT r.a FROM r CROSS JOIN s",
    "SELECT a FROM r WHERE a IN (SELECT a FROM s)",
    "SELECT a FROM r WHERE b = (SELECT max(b) FROM r)",
    "SELECT g, n FROM (SELECT c AS g, count(*) AS n FROM r GROUP BY c) t WHERE n >= 1",
    "SELECT CASE WHEN b >= 40 THEN 'hi' ELSE 'lo' END FROM r WHERE b IS NOT NULL",
    "SELECT abs(-a), length(c) FROM r WHERE a IS NOT NULL AND c IS NOT NULL",
    "SELECT coalesce(b, 0) FROM r",
    "SELECT upper(c) || '!' FROM r WHERE c IS NOT NULL",
    # ``%`` truncates both sides to integers; the remainder takes the
    # dividend's sign and is REAL when either operand is.
    "SELECT -7 % 3 FROM s WHERE a = 1",
    "SELECT 7 % -3 FROM s WHERE a = 1",
    "SELECT 7.5 % 2 FROM s WHERE a = 1",
    "SELECT -7.5 % 2 FROM s WHERE a = 1",
    "SELECT 7 % 0.5 FROM s WHERE a = 1",
    # ``/`` is REAL when either operand is (INTEGER / INTEGER truncates).
    "SELECT a / 2.0, b / a FROM r",
]


@pytest.mark.parametrize("query", QUERIES)
def test_unordered_agreement(comparator, query):
    comparator.assert_match(query)


ORDERED_QUERIES = [
    "SELECT a FROM r WHERE a IS NOT NULL ORDER BY a",
    "SELECT a, b FROM r ORDER BY b DESC, a ASC",
    "SELECT a FROM r ORDER BY a LIMIT 3",
    "SELECT a FROM r ORDER BY a LIMIT 2 OFFSET 2",
    "SELECT c, count(*) AS n FROM r GROUP BY c ORDER BY n DESC, c ASC",
]


@pytest.mark.parametrize("query", ORDERED_QUERIES)
def test_ordered_agreement(comparator, query):
    ok, ours, theirs = comparator.ordered_match(query)
    assert ok, f"ours={ours} sqlite={theirs}"


MIXED_SETUP = [
    "CREATE TABLE m (id INTEGER, v REAL, w TEXT, b BOOLEAN)",
    "INSERT INTO m VALUES (1, 2.5, 'b', TRUE), (2, NULL, 'a', FALSE), "
    "(3, 'abc', NULL, NULL), (4, 2, 'b', TRUE), (5, -1.5, 'a', FALSE), "
    "(6, 'abc', 'c', TRUE), (7, NULL, 'b', NULL), (8, 10, 'a', TRUE), "
    "(9, 'Z', 'c', FALSE), (10, 2.5, 'b', TRUE)",
]

#: ORDER BY over one key holding NULLs, numbers and text (``v``, and a
#: CASE that mixes INTEGER, REAL and TEXT), bools, several keys with
#: mixed directions, and LIMIT/OFFSET.  Every key has ties.
MIXED_ORDERED_QUERIES = [
    "SELECT id, v FROM m ORDER BY v, id",
    "SELECT id, v FROM m ORDER BY v DESC, id",
    "SELECT id, b FROM m ORDER BY b, id",
    "SELECT id, b FROM m ORDER BY b DESC, id DESC",
    "SELECT id FROM m ORDER BY CASE WHEN id < 4 THEN id WHEN id < 7 THEN v ELSE w END, id",
    "SELECT id FROM m ORDER BY CASE WHEN id < 4 THEN id WHEN id < 7 THEN v ELSE w END DESC, id",
    "SELECT id, w, v FROM m ORDER BY w DESC, v ASC, id",
    "SELECT id, w, v FROM m ORDER BY w ASC, v DESC, id",
    "SELECT id FROM m ORDER BY v > 2, id DESC",
    "SELECT id, v FROM m ORDER BY v, id LIMIT 4 OFFSET 3",
    "SELECT id, v FROM m ORDER BY v DESC, id LIMIT 3",
    "SELECT id, w FROM m ORDER BY w, b DESC, id LIMIT 5 OFFSET 2",
]


@pytest.fixture
def mixed():
    comp = SqliteComparator()
    comp.setup(MIXED_SETUP)
    yield comp
    comp.close()


@pytest.mark.parametrize("query", MIXED_ORDERED_QUERIES)
def test_mixed_type_order_agreement(mixed, query):
    ok, ours, theirs = mixed.ordered_match(query)
    assert ok, f"ours={ours} sqlite={theirs}"


@pytest.mark.parametrize("direction", ["ASC", "DESC"])
def test_order_by_ties_keep_input_order(mixed, direction):
    """Rows that tie on every key come out in input order, both ways."""
    query = f"SELECT id, w FROM m ORDER BY w {direction}"
    by_w = {}
    for row_id, w in mixed.database.execute("SELECT id, w FROM m").rows:
        by_w.setdefault(w, []).append(row_id)
    present = sorted((w for w in by_w if w is not None), reverse=direction == "DESC")
    groups = [None] + present if direction == "ASC" else present + [None]
    ids = [row_id for row_id, _ in mixed.database.execute(query).rows]
    assert ids == [row_id for w in groups for row_id in by_w[w]]
    ok, ours, theirs = mixed.ordered_match(query)
    assert ok, f"ours={ours} sqlite={theirs}"


def test_nan_text_in_a_real_column_sorts_as_sqlite_does():
    """``'nan'`` in a REAL column stays TEXT (sqlite's affinity rule), so
    it sorts after every number; a NaN float would tie with everything and
    scramble the order."""
    comp = SqliteComparator()
    try:
        comp.setup(
            [
                "CREATE TABLE t (id INTEGER, x REAL)",
                "INSERT INTO t VALUES (1, 3.0), (2, 'nan'), (3, 1.0), (4, NULL), "
                "(5, 2.0), (6, 0.5), (7, 4.0), (8, 'inf')",
            ]
        )
        for query in (
            "SELECT id, x FROM t ORDER BY x DESC LIMIT 3",
            "SELECT id, x FROM t WHERE x > 1.5 ORDER BY x, id",
            "SELECT id, x FROM t ORDER BY x",
        ):
            ok, ours, theirs = comp.ordered_match(query)
            assert ok, f"{query}: ours={ours} sqlite={theirs}"
        assert [x for _, x in ours][-2:] == ["inf", "nan"]
        # A NaN bound as a parameter is stored as NULL, as sqlite binds it.
        comp.database.execute("INSERT INTO t VALUES (?, ?)", (9, float("nan")))
        comp.connection.execute("INSERT INTO t VALUES (?, ?)", (9, float("nan")))
        comp.assert_match("SELECT id FROM t WHERE x IS NULL")
        ok, ours, theirs = comp.ordered_match("SELECT id, x FROM t ORDER BY x, id")
        assert ok, f"ours={ours} sqlite={theirs}"
    finally:
        comp.close()


@pytest.mark.parametrize(
    "query",
    [
        "SELECT x * 10 - x * 10 FROM t",
        "SELECT x * 10 * 0 FROM t",
        "SELECT (x * 10) / (x * 10) FROM t",
    ],
)
def test_arithmetic_making_a_nan_is_null(query):
    """``inf - inf``, ``inf * 0`` and ``inf / inf`` are NULL in sqlite,
    which has no NaN; a stored NaN already reads as NULL here."""
    comp = SqliteComparator()
    try:
        comp.setup(["CREATE TABLE t (x REAL)", "INSERT INTO t VALUES (1e308)"])
        comp.assert_match(query)
        assert comp.database.execute(query).rows == [(None,)]
    finally:
        comp.close()


@pytest.mark.parametrize(
    "query, expected",
    [
        ("SELECT a / b FROM t WHERE id = 1", [(3,)]),  # 7 / 2
        ("SELECT a / b FROM t WHERE id = 2", [(-3,)]),  # -7 / 2
        ("SELECT a / b FROM t WHERE id = 3", [(-3,)]),  # 7 / -2
        ("SELECT a / b FROM t WHERE id = 4", [(1537228672809129301,)]),  # 2**62 / 3
    ],
)
def test_integer_division_truncates(query, expected):
    """INTEGER / INTEGER truncates toward zero, in exact integer
    arithmetic: 2**62 / 3 must not round through a float (the comparator
    compares as floats, so the exact value is checked as well)."""
    comp = SqliteComparator()
    try:
        comp.setup(
            [
                "CREATE TABLE t (id INTEGER, a INTEGER, b INTEGER)",
                "INSERT INTO t VALUES (1, 7, 2), (2, -7, 2), (3, 7, -2), "
                "(4, 4611686018427387904, 3)",
            ]
        )
        comp.assert_match(query)
        assert comp.database.execute(query).rows == expected
    finally:
        comp.close()


class TestDmlAgreement:
    def test_update_then_query(self, comparator):
        comparator.setup(["UPDATE r SET b = b + 1 WHERE c = 'x'"])
        comparator.assert_match("SELECT a, b FROM r")

    def test_delete_then_query(self, comparator):
        comparator.setup(["DELETE FROM r WHERE b IS NULL"])
        comparator.assert_match("SELECT count(*) FROM r")

    def test_insert_select(self, comparator):
        comparator.setup(
            [
                "CREATE TABLE t2 (a INTEGER, b INTEGER)",
                "INSERT INTO t2 SELECT a, b FROM r WHERE a IS NOT NULL",
            ]
        )
        comparator.assert_match("SELECT * FROM t2")

    @pytest.mark.parametrize(
        "failing",
        [
            "INSERT INTO k VALUES (10, 1, 'a'), (11, 2, 'b'), (0, 3, 'c')",
            "INSERT INTO k VALUES (10, 1, 'a'), (11, 2, NULL)",
            "INSERT INTO k SELECT id + 10, u + 10, tag FROM k",
            "UPDATE k SET u = 40 WHERE id >= 1",
            "UPDATE k SET tag = CASE WHEN id = 2 THEN NULL ELSE 'z' END",
        ],
    )
    def test_failed_statement_is_backed_out_on_both(self, comparator, failing):
        """SQLite's default conflict action (ABORT) undoes the failing
        statement's earlier rows; so must we."""
        comparator.setup(
            [
                "CREATE TABLE k (id INTEGER PRIMARY KEY, u INTEGER, tag TEXT NOT NULL)",
                "CREATE UNIQUE INDEX k_u ON k (u)",
                "INSERT INTO k VALUES (0, 5, 'p'), (1, 20, 'q'), (2, 30, 'r')",
            ]
        )
        with pytest.raises(ConstraintError):
            comparator.database.execute(failing)
        with pytest.raises(sqlite3.IntegrityError):
            comparator.connection.execute(failing)
        ok, ours, theirs = comparator.ordered_match("SELECT * FROM k")
        assert ok, f"ours={ours} sqlite={theirs}"
        comparator.setup(["INSERT INTO k VALUES (10, 1, 'after')"])
        comparator.assert_match("SELECT * FROM k")


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(-5, 5)),
            st.one_of(st.none(), st.integers(0, 3)),
        ),
        min_size=0,
        max_size=25,
    ),
    threshold=st.integers(-5, 5),
)
def test_random_data_filter_and_group(rows, threshold):
    """Property: filtering and grouping agree with sqlite on random data."""
    comp = SqliteComparator()
    try:
        comp.setup(["CREATE TABLE q (x INTEGER, g INTEGER)"])
        for x, g in rows:
            x_sql = "NULL" if x is None else str(x)
            g_sql = "NULL" if g is None else str(g)
            comp.setup([f"INSERT INTO q VALUES ({x_sql}, {g_sql})"])
        comp.assert_match(f"SELECT x FROM q WHERE x > {threshold}")
        comp.assert_match("SELECT g, count(*), sum(x) FROM q GROUP BY g")
        comp.assert_match(f"SELECT count(*) FROM q WHERE x <> {threshold}")
    finally:
        comp.close()
