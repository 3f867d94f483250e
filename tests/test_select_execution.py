"""End-to-end SELECT execution tests (planner + executor + functions)."""

import datetime
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.engine.executor import ProjectedScan, sort_decorated
from repro.engine.planner import Planner
from repro.engine.sql_parser import parse_statement
from repro.engine.types import compare_values
from repro.errors import PlanError, SqlError


@pytest.fixture
def sample(db):
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, val REAL)")
    db.execute(
        "INSERT INTO t VALUES (1,'a',10.0),(2,'a',20.0),(3,'b',30.0),"
        "(4,'b',NULL),(5,'c',50.0)"
    )
    return db


class TestProjection:
    def test_star(self, sample):
        result = sample.execute("SELECT * FROM t")
        assert result.columns == ["id", "grp", "val"]
        assert len(result.rows) == 5

    def test_expressions_and_aliases(self, sample):
        result = sample.execute("SELECT id * 2 AS double, upper(grp) FROM t WHERE id = 1")
        assert result.columns == ["double", "upper"]
        assert result.rows == [(2, "A")]

    def test_select_without_from(self, db):
        assert db.execute("SELECT 2 + 3 * 4").scalar() == 14

    def test_qualified_star_in_join(self, sample):
        result = sample.execute(
            "SELECT a.* FROM t a JOIN t b ON a.id = b.id WHERE a.id = 1"
        )
        assert result.rows == [(1, "a", 10.0)]

    def test_column_case_insensitive(self, sample):
        assert sample.execute("SELECT ID FROM t WHERE id=1").scalar() == 1

    def test_unknown_column(self, sample):
        with pytest.raises(PlanError):
            sample.execute("SELECT nope FROM t")

    def test_ambiguous_column(self, sample):
        with pytest.raises(PlanError):
            sample.execute("SELECT id FROM t a JOIN t b ON a.id = b.id")


class TestFilters:
    def test_comparison(self, sample):
        assert len(sample.execute("SELECT * FROM t WHERE val >= 20").rows) == 3

    def test_null_never_matches(self, sample):
        assert len(sample.execute("SELECT * FROM t WHERE val <> 30").rows) == 3

    def test_is_null(self, sample):
        assert sample.execute("SELECT id FROM t WHERE val IS NULL").scalar() == 4
        assert len(sample.execute("SELECT id FROM t WHERE val IS NOT NULL").rows) == 4

    def test_in_list(self, sample):
        assert len(sample.execute("SELECT * FROM t WHERE id IN (1, 3, 9)").rows) == 2

    def test_between(self, sample):
        assert len(sample.execute("SELECT * FROM t WHERE id BETWEEN 2 AND 4").rows) == 3

    def test_like(self, sample):
        db = sample
        assert len(db.execute("SELECT * FROM t WHERE grp LIKE 'a'").rows) == 2
        assert len(db.execute("SELECT * FROM t WHERE grp LIKE '_'").rows) == 5

    def test_and_or(self, sample):
        rows = sample.execute(
            "SELECT id FROM t WHERE grp = 'a' OR (grp = 'b' AND val IS NULL)"
        ).rows
        assert sorted(r[0] for r in rows) == [1, 2, 4]

    def test_parameters(self, sample):
        result = sample.execute("SELECT id FROM t WHERE grp = ? AND val > ?", ("a", 15))
        assert result.rows == [(2,)]

    def test_case_expression(self, sample):
        result = sample.execute(
            "SELECT id, CASE WHEN val >= 30 THEN 'hi' WHEN val IS NULL THEN '?' "
            "ELSE 'lo' END FROM t ORDER BY id"
        )
        assert [r[1] for r in result.rows] == ["lo", "lo", "hi", "?", "hi"]


class TestJoins:
    @pytest.fixture
    def joined(self, db):
        db.execute("CREATE TABLE dept (did INT PRIMARY KEY, dname TEXT)")
        db.execute("INSERT INTO dept VALUES (1,'eng'),(2,'ops'),(3,'empty')")
        db.execute("CREATE TABLE emp (eid INT PRIMARY KEY, did INT, ename TEXT)")
        db.execute(
            "INSERT INTO emp VALUES (10,1,'ann'),(11,1,'bob'),(12,2,'cat'),(13,NULL,'dan')"
        )
        return db

    def test_inner_join(self, joined):
        rows = joined.execute(
            "SELECT ename, dname FROM emp JOIN dept ON emp.did = dept.did ORDER BY ename"
        ).rows
        assert rows == [("ann", "eng"), ("bob", "eng"), ("cat", "ops")]

    def test_left_join_preserves_unmatched(self, joined):
        rows = joined.execute(
            "SELECT ename, dname FROM emp LEFT JOIN dept ON emp.did = dept.did "
            "ORDER BY ename"
        ).rows
        assert ("dan", None) in rows
        assert len(rows) == 4

    def test_implicit_join_syntax(self, joined):
        rows = joined.execute(
            "SELECT ename FROM emp e, dept d WHERE e.did = d.did AND d.dname = 'ops'"
        ).rows
        assert rows == [("cat",)]

    def test_natural_join_collapses_common_column(self, joined):
        result = joined.execute("SELECT * FROM emp NATURAL JOIN dept")
        assert result.columns.count("did") == 1
        assert len(result.rows) == 3

    def test_using(self, joined):
        rows = joined.execute(
            "SELECT ename, dname FROM emp JOIN dept USING (did) ORDER BY ename"
        ).rows
        assert len(rows) == 3

    def test_three_way_join(self, joined):
        joined.execute("CREATE TABLE loc (did INT, city TEXT)")
        joined.execute("INSERT INTO loc VALUES (1,'NYC'),(2,'SFO')")
        rows = joined.execute(
            "SELECT ename, city FROM emp JOIN dept ON emp.did=dept.did "
            "JOIN loc ON dept.did=loc.did ORDER BY ename"
        ).rows
        assert rows == [("ann", "NYC"), ("bob", "NYC"), ("cat", "SFO")]

    def test_cross_join_cardinality(self, joined):
        assert len(joined.execute("SELECT * FROM emp CROSS JOIN dept").rows) == 12

    def test_non_equi_join_nested_loop(self, joined):
        rows = joined.execute(
            "SELECT e.eid, d.did FROM emp e JOIN dept d ON e.did < d.did"
        ).rows
        assert all(left is not None for left, _ in rows)

    def test_null_keys_never_join(self, joined):
        rows = joined.execute(
            "SELECT ename FROM emp JOIN dept ON emp.did = dept.did WHERE ename='dan'"
        ).rows
        assert rows == []

    def test_self_join(self, joined):
        rows = joined.execute(
            "SELECT a.ename, b.ename FROM emp a JOIN emp b "
            "ON a.did = b.did AND a.eid < b.eid"
        ).rows
        assert rows == [("ann", "bob")]


class TestAggregation:
    def test_scalar_aggregates(self, sample):
        result = sample.execute(
            "SELECT count(*), count(val), sum(val), avg(val), min(val), max(val) FROM t"
        )
        assert result.rows == [(5, 4, 110.0, 27.5, 10.0, 50.0)]

    def test_empty_table_aggregates(self, db):
        db.execute("CREATE TABLE e (x INT)")
        assert db.execute("SELECT count(*), sum(x) FROM e").rows == [(0, None)]

    def test_group_by(self, sample):
        rows = sample.execute(
            "SELECT grp, count(*), sum(val) FROM t GROUP BY grp ORDER BY grp"
        ).rows
        assert rows == [("a", 2, 30.0), ("b", 2, 30.0), ("c", 1, 50.0)]

    def test_having(self, sample):
        rows = sample.execute(
            "SELECT grp FROM t GROUP BY grp HAVING count(*) > 1 ORDER BY grp"
        ).rows
        assert rows == [("a",), ("b",)]

    def test_count_distinct(self, sample):
        sample.execute("INSERT INTO t VALUES (6, 'a', 10.0)")
        assert sample.execute("SELECT count(DISTINCT val) FROM t WHERE grp='a'").scalar() == 2

    def test_group_concat(self, sample):
        value = sample.execute(
            "SELECT group_concat(grp) FROM t WHERE val IS NOT NULL AND grp <> 'c'"
        ).scalar()
        assert value == "a,a,b"

    def test_aggregate_in_expression(self, sample):
        value = sample.execute("SELECT max(val) - min(val) FROM t").scalar()
        assert value == 40.0

    def test_having_without_group_rejected(self, sample):
        with pytest.raises(PlanError):
            sample.execute("SELECT id FROM t HAVING id > 1")

    def test_star_with_aggregate_rejected(self, sample):
        with pytest.raises(PlanError):
            sample.execute("SELECT *, count(*) FROM t")

    def test_scalar_min_two_args_is_not_aggregate(self, sample):
        assert sample.execute("SELECT min(3, 1)").scalar() == 1


class TestOrderLimit:
    def test_order_asc_desc(self, sample):
        rows = sample.execute("SELECT id FROM t ORDER BY grp ASC, id DESC").rows
        assert [r[0] for r in rows] == [2, 1, 4, 3, 5]

    def test_order_by_ordinal(self, sample):
        rows = sample.execute("SELECT id, val FROM t ORDER BY 2 DESC LIMIT 1").rows
        assert rows[0][0] == 5

    def test_order_by_alias(self, sample):
        rows = sample.execute("SELECT val * 2 AS dv FROM t ORDER BY dv LIMIT 2").rows
        assert rows[0] == (None,)  # NULLs first ascending

    def test_order_by_unselected_expression(self, sample):
        rows = sample.execute("SELECT id FROM t ORDER BY val DESC LIMIT 2").rows
        assert [r[0] for r in rows] == [5, 3]

    def test_nulls_first_asc_last_desc(self, sample):
        asc = sample.execute("SELECT id FROM t ORDER BY val").rows
        desc = sample.execute("SELECT id FROM t ORDER BY val DESC").rows
        assert asc[0][0] == 4
        assert desc[-1][0] == 4

    def test_limit_offset(self, sample):
        rows = sample.execute("SELECT id FROM t ORDER BY id LIMIT 2 OFFSET 1").rows
        assert [r[0] for r in rows] == [2, 3]

    def test_limit_zero(self, sample):
        assert sample.execute("SELECT id FROM t LIMIT 0").rows == []

    def test_distinct(self, sample):
        rows = sample.execute("SELECT DISTINCT grp FROM t ORDER BY grp").rows
        assert rows == [("a",), ("b",), ("c",)]

    def test_ordinal_out_of_range(self, sample):
        with pytest.raises(PlanError):
            sample.execute("SELECT id FROM t ORDER BY 9")


def comparator_sort(decorated, directions):
    """``ORDER BY`` as a three-way comparator sort: the reference order."""

    def compare(a, b):
        for index, descending in enumerate(directions):
            left, right = a[0][index], b[0][index]
            if left is None and right is None:
                continue
            if left is None:
                outcome = -1
            elif right is None:
                outcome = 1
            else:
                outcome = compare_values(left, right) or 0
            if outcome:
                return -outcome if descending else outcome
        return 0

    return sorted(decorated, key=functools.cmp_to_key(compare))


def assert_sorts_like_the_comparator(keys, directions):
    decorated = [(key, position) for position, key in enumerate(keys)]
    expected = comparator_sort(decorated, directions)
    sort_decorated(decorated, directions)
    # Payloads, not keys: NaN != NaN, and ties must keep input order.
    assert [position for _, position in decorated] == [
        position for _, position in expected
    ]


typed_key = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, min_value=-3, max_value=3),
    st.floats(allow_nan=False),
    st.sampled_from(["", "a", "B", "b", "ab"]),
)


class TestSortKeys:
    """``sort_decorated`` (typed keys, one pass per key) orders exactly as
    the three-way comparator does, including its fallback cases."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_typed_keys_match_the_comparator(self, data):
        n_keys = data.draw(st.integers(1, 3))
        directions = data.draw(st.lists(st.booleans(), min_size=n_keys, max_size=n_keys))
        # Per-key value pools, so a key is sometimes one class, sometimes mixed.
        pools = [data.draw(st.lists(typed_key, min_size=1, max_size=4)) for _ in range(n_keys)]
        keys = data.draw(
            st.lists(st.tuples(*[st.sampled_from(pool) for pool in pools]), max_size=30)
        )
        assert_sorts_like_the_comparator(keys, directions)

    @pytest.mark.parametrize("directions", [[False, False], [True, False], [False, True]])
    def test_date_and_datetime_keys_take_the_comparator(self, directions):
        day = datetime.date(2020, 1, 2)
        keys = [
            (day, 1),
            (None, 2),
            (datetime.datetime(2020, 1, 2, 9), 1),
            (datetime.date(2019, 5, 1), 3),
            (day, 0),
            (5, 1),
            ("text", 1),
            (datetime.datetime(2020, 1, 1, 23), None),
        ]
        assert_sorts_like_the_comparator(keys, directions)

    def test_nan_from_an_expression_takes_the_comparator(self):
        # NaN ties with everything under the comparator, which is not a
        # total order: one sort pass per key would order these rows
        # differently (2, 1, 0, 3 for ASC, DESC; the comparator's is 2, 3, 1, 0).
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER, x REAL, y REAL, k INTEGER)")
        inf = float("inf")
        for row in [(0, inf, 0.0, 0), (1, 1.0, 1.0, 1), (2, inf, 0.0, 2), (3, 5.0, 0.0, 0)]:
            db.execute("INSERT INTO t VALUES (?, ?, ?, ?)", row)
        rows = db.execute("SELECT id, x - x + y, k FROM t").rows
        assert [value != value for _, value, _ in rows] == [True, False, True, False]
        for directions in ([False, True], [False, False], [True, True], [True, False]):
            keys = [(value, k) for _, value, k in rows]
            assert_sorts_like_the_comparator(keys, directions)
            order = ", ".join(
                f"{key} {'DESC' if descending else 'ASC'}"
                for key, descending in zip(["x - x + y", "k"], directions)
            )
            got = [row_id for (row_id,) in db.execute(f"SELECT id FROM t ORDER BY {order}").rows]
            expected = comparator_sort([(key, i) for i, key in enumerate(keys)], directions)
            assert got == [i for _, i in expected]
        asc_desc = db.execute("SELECT id FROM t ORDER BY x - x + y, k DESC").rows
        assert [row_id for (row_id,) in asc_desc] == [2, 3, 1, 0]


class TestSubqueries:
    def test_in_subquery(self, sample):
        sample.execute("CREATE TABLE picks (id INT)")
        sample.execute("INSERT INTO picks VALUES (1),(3)")
        rows = sample.execute(
            "SELECT id FROM t WHERE id IN (SELECT id FROM picks) ORDER BY id"
        ).rows
        assert rows == [(1,), (3,)]

    def test_not_in_subquery(self, sample):
        sample.execute("CREATE TABLE picks (id INT)")
        sample.execute("INSERT INTO picks VALUES (1),(2),(3),(4)")
        rows = sample.execute(
            "SELECT id FROM t WHERE id NOT IN (SELECT id FROM picks)"
        ).rows
        assert rows == [(5,)]

    def test_scalar_subquery(self, sample):
        rows = sample.execute(
            "SELECT id FROM t WHERE val = (SELECT max(val) FROM t)"
        ).rows
        assert rows == [(5,)]

    def test_from_subquery(self, sample):
        rows = sample.execute(
            "SELECT g, n FROM (SELECT grp AS g, count(*) AS n FROM t GROUP BY grp) s "
            "WHERE n > 1 ORDER BY g"
        ).rows
        assert rows == [("a", 2), ("b", 2)]


def _scans(db, sql):
    """Plan a statement and return its ProjectedScan leaves (post-run)."""
    planner = Planner(db.catalog)
    planned = planner.plan_select(parse_statement(sql))
    rows = planned.execute()

    def walk(node):
        found = [node] if isinstance(node, ProjectedScan) else []
        for child in node.children():
            found.extend(walk(child))
        return found

    return rows, walk(planned.plan)


class TestColumnSetWork:
    """``cols_read`` accounting: the logical width each query actually
    pulled off the page chains."""

    def test_narrow_select_reads_two_columns(self, sample):
        rows, scans = _scans(sample, "SELECT grp FROM t WHERE val > 15")
        assert sorted(r[0] for r in rows) == ["a", "b", "c"]
        assert [s.cols_read for s in scans] == [2]
        assert scans[0].column_names == ["grp", "val"]

    def test_star_reads_full_width(self, sample):
        _, scans = _scans(sample, "SELECT * FROM t")
        assert [s.cols_read for s in scans] == [3]

    def test_count_star_reads_zero_columns(self, sample):
        rows, scans = _scans(sample, "SELECT count(*) FROM t")
        assert rows == [(5,)]
        assert [s.cols_read for s in scans] == [0]

    def test_join_reads_keys_plus_outputs(self, sample):
        rows, scans = _scans(
            sample,
            "SELECT a.grp FROM t a JOIN t b ON a.id = b.id WHERE b.val > 40",
        )
        assert rows == [("c",)]
        widths = {s.binding: s.cols_read for s in scans}
        assert widths == {"a": 2, "b": 2}  # a: grp+id, b: id+val

    def test_narrow_results_match_full_scan(self, sample):
        narrow = sample.execute("SELECT val FROM t WHERE grp = 'b' ORDER BY id")
        full = sample.execute("SELECT * FROM t ORDER BY id")  # every column
        grp, val = full.columns.index("grp"), full.columns.index("val")
        filtered = [(row[val],) for row in full.rows if row[grp] == "b"]
        assert narrow.rows == filtered == [(30.0,), (None,)]

    def test_narrow_scan_correct_over_column_layout(self, db):
        db.execute("CREATE TABLE w (a INT, b INT, c INT, d INT)")
        for i in range(30):
            db.execute(f"INSERT INTO w VALUES ({i}, {i * 2}, {i * 3}, {i * 4})")
        db.execute("ALTER TABLE w SET LAYOUT COLUMN")
        rows = db.execute("SELECT b, d FROM w WHERE c >= 60 ORDER BY a").rows
        assert rows == [(2 * i, 4 * i) for i in range(20, 30)]

    def test_sql_scans_charge_co_access_stats(self, db):
        db = Database(auto_layout_interval=0)
        db.execute("CREATE TABLE s (a INT, b INT, c INT)")
        db.execute("INSERT INTO s VALUES (1, 2, 3)")
        db.execute("SELECT a FROM s WHERE b > 0")
        stats = db.table("s").store.access_stats
        # The real query path charged the column set it scanned together.
        assert stats.group_scans.get(("a", "b")) == 1
        assert stats.columns["a"].scans == 1
        assert stats.columns["b"].scans == 1
        assert "c" not in stats.columns


class TestScalarFunctions:
    @pytest.mark.parametrize(
        "expression,expected",
        [
            ("abs(-4)", 4),
            ("round(2.567, 1)", 2.6),
            ("floor(2.7)", 2),
            ("ceil(2.1)", 3),
            ("length('hello')", 5),
            ("upper('aBc')", "ABC"),
            ("lower('aBc')", "abc"),
            ("trim('  x  ')", "x"),
            ("substr('hello', 2, 3)", "ell"),
            ("substr('hello', -3)", "llo"),
            ("replace('aaa', 'a', 'b')", "bbb"),
            ("instr('hello', 'll')", 3),
            ("coalesce(NULL, NULL, 7)", 7),
            ("nullif(3, 3)", None),
            ("ifnull(NULL, 'x')", "x"),
            ("cast('42' AS_IGNORED, 'INT')" if False else "cast('42', 'INT')", 42),
            ("typeof(1)", "integer"),
            ("sign(-9)", -1),
            ("mod(7, 3)", 1),
            ("power(2, 10)", 1024),
            ("concat('a', NULL, 'b')", "ab"),
        ],
    )
    def test_functions(self, db, expression, expected):
        assert db.execute(f"SELECT {expression}").scalar() == expected

    def test_unknown_function(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT frobnicate(1)")

    def test_division_by_zero_is_null(self, db):
        assert db.execute("SELECT 1 / 0").scalar() is None
        assert db.execute("SELECT 1 % 0").scalar() is None

    def test_integer_division_stays_exact(self, db):
        assert db.execute("SELECT 7 / 2").scalar() == 3.5
        assert db.execute("SELECT 8 / 2").scalar() == 4

    def test_concat_operator_null(self, db):
        assert db.execute("SELECT 'a' || NULL").scalar() is None
