"""White-box planner tests: plan shapes, projection/predicate pushdown,
join algorithm choice, and operator-level row accounting."""

import pytest

from repro import Database
from repro.engine.executor import (
    ExecContext,
    FilterNode,
    HashJoin,
    NestedLoopJoin,
    PlanNode,
    ProjectedScan,
    ValuesScan,
)
from repro.engine.planner import Planner
from repro.engine.sql_parser import parse_statement


@pytest.fixture
def db_two_tables(db):
    db.execute("CREATE TABLE a (x INT, y INT)")
    db.execute("CREATE TABLE b (x INT, z INT)")
    for i in range(20):
        db.execute(f"INSERT INTO a VALUES ({i}, {i * 2})")
        db.execute(f"INSERT INTO b VALUES ({i}, {i * 3})")
    return db


def plan_of(db, sql) -> PlanNode:
    planner = Planner(db.catalog)
    return planner.plan_select(parse_statement(sql)).plan


def find_nodes(node, kind):
    found = []
    if isinstance(node, kind):
        found.append(node)
    for child in node.children():
        found.extend(find_nodes(child, kind))
    return found


def scan_of(plan, binding):
    scans = [s for s in find_nodes(plan, ProjectedScan) if s.binding == binding]
    assert len(scans) == 1, f"expected one scan of {binding!r}"
    return scans[0]


class TestJoinSelection:
    def test_equi_join_uses_hash_join(self, db_two_tables):
        plan = plan_of(db_two_tables, "SELECT * FROM a JOIN b ON a.x = b.x")
        assert find_nodes(plan, HashJoin)
        assert not find_nodes(plan, NestedLoopJoin)

    def test_non_equi_join_uses_nested_loop(self, db_two_tables):
        plan = plan_of(db_two_tables, "SELECT * FROM a JOIN b ON a.x < b.x")
        assert find_nodes(plan, NestedLoopJoin)
        assert not find_nodes(plan, HashJoin)

    def test_implicit_join_predicate_becomes_hash_key(self, db_two_tables):
        plan = plan_of(
            db_two_tables, "SELECT * FROM a, b WHERE a.x = b.x AND a.y > 5"
        )
        assert find_nodes(plan, HashJoin)

    def test_mixed_condition_residual(self, db_two_tables):
        plan = plan_of(
            db_two_tables,
            "SELECT * FROM a JOIN b ON a.x = b.x AND a.y < b.z",
        )
        joins = find_nodes(plan, HashJoin)
        assert joins and joins[0].residual is not None

    def test_natural_join_projects_common_column_once(self, db_two_tables):
        plan = plan_of(db_two_tables, "SELECT * FROM a NATURAL JOIN b")
        names = [name for _, name in plan.columns]
        assert names.count("x") == 1


class TestPushdown:
    def test_single_table_conjunct_absorbed_into_scan(self, db_two_tables):
        plan = plan_of(
            db_two_tables,
            "SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y > 5 AND b.z > 5",
        )
        joins = find_nodes(plan, HashJoin)
        assert joins
        join = joins[0]
        # Both join inputs are scans carrying their pushed predicate —
        # no FilterNode materialises full rows above them.
        assert isinstance(join.left, ProjectedScan) and join.left.predicates
        assert isinstance(join.right, ProjectedScan) and join.right.predicates
        assert not find_nodes(plan, FilterNode)

    def test_pushdown_not_into_right_of_left_join(self, db_two_tables):
        plan = plan_of(
            db_two_tables,
            "SELECT * FROM a LEFT JOIN b ON a.x = b.x WHERE b.z > 5",
        )
        joins = find_nodes(plan, HashJoin)
        assert joins
        # The b.z predicate must sit ABOVE the join (filtering after null
        # extension), not inside its right input.
        assert isinstance(joins[0].right, ProjectedScan)
        assert not joins[0].right.predicates
        assert find_nodes(plan, FilterNode)

    def test_pushdown_reduces_join_input_rows(self, db_two_tables):
        plan = plan_of(
            db_two_tables,
            "SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y >= 30",
        )
        list(plan.run(ExecContext()))
        a_scan = scan_of(plan, "a")
        # The a-side scan examined all 20 rows but emitted only the 5
        # matches into the join.
        assert a_scan.rows_scanned == 20
        assert a_scan.rows_out == 5


class TestColumnSets:
    """The planner's required-column-set extraction: what a
    ProjectedScan is asked to read off the page chains."""

    def test_select_list_plus_where(self, db_two_tables):
        plan = plan_of(db_two_tables, "SELECT x FROM a WHERE y > 3")
        scan = scan_of(plan, "a")
        assert scan.column_names == ["x", "y"]
        assert scan.cols_read == 2

    def test_star_reads_every_column(self, db_two_tables):
        plan = plan_of(db_two_tables, "SELECT * FROM a")
        assert scan_of(plan, "a").column_names == ["x", "y"]

    def test_single_column_projection_is_minimal(self, db_two_tables):
        plan = plan_of(db_two_tables, "SELECT y FROM a")
        scan = scan_of(plan, "a")
        assert scan.column_names == ["y"]
        assert scan.cols_read == 1

    def test_count_star_reads_no_columns(self, db_two_tables):
        plan = plan_of(db_two_tables, "SELECT count(*) FROM a")
        scan = scan_of(plan, "a")
        assert scan.column_names == []
        assert scan.cols_read == 0
        planner = Planner(db_two_tables.catalog)
        planned = planner.plan_select(parse_statement("SELECT count(*) FROM a"))
        assert planned.execute() == [(20,)]

    def test_aliases_and_expressions(self, db_two_tables):
        plan = plan_of(
            db_two_tables, "SELECT x * 2 AS dx FROM a ORDER BY dx"
        )
        assert scan_of(plan, "a").column_names == ["x"]

    def test_order_by_unselected_column_is_included(self, db_two_tables):
        plan = plan_of(db_two_tables, "SELECT x FROM a ORDER BY y")
        assert scan_of(plan, "a").column_names == ["x", "y"]

    def test_join_keys_are_included(self, db_two_tables):
        plan = plan_of(
            db_two_tables, "SELECT a.y FROM a JOIN b ON a.x = b.x"
        )
        assert scan_of(plan, "a").column_names == ["x", "y"]
        assert scan_of(plan, "b").column_names == ["x"]

    def test_qualified_star_widens_only_its_binding(self, db_two_tables):
        plan = plan_of(
            db_two_tables, "SELECT a.* FROM a JOIN b ON a.x = b.x"
        )
        assert scan_of(plan, "a").column_names == ["x", "y"]
        assert scan_of(plan, "b").column_names == ["x"]

    def test_unqualified_ref_charges_all_owners(self, db_two_tables):
        # `x` exists in both tables; the superset keeps the ambiguity
        # error intact while staying correct for resolvable names.
        plan = plan_of(
            db_two_tables, "SELECT a.y, z FROM a JOIN b ON a.x = b.x"
        )
        assert "z" in scan_of(plan, "b").column_names

    def test_natural_join_keeps_tables_full_width(self, db_two_tables):
        plan = plan_of(db_two_tables, "SELECT a.y FROM a NATURAL JOIN b")
        assert scan_of(plan, "a").column_names == ["x", "y"]
        assert scan_of(plan, "b").column_names == ["x", "z"]

    def test_group_by_and_having_columns_included(self, db_two_tables):
        plan = plan_of(
            db_two_tables,
            "SELECT count(*) FROM a GROUP BY y HAVING max(x) > 1",
        )
        assert scan_of(plan, "a").column_names == ["x", "y"]


class TestAccounting:
    def test_rows_out_counters(self, db_two_tables):
        plan = plan_of(db_two_tables, "SELECT * FROM a WHERE y > 10")
        rows = list(plan.run(ExecContext()))
        assert plan.rows_out == len(rows)
        scan = scan_of(plan, "a")
        assert scan.rows_scanned == 20
        assert scan.rows_out == len(rows)

    def test_explain_tree(self, db_two_tables):
        plan = plan_of(db_two_tables, "SELECT x FROM a WHERE y > 3 ORDER BY x LIMIT 2")
        text = plan.explain()
        assert "ProjectedScan" in text
        assert "cols=[x, y]" in text
        assert "Sort" in text
        assert "Limit" in text

    def test_total_rows_processed(self, db_two_tables):
        plan = plan_of(db_two_tables, "SELECT * FROM a JOIN b ON a.x = b.x")
        list(plan.run(ExecContext()))
        assert plan.total_rows_processed() >= 60  # 20 + 20 inputs + 20 out


class TestValuesScanAndDual:
    def test_select_without_from_uses_dual(self, db):
        plan = plan_of(db, "SELECT 1, 2")
        scans = find_nodes(plan, ValuesScan)
        assert scans and scans[0].name == "dual"

    def test_limit_with_parameters(self, db_two_tables):
        planner = Planner(db_two_tables.catalog)
        planned = planner.plan_select(
            parse_statement("SELECT x FROM a ORDER BY x LIMIT ? OFFSET ?")
        )
        rows = planned.execute((3, 2))
        assert [r[0] for r in rows] == [2, 3, 4]
