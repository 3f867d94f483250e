"""Query planner: AST → operator tree.

Interface-aware query processing (paper §3: "the query processor is enhanced
to support and optimize the execution for positional addressing").  The
planner resolves names against the catalog *and* against spreadsheet ranges:
``RANGETABLE`` sources become in-memory relations supplied by a
:class:`RangeResolver`, and ``RANGEVALUE`` scalars are bound at plan time —
this is how a single SQL statement joins database tables with sheet data
(Feature 1, Fig 2a).

Optimisations implemented (deliberately classical):

* **projection pushdown**: each base table's *required column set* (SELECT
  list + WHERE conjuncts + join keys + GROUP BY/HAVING/ORDER BY refs) is
  computed up front and the plan scans it through a
  :class:`~repro.engine.executor.ProjectedScan`, so only the attribute-group
  page chains covering that set are ever touched (and the store's
  co-access statistics see exactly which columns travel together),
* WHERE conjunct **pushdown** to the deepest plan node whose scope resolves
  the conjunct (including below inner joins, not below the null-producing
  side of LEFT joins); conjuncts reaching a ``ProjectedScan`` are absorbed
  into the scan and evaluated on the narrow fragments,
* **hash joins** for equi-join conditions (explicit ON, NATURAL, USING, and
  implicit ``FROM a, b WHERE a.x = b.y``), nested loops otherwise,
* single-pass hash **aggregation** with post-aggregation expression rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine import sql_ast as ast
from repro.engine.catalog import Catalog
from repro.engine.executor import (
    AggregateNode,
    AggregateSpec,
    ConcatNode,
    DistinctNode,
    ExecContext,
    FilterNode,
    HashJoin,
    IndexScan,
    LimitNode,
    NestedLoopJoin,
    PlanNode,
    ProjectedScan,
    ProjectNode,
    SortNode,
    ValuesScan,
)
from repro.engine.expr import Scope, collect_aggregates, compile_expression
from repro.engine.hybridstore import pages_for_group
from repro.engine.table import Table
from repro.errors import PlanError

__all__ = ["RangeResolver", "PlannedQuery", "Planner", "order_by_output", "output_name"]

#: Access-path cost constants, in page-read units.  Decoding and
#: filtering one row off a fetched page is ~two orders of magnitude
#: cheaper than a block read; an in-memory B+-tree descent costs a
#: fraction of a read (no I/O, some comparisons).
_ROW_DECODE_COST = 0.01
_PROBE_COST = 0.1


class RangeResolver:
    """Supplies spreadsheet data to the planner.

    The DataSpread layer implements this against live sheets; the default
    implementation refuses, which is the behaviour of a standalone database
    session with no interface attached."""

    def resolve_range_value(self, reference: str) -> Any:
        raise PlanError(f"RANGEVALUE({reference}) requires a spreadsheet context")

    def resolve_range_table(self, reference: str) -> Tuple[List[str], List[Tuple[Any, ...]]]:
        """Returns (column_names, rows)."""
        raise PlanError(f"RANGETABLE({reference}) requires a spreadsheet context")


@dataclass
class PlannedQuery:
    plan: PlanNode
    column_names: List[str]

    def execute(self, params: Sequence[Any] = ()) -> List[Tuple[Any, ...]]:
        return list(self.plan.run(ExecContext(params)))


def _split_conjuncts(expression: Optional[ast.Expression]) -> List[ast.Expression]:
    if expression is None:
        return []
    if isinstance(expression, ast.BinaryOp) and expression.op == "AND":
        return _split_conjuncts(expression.left) + _split_conjuncts(expression.right)
    return [expression]


def _resolvable(expression: ast.Expression, scope: Scope) -> bool:
    """Can every column reference in the expression bind in this scope?"""
    for node in ast.walk_expression(expression):
        if isinstance(node, ast.ColumnRef):
            try:
                scope.resolve(node.name, node.table)
            except PlanError:
                return False
        elif isinstance(node, ast.Star):
            return False
    return True


#: Per-binding required-column sets: a set of lower-cased column names, or
#: ``None`` meaning "every column" (a star expansion or NATURAL join).
RequiredColumns = Dict[str, Optional[Set[str]]]


class Planner:
    def __init__(self, catalog: Catalog, resolver: Optional[RangeResolver] = None):
        self.catalog = catalog
        self.resolver = resolver if resolver is not None else RangeResolver()

    # -- public entry points ------------------------------------------------

    def plan_select(self, stmt) -> PlannedQuery:
        if isinstance(stmt, ast.CompoundSelect):
            return self._plan_compound(stmt)
        return self._plan_select(stmt)

    def plan_dml_scan(self, table: Table, where: ast.Expression) -> PlanNode:
        """The access path that finds a DML statement's rows: a scan of
        just the columns ``where`` names with its conjuncts pushed in, or
        the index probe :meth:`_choose_access_path` prices below it — the
        operators a SELECT with the same WHERE would get.  The caller
        drives the node's ``located()``."""
        refs = {
            node.name.lower()
            for node in ast.walk_expression(where)
            if isinstance(node, ast.ColumnRef)
        }
        names = [name for name in table.column_names if name.lower() in refs]
        scan = ProjectedScan(table, table.name, names)
        for conjunct in _split_conjuncts(where):
            scan.add_predicate(self._compile(conjunct, scan.scope), "pushed", conjunct)
        return self._choose_access_path(scan)

    def _plan_compound(self, stmt: ast.CompoundSelect) -> PlannedQuery:
        planned = [self._plan_select(select) for select in stmt.selects]
        widths = {len(p.column_names) for p in planned}
        if len(widths) != 1:
            raise PlanError("UNION members must have the same number of columns")
        dedup_flags = [op == "union" for op in stmt.operators]
        node = ConcatNode([p.plan for p in planned], dedup_flags)
        return PlannedQuery(node, planned[0].column_names)

    def _subquery_runner(self, params_holder: Sequence[Any] = ()):
        """Executes an uncorrelated subselect.  Parameters do not propagate
        into subqueries (uncorrelated-only support; see DESIGN.md)."""
        def runner(select: ast.SelectStmt) -> List[Tuple[Any, ...]]:
            planned = self._plan_select(select)
            return planned.execute(params_holder)

        return runner

    def _compile(
        self,
        expression: ast.Expression,
        scope: Scope,
        agg_values: Optional[Dict[ast.FuncCall, int]] = None,
    ):
        return compile_expression(
            expression,
            scope,
            agg_values=agg_values,
            subquery_runner=self._subquery_runner(),
            range_resolver=self.resolver.resolve_range_value,
        )

    # -- required column sets -------------------------------------------------

    def _gather_tables(self, item: Optional[ast.FromItem], out: List[Tuple[str, Any]]) -> None:
        """All base-table bindings under a FROM item (subqueries plan
        their own column sets recursively and are not descended into)."""
        if isinstance(item, ast.TableRef):
            out.append((item.binding.lower(), self.catalog.get(item.name)))
        elif isinstance(item, ast.Join):
            self._gather_tables(item.left, out)
            self._gather_tables(item.right, out)

    def _required_columns(self, stmt: ast.SelectStmt) -> RequiredColumns:
        """The minimal column set each base table must supply.

        Collects every column reference in the statement — SELECT list,
        WHERE, GROUP BY, HAVING, ORDER BY, and join conditions — and
        attributes it to the bindings that can resolve it (an unqualified
        name charges every table having that column: a superset is always
        safe, the planner's scope resolution still raises on genuine
        ambiguity).  ``None`` marks a full-width binding: a star
        expansion, or membership in a NATURAL join (whose common-column
        computation needs the full schemas).  A bare ``COUNT(*)`` needs
        no columns at all — the scan then drives off the positional index
        without touching a single page.
        """
        tables: List[Tuple[str, Any]] = []
        self._gather_tables(stmt.source, tables)
        required: RequiredColumns = {binding: set() for binding, _ in tables}

        def mark_all(binding: Optional[str]) -> None:
            if binding is None:
                for key in required:
                    required[key] = None
            elif binding in required:
                required[binding] = None

        def add(binding: str, name: str) -> None:
            # Untracked bindings (subquery aliases) and full-width
            # bindings both fall through.
            wanted = required.get(binding)
            if wanted is not None:
                wanted.add(name.lower())

        def collect(expression: ast.Expression) -> None:
            for node in ast.walk_expression(expression):
                if isinstance(node, ast.ColumnRef):
                    if node.table is not None:
                        add(node.table.lower(), node.name)
                    else:
                        for binding, table in tables:
                            if table.schema.has_column(node.name):
                                add(binding, node.name)
                # A Star inside an expression is COUNT(*): counts rows,
                # needs no column data.

        def walk_joins(item: Optional[ast.FromItem]) -> None:
            if not isinstance(item, ast.Join):
                return
            walk_joins(item.left)
            walk_joins(item.right)
            if item.condition is not None:
                collect(item.condition)
            for name in item.using:
                for binding, table in tables:
                    if table.schema.has_column(name):
                        add(binding, name)
            if item.natural:
                # NATURAL join semantics hinge on the *full* column sets
                # of both sides; keep every table underneath full-width.
                subtree: List[Tuple[str, Any]] = []
                self._gather_tables(item, subtree)
                for binding, _ in subtree:
                    mark_all(binding)

        for item in stmt.items:
            expression = item.expression
            if isinstance(expression, ast.Star):
                mark_all(expression.table.lower() if expression.table else None)
            else:
                collect(expression)
        for clause in (stmt.where, stmt.having, stmt.limit, stmt.offset):
            if clause is not None:
                collect(clause)
        for expression in stmt.group_by:
            collect(expression)
        for order in stmt.order_by:
            collect(order.expression)
        walk_joins(stmt.source)
        return required

    # -- FROM clause -----------------------------------------------------------

    def _plan_source(
        self,
        item: ast.FromItem,
        pending: List[ast.Expression],
        allow_push: bool,
        required: RequiredColumns,
    ) -> PlanNode:
        if isinstance(item, ast.TableRef):
            table = self.catalog.get(item.name)
            names: Optional[List[str]] = None
            wanted = required.get(item.binding.lower())
            if wanted is not None:
                names = [
                    name for name in table.column_names if name.lower() in wanted
                ]
            node: PlanNode = ProjectedScan(table, item.binding, names)
        elif isinstance(item, ast.RangeTable):
            columns, rows = self.resolver.resolve_range_table(item.reference)
            binding = item.binding
            node = ValuesScan(rows, [(binding, name) for name in columns], binding)
        elif isinstance(item, ast.SubquerySource):
            inner = self._plan_select(item.select)
            names = inner.column_names
            rebound = [(item.alias, name) for name in names]
            identity = [
                (lambda index: (lambda row, params: row[index]))(i)
                for i in range(len(names))
            ]
            node = ProjectNode(inner.plan, identity, rebound)
        elif isinstance(item, ast.Join):
            return self._plan_join(item, pending, allow_push, required)
        else:  # pragma: no cover - parser prevents this
            raise PlanError(f"unsupported FROM item {type(item).__name__}")
        if allow_push:
            node = self._push_filters(node, pending)
            if isinstance(node, ProjectedScan) and node.predicates:
                node = self._choose_access_path(node)
        return node

    def _choose_access_path(self, scan: ProjectedScan) -> PlanNode:
        """Cost-based index-vs-scan choice for one base-table scan.

        Prices both paths with the E6 block model: the batch scan costs
        the covering chains' pages, discounted by the zone-map skip
        fraction the store can already prove from cached page zones; an
        index path costs one probe descent plus a late-materialized row
        fetch (one page touch per covering group) per estimated match.
        Extraction runs with ``params=None`` so a ``?`` point probe still
        shapes the decision; actual bounds are re-extracted at run time.
        """
        ranges = scan.sargable_ranges(None)
        if not ranges:
            return scan
        table = scan.table
        candidates = [
            (interval_set, index)
            for name, interval_set in ranges.items()
            for index in [table.index_for(name)]
            if index is not None and not interval_set.includes_null
        ]
        if not candidates:
            return scan  # nothing to price the scan against
        store = table.store
        n_rows = store.n_rows
        page_capacity = store.pool.page_capacity
        covering = {
            table.schema.group_of(name) for name in scan.column_names
        }
        scan_pages = sum(
            pages_for_group(
                n_rows, len(table.schema.groups[group]), page_capacity
            )
            for group in covering
        )
        skip = 0.0
        for name, interval_set in ranges.items():
            skip = max(skip, store.skip_fraction(name, interval_set))
        # Pages the scan must fetch (at least one per covering group),
        # plus a CPU term: every row on a surviving page is decoded and
        # filtered even when only a handful match.
        surviving = 1.0 - skip
        scan_cost = (
            max(float(max(1, len(covering))), scan_pages * surviving)
            + _ROW_DECODE_COST * n_rows * surviving
        )
        best: Optional[Tuple[float, Any]] = None
        for interval_set, index in candidates:
            points = interval_set.points()
            if points is not None:
                estimated = (
                    len(points)
                    if index.unique
                    else min(n_rows, max(len(points), n_rows // 100))
                )
            else:
                # Range probe with no zone statistics to sharpen it:
                # assume a decile survives — selective enough to beat a
                # scan only on wide tables or tight buffer pools.
                estimated = max(1, n_rows // 10)
            # The B+-tree is memory-resident, so the descent is CPU only
            # (_PROBE_COST); the real price is the late-materialized row
            # fetch — one page touch per covering group per match.
            cost = _PROBE_COST + estimated * max(1, len(covering))
            if best is None or cost < best[0]:
                best = (cost, index)
        if best is not None and best[0] < scan_cost:
            node = IndexScan(table, scan.binding, scan.column_names, best[1])
            for predicate, description, expression in scan.predicates:
                # Same (binding, column) scope shape, so the compiled
                # closures carry over unchanged.
                node.add_predicate(predicate, description, expression)
            return node
        return scan

    def _push_filters(self, node: PlanNode, pending: List[ast.Expression]) -> PlanNode:
        taken = [c for c in pending if _resolvable(c, node.scope)]
        for conjunct in taken:
            pending.remove(conjunct)
            compiled = self._compile(conjunct, node.scope)
            if isinstance(node, ProjectedScan):
                # Absorb into the scan: the predicate runs on the narrow
                # fragment before any output tuple is materialised.
                node.add_predicate(compiled, "pushed", conjunct)
            else:
                node = FilterNode(node, compiled, "pushed")
        return node

    def _plan_join(
        self,
        join: ast.Join,
        pending: List[ast.Expression],
        allow_push: bool,
        required: RequiredColumns,
    ) -> PlanNode:
        left_push = allow_push
        right_push = allow_push and join.kind != "left"
        left = self._plan_source(join.left, pending, left_push, required)
        right = self._plan_source(join.right, pending, right_push, required)

        condition_conjuncts = _split_conjuncts(join.condition)
        drop_right: List[str] = []

        if join.natural or join.using:
            if join.using:
                common = [name.lower() for name in join.using]
            else:
                left_names = {name for _, name in left.scope.columns}
                right_names = {name for _, name in right.scope.columns}
                common = sorted(left_names & right_names)
            if join.natural and not common:
                # NATURAL JOIN with no shared columns degrades to cross join.
                common = []
            for name in common:
                condition_conjuncts.append(
                    ast.BinaryOp(
                        "=",
                        ast.ColumnRef(name, table=_sole_binding(left.scope, name)),
                        ast.ColumnRef(name, table=_sole_binding(right.scope, name)),
                    )
                )
            drop_right = list(common)

        # Implicit-join predicates: WHERE conjuncts spanning both sides of an
        # inner join become join conditions.
        if join.kind in ("inner", "cross") and allow_push:
            combined_scope = left.scope.merged_with(right.scope)
            for conjunct in list(pending):
                if (
                    _resolvable(conjunct, combined_scope)
                    and not _resolvable(conjunct, left.scope)
                    and not _resolvable(conjunct, right.scope)
                ):
                    pending.remove(conjunct)
                    condition_conjuncts.append(conjunct)

        kind = "left" if join.kind == "left" else "inner"
        node = self._build_join(left, right, condition_conjuncts, kind)

        if drop_right:
            node = self._project_out_right_duplicates(node, left, right, drop_right)
        return node

    def _build_join(
        self,
        left: PlanNode,
        right: PlanNode,
        conjuncts: List[ast.Expression],
        kind: str,
    ) -> PlanNode:
        combined_scope = left.scope.merged_with(right.scope)
        equi: List[Tuple[int, int]] = []
        residual: List[ast.Expression] = []
        for conjunct in conjuncts:
            pair = self._equi_key(conjunct, left.scope, right.scope)
            if pair is not None:
                equi.append(pair)
            else:
                residual.append(conjunct)
        if equi:
            residual_fn = None
            if residual:
                residual_fn = self._compile(_conjoin(residual), combined_scope)
            return HashJoin(
                left,
                right,
                [pair[0] for pair in equi],
                [pair[1] for pair in equi],
                kind,
                residual_fn,
            )
        condition_fn = None
        if conjuncts:
            condition_fn = self._compile(_conjoin(conjuncts), combined_scope)
        nl_kind = kind if condition_fn is not None or kind == "left" else "cross"
        return NestedLoopJoin(left, right, condition_fn, nl_kind)

    def _equi_key(
        self, conjunct: ast.Expression, left: Scope, right: Scope
    ) -> Optional[Tuple[int, int]]:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        sides = (conjunct.left, conjunct.right)
        if not all(isinstance(side, ast.ColumnRef) for side in sides):
            return None
        first, second = sides
        for a, b in ((first, second), (second, first)):
            try:
                left_index = left.resolve(a.name, a.table)
            except PlanError:
                continue
            try:
                right_index = right.resolve(b.name, b.table)
            except PlanError:
                continue
            # Ensure the other side does NOT also resolve on the same scope
            # (e.g. self-comparison within one table is a filter, not a key).
            return (left_index, right_index)
        return None

    def _project_out_right_duplicates(
        self,
        node: PlanNode,
        left: PlanNode,
        right: PlanNode,
        common: List[str],
    ) -> PlanNode:
        keep: List[int] = list(range(len(left.columns)))
        for offset, (_, name) in enumerate(right.scope.columns):
            if name not in common:
                keep.append(len(left.columns) + offset)
        functions = [
            (lambda index: (lambda row, params: row[index]))(i) for i in keep
        ]
        columns = [node.columns[i] for i in keep]
        return ProjectNode(node, functions, columns)

    # -- SELECT ---------------------------------------------------------------

    def _plan_select(self, stmt: ast.SelectStmt) -> PlannedQuery:
        pending = _split_conjuncts(stmt.where)
        if stmt.source is None:
            node: PlanNode = ValuesScan([()], [], "dual")
        else:
            required = self._required_columns(stmt)
            node = self._plan_source(
                stmt.source, pending, allow_push=True, required=required
            )
        # Whatever could not be pushed applies here.
        for conjunct in pending:
            node = FilterNode(node, self._compile(conjunct, node.scope), "where")

        # -- aggregation ----------------------------------------------------
        aggregate_nodes: List[ast.FuncCall] = []
        for item in stmt.items:
            if not isinstance(item.expression, ast.Star):
                aggregate_nodes.extend(collect_aggregates(item.expression))
        if stmt.having is not None:
            aggregate_nodes.extend(collect_aggregates(stmt.having))
        for order in stmt.order_by:
            aggregate_nodes.extend(collect_aggregates(order.expression))
        # Deduplicate, preserving order.
        unique_aggs: List[ast.FuncCall] = []
        for node_expr in aggregate_nodes:
            if node_expr not in unique_aggs:
                unique_aggs.append(node_expr)
        is_aggregated = bool(unique_aggs) or bool(stmt.group_by)

        agg_values: Optional[Dict[ast.FuncCall, int]] = None
        if is_aggregated:
            source_scope = node.scope
            group_fns = [self._compile(e, source_scope) for e in stmt.group_by]
            specs: List[AggregateSpec] = []
            agg_values = {}
            for index, call in enumerate(unique_aggs):
                argument = None
                if call.args and not isinstance(call.args[0], ast.Star):
                    argument = self._compile(call.args[0], source_scope)
                specs.append(AggregateSpec(call.name, argument, call.distinct))
                agg_values[call] = len(source_scope) + index
            node = AggregateNode(node, group_fns, specs, bool(stmt.group_by))
            if stmt.having is not None:
                node = FilterNode(
                    node,
                    self._compile(stmt.having, node.scope, agg_values),
                    "having",
                )
        elif stmt.having is not None:
            raise PlanError("HAVING requires GROUP BY or aggregates")

        # -- projection --------------------------------------------------------
        output_fns = []
        output_columns: List[Tuple[Optional[str], str]] = []
        for index, item in enumerate(stmt.items):
            if isinstance(item.expression, ast.Star):
                if is_aggregated:
                    raise PlanError("'*' cannot be combined with aggregation")
                star = item.expression
                if star.table is not None:
                    indexes = node.scope.indexes_of_binding(star.table)
                    if not indexes:
                        raise PlanError(f"unknown table alias {star.table!r}")
                else:
                    indexes = list(range(len(node.columns)))
                for source_index in indexes:
                    output_fns.append(
                        (lambda i: (lambda row, params: row[i]))(source_index)
                    )
                    output_columns.append((None, node.columns[source_index][1]))
                continue
            fn = self._compile(item.expression, node.scope, agg_values)
            output_fns.append(fn)
            output_columns.append((None, output_name(item, index)))
        projected = ProjectNode(node, output_fns, output_columns)
        pre_projection = node
        node = projected

        if stmt.distinct:
            node = DistinctNode(node)

        # -- ORDER BY ------------------------------------------------------------
        if stmt.order_by:
            keys = []
            hidden_fns = []
            hidden_columns: List[Tuple[Optional[str], str]] = []
            visible = len(output_columns)
            names = [name for _, name in output_columns]
            for order in stmt.order_by:
                expression = order.expression
                key_index = order_by_output(expression, names)
                if key_index is not None:
                    keys.append(
                        ((lambda i: (lambda row, params: row[i]))(key_index), order.descending)
                    )
                else:
                    if stmt.distinct:
                        raise PlanError(
                            "ORDER BY with DISTINCT must reference selected columns"
                        )
                    hidden_index = visible + len(hidden_fns)
                    hidden_fns.append(
                        self._compile(expression, pre_projection.scope, agg_values)
                    )
                    hidden_columns.append((None, f"__sort{len(hidden_fns)}"))
                    keys.append(
                        ((lambda i: (lambda row, params: row[i]))(hidden_index), order.descending)
                    )
            if hidden_fns:
                # Re-project with hidden sort columns appended.
                node = ProjectNode(
                    pre_projection,
                    output_fns + hidden_fns,
                    output_columns + hidden_columns,
                )
            node = SortNode(node, keys)
            if hidden_fns:
                strip = [
                    (lambda i: (lambda row, params: row[i]))(i)
                    for i in range(visible)
                ]
                node = ProjectNode(node, strip, output_columns)

        # -- LIMIT/OFFSET ------------------------------------------------------------
        if stmt.limit is not None or stmt.offset is not None:
            empty_scope = Scope([])
            limit_fn = (
                self._compile(stmt.limit, empty_scope) if stmt.limit is not None else None
            )
            offset_fn = (
                self._compile(stmt.offset, empty_scope) if stmt.offset is not None else None
            )
            node = LimitNode(node, limit_fn, offset_fn)

        return PlannedQuery(node, [name for _, name in output_columns])


def _conjoin(conjuncts: List[ast.Expression]) -> ast.Expression:
    expression = conjuncts[0]
    for conjunct in conjuncts[1:]:
        expression = ast.BinaryOp("AND", expression, conjunct)
    return expression


def _sole_binding(scope: Scope, name: str) -> Optional[str]:
    """Binding owning the (unique) column ``name`` in this scope."""
    owners = [
        binding for binding, column in scope.columns if column == name.lower()
    ]
    if len(owners) != 1:
        raise PlanError(f"column {name!r} is ambiguous in join")
    return owners[0]


def order_by_output(expression: ast.Expression, names: Sequence[str]) -> Optional[int]:
    """The index of the output column an ORDER BY item names, or None
    when it sorts by the expression itself.

    An integer literal is an ordinal; a column reference names the output
    column when exactly one has that name (a qualified ``t.x`` included:
    the common ``SELECT DISTINCT t.x ORDER BY t.x`` case)."""
    if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
        ordinal = expression.value
        if not 1 <= ordinal <= len(names):
            raise PlanError(f"ORDER BY ordinal {ordinal} out of range")
        return ordinal - 1
    if isinstance(expression, ast.ColumnRef):
        matches = [i for i, name in enumerate(names) if name == expression.name.lower()]
        if len(matches) == 1:
            return matches[0]
    return None


def output_name(item: ast.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias.lower()
    expression = item.expression
    if isinstance(expression, ast.ColumnRef):
        return expression.name.lower()
    if isinstance(expression, ast.FuncCall):
        return expression.name.lower()
    if isinstance(expression, ast.RangeValue):
        return f"rangevalue_{index + 1}"
    return f"col{index + 1}"
