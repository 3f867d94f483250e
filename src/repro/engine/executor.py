"""Pull-based query execution operators.

The planner (:mod:`repro.engine.planner`) assembles these nodes into a tree;
``run(ctx)`` streams result tuples.  Each node tracks ``rows_out`` so tests
and benchmarks can assert *logical* work (e.g. E10's one-pass claim: a DBSQL
spill of 100 rows runs one plan, not 100).

Operator inventory: projected scan (column-set-aware batched table scan
with pushed predicates, in presentation order via the positional index),
values scan (``RANGETABLE`` data and VALUES lists), filter, project,
nested-loop join, hash join (equi-joins, inner/left), aggregate (hash
grouping), distinct, sort, limit/offset.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine import sql_ast as ast
from repro.engine.expr import Scope, compile_batch_predicate, extract_sargable_ranges
from repro.engine.functions import Aggregator, make_aggregate
from repro.engine.table import Table, TableIndex
from repro.engine.types import compare_values
from repro.errors import ExecutionError

__all__ = [
    "ExecContext",
    "PlanNode",
    "ProjectedScan",
    "IndexScan",
    "ValuesScan",
    "FilterNode",
    "ProjectNode",
    "NestedLoopJoin",
    "HashJoin",
    "AggregateNode",
    "DistinctNode",
    "SortNode",
    "sort_decorated",
    "LimitNode",
]

RowFn = Callable[[Tuple[Any, ...], Sequence[Any]], Any]


@dataclass
class ExecContext:
    """Per-execution state threaded through the operator tree."""

    params: Sequence[Any] = ()


class PlanNode:
    """Base operator: output columns + streaming execution."""

    def __init__(self, columns: Sequence[Tuple[Optional[str], str]]):
        self.columns = list(columns)
        self.scope = Scope(self.columns)
        self.rows_out = 0

    def run(self, ctx: ExecContext) -> Iterator[Tuple[Any, ...]]:  # pragma: no cover
        raise NotImplementedError

    def children(self) -> List["PlanNode"]:
        return []

    def _count(self, rows: Iterator[Tuple[Any, ...]]) -> Iterator[Tuple[Any, ...]]:
        for row in rows:
            self.rows_out += 1
            yield row

    # -- introspection ----------------------------------------------------

    def label(self) -> str:
        return type(self).__name__

    def explain(self, depth: int = 0) -> str:
        lines = ["  " * depth + self.label()]
        for child in self.children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)

    def counters(self) -> Dict[str, Any]:
        """Per-node work counters for the trace annotation tree."""
        return {"rows_out": self.rows_out}

    def total_rows_processed(self) -> int:
        return self.rows_out + sum(c.total_rows_processed() for c in self.children())


class ProjectedScan(PlanNode):
    """Column-set-aware table scan in presentation (positional) order.

    The planner computes each table's *required* column set (SELECT list
    + WHERE conjuncts + join keys, post-pushdown) and the scan touches
    only the page chains covering that set — the refactor that lets the
    hybrid attribute-group store actually reduce the blocks a SQL query
    reads.  Pushed predicates (``add_predicate``) are evaluated on the
    narrow fragments *before* a row is emitted, so ``rows_out`` counts
    surviving rows; ``rows_scanned`` counts rows examined and
    ``cols_read`` the width of the set, letting tests assert logical
    work.  ``column_names=None`` scans every column.
    """

    def __init__(
        self,
        table: Table,
        binding: str,
        column_names: Optional[Sequence[str]] = None,
    ):
        names = (
            list(table.column_names) if column_names is None else list(column_names)
        )
        super().__init__([(binding, name) for name in names])
        self.table = table
        self.binding = binding
        self.column_names = names
        # (row_fn, description, ast_or_None); the AST is kept so run() can
        # recompile pushed conjuncts into whole-batch selection functions.
        self.predicates: List[Tuple[RowFn, str, Optional[Any]]] = []
        self.rows_scanned = 0
        self.batches = 0
        # Covering-group I/O snapshot taken when the scan starts; the
        # delta at trace-collection time is the block I/O this node's
        # page chains were charged during the statement.
        self._io_before = None
        # Store-wide pages_skipped counter at run() — the delta is the
        # pages this scan's zone maps proved irrelevant.
        self._skip_before: Optional[int] = None

    @property
    def cols_read(self) -> int:
        return len(self.column_names)

    def io_delta(self):
        """Block I/O charged to the covering groups since :meth:`run`
        started (zeros if the node never ran)."""
        after = self.table.store.covering_io_snapshot(self.column_names)
        if self._io_before is None:
            return after.delta(after)
        return after.delta(self._io_before)

    def counters(self) -> Dict[str, Any]:
        base = super().counters()
        base["rows_scanned"] = self.rows_scanned
        base["cols_read"] = self.cols_read
        base["batches"] = self.batches
        base["rows_per_batch"] = (
            self.rows_scanned // self.batches if self.batches else 0
        )
        if self._io_before is not None:
            delta = self.io_delta()
            base["pages_read"] = delta.reads
            base["pages_written"] = delta.writes
        if self._skip_before is not None:
            base["pages_skipped"] = self.table.store.pages_skipped - self._skip_before
        return base

    def sargable_ranges(
        self, params: Optional[Sequence[Any]]
    ) -> Optional[Dict[str, Any]]:
        """Per-column interval sets from the pushed conjuncts, restricted
        to the scanned columns.  ``params=None`` gives the plan-time shape
        (parameter bounds unknown); real params give exact bounds."""
        conjuncts = [expr for _, _, expr in self.predicates if expr is not None]
        if not conjuncts:
            return None
        combined = conjuncts[0]
        for conjunct in conjuncts[1:]:
            combined = ast.BinaryOp("AND", combined, conjunct)
        ranges = extract_sargable_ranges(combined, params, self.binding)
        scanned = {name.lower() for name in self.column_names}
        ranges = {name: rs for name, rs in ranges.items() if name in scanned}
        return ranges or None

    def add_predicate(
        self,
        predicate: RowFn,
        description: str = "",
        expression: Optional[Any] = None,
    ) -> None:
        """Attach a pushed predicate, evaluated on the narrow fragment.

        ``expression`` is the conjunct's AST when the planner has it;
        :meth:`run` batch-compiles it, and conjuncts without one (or with
        non-vectorizable shapes) fall back to the row closure."""
        self.predicates.append((predicate, description, expression))

    def label(self) -> str:
        suffix = f", {len(self.predicates)} pushed" if self.predicates else ""
        plan_ranges = self.sargable_ranges(None)
        if plan_ranges:
            suffix += f", skip=[{', '.join(sorted(plan_ranges))}]"
        return (
            f"ProjectedScan({self.table.name} as {self.binding}, "
            f"cols=[{', '.join(self.column_names)}]{suffix})"
        )

    def run(self, ctx: ExecContext) -> Iterator[Tuple[Any, ...]]:
        return self._survivors(ctx, located=False)

    def located(self, ctx: ExecContext) -> Iterator[Tuple[int, int, Tuple[Any, ...]]]:
        """``(position, rid, full row)`` of every surviving row, in
        presentation order — a DML statement's targets.  The full row is
        fetched for survivors only; :meth:`run` is the values view of the
        same iterator."""
        return self._survivors(ctx, located=True)

    def _survivors(self, ctx: ExecContext, located: bool) -> Iterator[Any]:
        """Batched execution: selection vectors over column fragments,
        output tuples materialised only for surviving rids.

        Pushed conjuncts with a batch-compilable AST evaluate over whole
        column lists; the rest run row-at-a-time on the already-filtered
        survivors (late materialisation *is* the ``to_rows`` adapter —
        downstream operators still consume plain tuples)."""
        self._io_before = self.table.store.covering_io_snapshot(self.column_names)
        batch_fns = []
        row_fns = []
        for predicate, _, expression in self.predicates:
            batch_fn = (
                compile_batch_predicate(expression, self.scope)
                if expression is not None
                else None
            )
            if batch_fn is not None:
                batch_fns.append(batch_fn)
            else:
                row_fns.append(predicate)
        params = ctx.params
        ranges = self.sargable_ranges(params)
        if ranges:
            self._skip_before = self.table.store.pages_skipped
        # The table scan is opened *here*, not at first next(): the store
        # snapshot is acquired at operator open, so everything this node
        # yields is isolated from concurrent DML and background
        # maintenance that lands after run() returns its iterator.
        source = self.table.scan_column_batches(
            self.column_names, predicate_ranges=ranges
        )
        read_row = self.table.store.read_row

        def rows() -> Iterator[Any]:
            for positions, rids, cols in source:
                n = len(rids)
                self.rows_scanned += n
                self.batches += 1
                if batch_fns:
                    keep = batch_fns[0](cols, params, n)
                    for batch_fn in batch_fns[1:]:
                        other = batch_fn(cols, params, n)
                        keep = [
                            False
                            if (a is not None and a is not True)
                            or (b is not None and b is not True)
                            else (None if a is None or b is None else True)
                            for a, b in zip(keep, other)
                        ]
                    survivors = [
                        i for i, verdict in enumerate(keep) if verdict is True
                    ]
                else:
                    survivors = range(n)
                for i in survivors:
                    values = tuple(column[i] for column in cols)
                    keep_row = True
                    for predicate in row_fns:
                        if predicate(values, params) is not True:
                            keep_row = False
                            break
                    if keep_row:
                        self.rows_out += 1
                        # run() stays a bare-tuple stream: building the
                        # triple per row costs a full scan ~5 %.
                        if located:
                            yield positions[i], rids[i], read_row(rids[i])
                        else:
                            yield values

        return rows()


class IndexScan(PlanNode):
    """Secondary-index probe with late-materialized row fetch.

    The planner chooses this over :class:`ProjectedScan` when a pushed
    conjunct constrains an indexed column and the cost model prices the
    probe + per-row fetch below the (zone-map-discounted) batch scan.  At
    run time the pushed conjuncts are re-extracted with the bound
    parameters: point constraints become ``get`` probes, ranges become
    ``range_scan`` walks.  All pushed predicates are re-applied to the
    fetched rows (the index narrows candidates; it does not prove them),
    so a probe that turns out unconstrained — or a cross-type key the
    tree cannot bisect — degrades to a full-table candidate set and stays
    correct.  Probes and fetches run under the store mutation lock, the
    same point-in-time guarantee a scan gets from its snapshot."""

    def __init__(
        self,
        table: Table,
        binding: str,
        column_names: Optional[Sequence[str]],
        index: TableIndex,
    ):
        names = (
            list(table.column_names) if column_names is None else list(column_names)
        )
        super().__init__([(binding, name) for name in names])
        self.table = table
        self.binding = binding
        self.column_names = names
        self.index = index
        self.predicates: List[Tuple[RowFn, str, Optional[Any]]] = []
        self.rows_scanned = 0
        self.index_probes = 0

    @property
    def cols_read(self) -> int:
        return len(self.column_names)

    def add_predicate(
        self,
        predicate: RowFn,
        description: str = "",
        expression: Optional[Any] = None,
    ) -> None:
        self.predicates.append((predicate, description, expression))

    def label(self) -> str:
        return (
            f"IndexScan({self.table.name} as {self.binding}, "
            f"index={self.index.name} on {self.index.column}, "
            f"cols=[{', '.join(self.column_names)}], "
            f"{len(self.predicates)} pushed)"
        )

    def counters(self) -> Dict[str, Any]:
        base = super().counters()
        base["rows_scanned"] = self.rows_scanned
        base["cols_read"] = self.cols_read
        base["index_probes"] = self.index_probes
        return base

    def _candidate_rids(self, ranges: Optional[Dict[str, Any]]) -> List[int]:
        """rids the index cannot rule out, probed under the mutation lock.

        Caller holds the store mutation lock."""
        interval_set = (
            ranges.get(self.index.column.lower()) if ranges is not None else None
        )
        tree = self.index.tree
        if interval_set is None or interval_set.includes_null:
            # Unconstrained at run time (or the predicate admits NULLs,
            # which the index does not hold): every live row is a
            # candidate; the residual predicates do the filtering.
            return list(self.table.positions)
        rids: List[int] = []

        def collect(value: Any) -> None:
            if isinstance(value, list):
                rids.extend(value)
            else:
                rids.append(value)

        points = interval_set.points()
        if points is not None:
            for key in points:
                self.index_probes += 1
                hit = tree.get(key)
                if hit is not None:
                    collect(hit)
            return rids
        for low, low_incl, high, high_incl in interval_set.intervals:
            self.index_probes += 1
            try:
                for _, value in tree.range_scan(low, high, low_incl, high_incl):
                    collect(value)
            except TypeError:
                # Cross-type bound the tree cannot bisect against: walk
                # everything and let the interval set over-approximate.
                for key, value in tree.items():
                    if interval_set.contains(key):
                        collect(value)
        return rids

    def run(self, ctx: ExecContext) -> Iterator[Tuple[Any, ...]]:
        return self._survivors(ctx, located=False)

    def located(self, ctx: ExecContext) -> Iterator[Tuple[int, int, Tuple[Any, ...]]]:
        """``(position, rid, full row)`` of every surviving row, in
        presentation order (see :meth:`ProjectedScan.located`)."""
        return self._survivors(ctx, located=True)

    def _survivors(self, ctx: ExecContext, located: bool) -> Iterator[Any]:
        ranges = None
        conjuncts = [expr for _, _, expr in self.predicates if expr is not None]
        if conjuncts:
            combined = conjuncts[0]
            for conjunct in conjuncts[1:]:
                combined = ast.BinaryOp("AND", combined, conjunct)
            ranges = extract_sargable_ranges(combined, ctx.params, self.binding)
        table = self.table
        store = table.store
        table.index_lookups += 1
        with store.mutation_lock:
            column_indexes = [
                table.schema.column_index(name) for name in self.column_names
            ]
            # positions_of drops duplicates and entries of rows deleted
            # mid-probe, and answers in presentation order.
            candidates = table.positions_of(self._candidate_rids(ranges))
            fetched = [
                (position, rid, store.read_row(rid))
                for rid, position in candidates.items()
            ]
        if not located:
            # A SELECT's fetches are the workload's point reads (the
            # advisor's window); for the rows a DML statement locates,
            # Table charges the read of each one it changes.
            store.access_stats.point_reads += len(fetched)
        params = ctx.params

        def rows() -> Iterator[Any]:
            for position, rid, row in fetched:
                self.rows_scanned += 1
                values = tuple(row[i] for i in column_indexes)
                keep = True
                for predicate, _, _ in self.predicates:
                    if predicate(values, params) is not True:
                        keep = False
                        break
                if keep:
                    self.rows_out += 1
                    yield (position, rid, row) if located else values

        return rows()


class ValuesScan(PlanNode):
    """Materialised rows: RANGETABLE data, VALUES lists, cached subqueries."""

    def __init__(
        self,
        rows: Sequence[Tuple[Any, ...]],
        columns: Sequence[Tuple[Optional[str], str]],
        name: str = "values",
    ):
        super().__init__(columns)
        self._rows = list(rows)
        self.name = name

    def label(self) -> str:
        return f"ValuesScan({self.name}, {len(self._rows)} rows)"

    def run(self, ctx: ExecContext) -> Iterator[Tuple[Any, ...]]:
        return self._count(iter(self._rows))


class FilterNode(PlanNode):
    def __init__(self, child: PlanNode, predicate: RowFn, description: str = ""):
        super().__init__(child.columns)
        self.child = child
        self.predicate = predicate
        self.description = description

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        suffix = f" [{self.description}]" if self.description else ""
        return f"Filter{suffix}"

    def run(self, ctx: ExecContext) -> Iterator[Tuple[Any, ...]]:
        def rows() -> Iterator[Tuple[Any, ...]]:
            for row in self.child.run(ctx):
                if self.predicate(row, ctx.params) is True:
                    yield row

        return self._count(rows())


class ProjectNode(PlanNode):
    def __init__(
        self,
        child: PlanNode,
        functions: Sequence[RowFn],
        columns: Sequence[Tuple[Optional[str], str]],
    ):
        super().__init__(columns)
        self.child = child
        self.functions = list(functions)

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"Project({len(self.functions)} cols)"

    def run(self, ctx: ExecContext) -> Iterator[Tuple[Any, ...]]:
        def rows() -> Iterator[Tuple[Any, ...]]:
            for row in self.child.run(ctx):
                yield tuple(fn(row, ctx.params) for fn in self.functions)

        return self._count(rows())


class NestedLoopJoin(PlanNode):
    """General join; used for non-equi conditions and CROSS joins."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        condition: Optional[RowFn],
        kind: str = "inner",
    ):
        super().__init__(left.columns + right.columns)
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind
        if kind not in ("inner", "left", "cross"):
            raise ExecutionError(f"unsupported join kind {kind!r}")

    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def label(self) -> str:
        return f"NestedLoopJoin({self.kind})"

    def run(self, ctx: ExecContext) -> Iterator[Tuple[Any, ...]]:
        right_rows = list(self.right.run(ctx))
        null_right = (None,) * len(self.right.columns)

        def rows() -> Iterator[Tuple[Any, ...]]:
            for left_row in self.left.run(ctx):
                matched = False
                for right_row in right_rows:
                    combined = left_row + right_row
                    if self.condition is None or self.condition(combined, ctx.params) is True:
                        matched = True
                        yield combined
                if self.kind == "left" and not matched:
                    yield left_row + null_right

        return self._count(rows())


class HashJoin(PlanNode):
    """Equi-join: build on the right input, probe with the left."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_keys: Sequence[int],
        right_keys: Sequence[int],
        kind: str = "inner",
        residual: Optional[RowFn] = None,
    ):
        super().__init__(left.columns + right.columns)
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.kind = kind
        self.residual = residual
        if kind not in ("inner", "left"):
            raise ExecutionError(f"hash join does not support kind {kind!r}")

    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def label(self) -> str:
        return f"HashJoin({self.kind}, keys={self.left_keys}~{self.right_keys})"

    def run(self, ctx: ExecContext) -> Iterator[Tuple[Any, ...]]:
        build: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
        for right_row in self.right.run(ctx):
            key = tuple(right_row[index] for index in self.right_keys)
            if any(part is None for part in key):
                continue  # NULL never matches in SQL equi-joins
            build.setdefault(key, []).append(right_row)
        null_right = (None,) * len(self.right.columns)

        def rows() -> Iterator[Tuple[Any, ...]]:
            for left_row in self.left.run(ctx):
                key = tuple(left_row[index] for index in self.left_keys)
                matches = [] if any(part is None for part in key) else build.get(key, [])
                matched = False
                for right_row in matches:
                    combined = left_row + right_row
                    if self.residual is not None and self.residual(combined, ctx.params) is not True:
                        continue
                    matched = True
                    yield combined
                if self.kind == "left" and not matched:
                    yield left_row + null_right

        return self._count(rows())


@dataclass
class AggregateSpec:
    """One aggregate to compute: its argument closure and options."""

    name: str
    argument: Optional[RowFn]  # None for COUNT(*)
    distinct: bool = False

    def new_accumulator(self) -> Aggregator:
        return make_aggregate(self.name, self.distinct, count_star=self.argument is None)


class AggregateNode(PlanNode):
    """Hash aggregation.

    Output rows are ``representative_input_row + aggregate_results`` — the
    planner compiles post-aggregation expressions against this widened
    scope, mapping each aggregate call to its appended slot.  With no GROUP
    BY there is a single group, emitted even for empty input (so
    ``COUNT(*)`` on an empty table yields 0, per SQL).
    """

    def __init__(
        self,
        child: PlanNode,
        group_fns: Sequence[RowFn],
        aggregates: Sequence[AggregateSpec],
        has_group_by: bool,
    ):
        columns = child.columns + [(None, f"agg{i}") for i in range(len(aggregates))]
        super().__init__(columns)
        self.child = child
        self.group_fns = list(group_fns)
        self.aggregates = list(aggregates)
        self.has_group_by = has_group_by

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"Aggregate({len(self.group_fns)} keys, {len(self.aggregates)} aggs)"

    def run(self, ctx: ExecContext) -> Iterator[Tuple[Any, ...]]:
        groups: Dict[Tuple[Any, ...], Tuple[Tuple[Any, ...], List[Aggregator]]] = {}
        order: List[Tuple[Any, ...]] = []
        for row in self.child.run(ctx):
            key = tuple(_hashable(fn(row, ctx.params)) for fn in self.group_fns)
            entry = groups.get(key)
            if entry is None:
                entry = (row, [spec.new_accumulator() for spec in self.aggregates])
                groups[key] = entry
                order.append(key)
            _, accumulators = entry
            for spec, accumulator in zip(self.aggregates, accumulators):
                if spec.argument is None:
                    accumulator.add(1)  # COUNT(*): every row counts
                else:
                    accumulator.add(spec.argument(row, ctx.params))
        if not self.has_group_by and not groups:
            representative = (None,) * len(self.child.columns)
            accumulators = [spec.new_accumulator() for spec in self.aggregates]
            groups[()] = (representative, accumulators)
            order.append(())

        def rows() -> Iterator[Tuple[Any, ...]]:
            for key in order:
                representative, accumulators = groups[key]
                yield representative + tuple(acc.result() for acc in accumulators)

        return self._count(rows())


class ConcatNode(PlanNode):
    """UNION / UNION ALL: concatenate children (same arity), optionally
    deduplicating across the whole result (SQL UNION semantics)."""

    def __init__(self, children: Sequence[PlanNode], dedup_after: Sequence[bool]):
        """``dedup_after[i]`` — whether a plain UNION (dedup) connects child
        i to child i+1.  SQL semantics: any plain UNION in the chain
        deduplicates everything combined so far, so we conservatively dedup
        the whole output when any connector is a plain UNION."""
        super().__init__(children[0].columns)
        self._children = list(children)
        self.dedup = any(dedup_after)
        for child in children[1:]:
            if len(child.columns) != len(self.columns):
                raise ExecutionError(
                    "UNION members must have the same number of columns"
                )

    def children(self) -> List[PlanNode]:
        return list(self._children)

    def label(self) -> str:
        return f"Concat({'UNION' if self.dedup else 'UNION ALL'}, {len(self._children)})"

    def run(self, ctx: ExecContext) -> Iterator[Tuple[Any, ...]]:
        def rows() -> Iterator[Tuple[Any, ...]]:
            seen = set() if self.dedup else None
            for child in self._children:
                for row in child.run(ctx):
                    if seen is not None:
                        key = tuple(_hashable(value) for value in row)
                        if key in seen:
                            continue
                        seen.add(key)
                    yield row

        return self._count(rows())


class DistinctNode(PlanNode):
    def __init__(self, child: PlanNode):
        super().__init__(child.columns)
        self.child = child

    def children(self) -> List[PlanNode]:
        return [self.child]

    def run(self, ctx: ExecContext) -> Iterator[Tuple[Any, ...]]:
        def rows() -> Iterator[Tuple[Any, ...]]:
            seen = set()
            for row in self.child.run(ctx):
                key = tuple(_hashable(value) for value in row)
                if key in seen:
                    continue
                seen.add(key)
                yield row

        return self._count(rows())


class SortNode(PlanNode):
    """Multi-key sort with SQL NULL placement (NULLs first ascending,
    last descending — sqlite's convention)."""

    def __init__(self, child: PlanNode, keys: Sequence[Tuple[RowFn, bool]]):
        super().__init__(child.columns)
        self.child = child
        self.keys = list(keys)

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"Sort({len(self.keys)} keys)"

    def run(self, ctx: ExecContext) -> Iterator[Tuple[Any, ...]]:
        decorated = [
            (tuple(fn(row, ctx.params) for fn, _ in self.keys), row)
            for row in self.child.run(ctx)
        ]
        sort_decorated(decorated, [descending for _, descending in self.keys])
        return self._count(row for _, row in decorated)


#: ``compare_values``' total order over the types a typed sort key takes:
#: NULL, then numbers (a bool is an int), then text.
_KEY_CLASS = {type(None): 0, bool: 1, int: 1, float: 1, str: 2}


def sort_decorated(
    decorated: List[Tuple[Tuple[Any, ...], Any]], directions: Sequence[bool]
) -> None:
    """Sort ``(sort keys, payload)`` pairs in place, stably, the way
    ``ORDER BY`` does: key by key, ``descending`` per key, NULLs first
    ascending and last descending.  One ``list.sort`` pass per key, last
    key first, on ``(class, value)`` (the bare value if the key holds one
    class).  Before any pass, a value of another type (a date, say) or a
    NaN sends the whole list to the three-way comparator instead."""

    def compare(a, b) -> int:
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

    classes = []
    for index in range(len(directions)):
        kinds = {type(keys[index]) for keys, _ in decorated}
        if not kinds <= _KEY_CLASS.keys() or (
            float in kinds and any(keys[index] != keys[index] for keys, _ in decorated)
        ):
            decorated.sort(key=functools.cmp_to_key(compare))
            return
        classes.append({_KEY_CLASS[kind] for kind in kinds})
    for index in range(len(directions) - 1, -1, -1):
        if len(classes[index]) > 1:
            decorated.sort(
                key=lambda item: (_KEY_CLASS[type(item[0][index])], item[0][index]),
                reverse=directions[index],
            )
        elif classes[index] != {0}:  # (all NULL: every row ties)
            decorated.sort(key=lambda item: item[0][index], reverse=directions[index])


class LimitNode(PlanNode):
    def __init__(
        self,
        child: PlanNode,
        limit: Optional[RowFn],
        offset: Optional[RowFn],
    ):
        super().__init__(child.columns)
        self.child = child
        self.limit = limit
        self.offset = offset

    def children(self) -> List[PlanNode]:
        return [self.child]

    def run(self, ctx: ExecContext) -> Iterator[Tuple[Any, ...]]:
        empty_row: Tuple[Any, ...] = ()
        skip = 0
        if self.offset is not None:
            skip = int(self.offset(empty_row, ctx.params) or 0)
            if skip < 0:
                raise ExecutionError("OFFSET must be non-negative")
        take: Optional[int] = None
        if self.limit is not None:
            take = int(self.limit(empty_row, ctx.params))
            if take < 0:
                raise ExecutionError("LIMIT must be non-negative")

        def rows() -> Iterator[Tuple[Any, ...]]:
            produced = 0
            for index, row in enumerate(self.child.run(ctx)):
                if index < skip:
                    continue
                if take is not None and produced >= take:
                    return
                produced += 1
                yield row

        return self._count(rows())


def _hashable(value: Any) -> Any:
    """Group-by/distinct key normalisation (lists → tuples, etc.)."""
    if isinstance(value, list):
        return tuple(value)
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return value
