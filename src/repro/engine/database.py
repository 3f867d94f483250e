"""The database facade: SQL in, results out, events to listeners.

This is the component stack of Figure 1 wired together: catalog + storage
managers + positional indexes + query processor + transaction manager.  The
interface layer (:mod:`repro.core`) talks to exactly this class:

* :meth:`Database.execute` parses and runs any statement, optionally with a
  :class:`~repro.engine.planner.RangeResolver` so the statement may use
  ``RANGEVALUE``/``RANGETABLE``,
* :meth:`Database.add_listener` subscribes to committed
  :class:`~repro.engine.table.ChangeEvent` records — the feed that keeps
  spreadsheet regions in sync with back-end modifications (Feature 3),
* ``BEGIN`` / ``COMMIT`` / ``ROLLBACK`` bracket mixed DML+DDL transactions
  (schema changes participate, per the paper's §2.2 challenge).
"""

from __future__ import annotations

import os
import re
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.sanitizer import NULL_SANITIZER, Sanitizer
from repro.engine import sql_ast as ast
from repro.engine.catalog import Catalog
from repro.engine.executor import ExecContext
from repro.engine.expr import Scope
from repro.engine.maintenance import MaintenanceScheduler
from repro.engine.pager import IOStats
from repro.engine.planner import Planner, RangeResolver
from repro.engine.schema import Column, TableSchema
from repro.engine.sql_parser import parse_sql
from repro.engine.store import LayoutPolicy, ScanStats
from repro.engine.table import ChangeEvent, Table
from repro.engine.transaction import TransactionManager
from repro.engine.types import DBType, infer_type, unify_types
from repro.errors import ExecutionError, PlanError, SqlError
from repro.obs import EventLog, MetricsRegistry, Span, Tracer

__all__ = ["Database", "ResultSet", "is_explain_trace", "txn_command"]

#: ``EXPLAIN TRACE <statement>`` — a per-statement trace capture prefix
#: handled before the grammar (so the parser stays untouched).
_EXPLAIN_TRACE = re.compile(r"^\s*explain\s+trace\s+", re.IGNORECASE)


def is_explain_trace(sql: str) -> bool:
    """True when ``sql`` is an ``EXPLAIN TRACE`` capture request (the
    CLI uses this to route such statements straight to the engine)."""
    return bool(_EXPLAIN_TRACE.match(sql))


def _annotate_plan(parent: Span, node: Any) -> None:
    """Mirror a finished operator tree into zero-duration trace children
    carrying each node's work counters (rows_out, rows_scanned, ...)."""
    child = parent.annotate_child(node.label(), **node.counters())
    for sub in node.children():
        _annotate_plan(child, sub)


@dataclass
class ResultSet:
    """Query result: ordered column names + row tuples (+ DML rowcount)."""

    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    rowcount: int = 0

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def first(self) -> Optional[Tuple[Any, ...]]:
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if not self.rows or not self.rows[0]:
            return None
        return self.rows[0][0]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> List[Any]:
        index = self.columns.index(name.lower())
        return [row[index] for row in self.rows]


#: Transaction-control spellings → the :class:`Database` method each runs.
_TXN_COMMANDS = {
    "begin": "begin",
    "begin transaction": "begin",
    "commit": "commit",
    "end": "commit",
    "rollback": "rollback",
    "abort": "rollback",
}


def txn_command(sql: str) -> Optional[str]:
    """"begin"/"commit"/"rollback" when ``sql`` is transaction control, else None."""
    return _TXN_COMMANDS.get(sql.strip().rstrip(";").strip().lower())


class Database:
    """An embedded relational engine with positional presentation order."""

    def __init__(
        self,
        page_capacity: int = 128,
        default_layout: LayoutPolicy = LayoutPolicy.HYBRID,
        buffer_frames: Optional[int] = None,
        auto_layout_interval: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        sanitize: Optional[bool] = None,
        background_maintenance: Optional[bool] = None,
    ):
        self.catalog = Catalog(
            page_capacity=page_capacity, buffer_frames=buffer_frames
        )
        # Runtime invariant sanitizer (repro.analysis.sanitizer): armed by
        # sanitize=True or REPRO_SANITIZE=1, a null object otherwise.  The
        # catalog propagates it to every table/store; the pool checks pages.
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        self.sanitizer = Sanitizer() if sanitize else NULL_SANITIZER
        self.catalog.sanitizer = self.sanitizer
        self.catalog.pool.sanitizer = self.sanitizer
        self.default_layout = default_layout
        self.transactions = TransactionManager()
        self._listeners: List[Callable[[ChangeEvent], None]] = []
        self.statements_executed = 0
        # Recent non-idle tick reports (bounded: long-lived sessions tick
        # forever; callers wanting everything consume maintenance_tick()'s
        # return value instead).
        self.maintenance_reports: Deque[Dict[str, Any]] = deque(maxlen=256)
        # Observability: a per-database registry by default so tests and
        # benchmarks stay isolated; pass repro.obs.global_registry() to
        # aggregate several databases into one scrape surface.
        self.metrics_registry = metrics if metrics is not None else MetricsRegistry()
        self.tracer = Tracer()
        self.events = EventLog()
        self.last_trace: Optional[Span] = None
        self._stmt_counter = self.metrics_registry.counter(
            "db_statements_total", "SQL statements executed"
        )
        self._stmt_seconds = self.metrics_registry.histogram(
            "db_statement_seconds", "SQL statement latency (seconds)"
        )
        self._maint_ticks = self.metrics_registry.counter(
            "db_maint_ticks", "maintenance beats run (inline or background)"
        )
        self._maint_blocks = self.metrics_registry.counter(
            "db_maint_blocks", "pages written by maintenance restructures"
        )
        # Adaptive-layout maintenance: every ``auto_layout_interval``
        # statements (0 disables), tables with auto layout enabled get a
        # tick — advisor consult or a few online migration steps — inline,
        # or on a worker thread with background maintenance on (default
        # from REPRO_BG_MAINT, so the whole test suite runs in either mode).
        self.maintenance = MaintenanceScheduler(
            self, auto_layout_interval, background_maintenance
        )
        self.metrics_registry.register_collector(self._collect_engine_metrics)

    # -- observability -------------------------------------------------------

    def _collect_engine_metrics(self) -> Dict[str, Any]:
        """Pull-collector over the engine's counter structs plus gauges,
        read at scrape time so the hot paths stay un-instrumented."""
        snap = self.catalog.pool.stats_snapshot()
        snap["db_tables"] = len(self.catalog.table_names())
        snap["db_events_logged"] = len(self.events)
        scans = ScanStats()
        encoded_groups = open_snapshots = retired_pages = 0
        for table in self.catalog.tables():
            scans.add(table.store.scan_stats)
            encoded_groups += table.store.encoded_group_count
            snapshot_stats = table.store.snapshot_stats()
            open_snapshots += snapshot_stats["active_snapshots"]
            retired_pages += snapshot_stats["retired_pages"]
        snap.update(scans.metrics("db_"))
        snap["db_encoded_groups"] = encoded_groups
        snap["db_open_snapshots"] = open_snapshots
        snap["db_retired_pages"] = retired_pages
        worker = self.maintenance.worker
        snap["db_maint_worker_running"] = int(
            worker is not None and worker.running
        )
        snap["db_maint_worker_errors"] = worker.errors if worker is not None else 0
        return snap

    def metrics(self) -> Dict[str, Any]:
        """One flat snapshot of every engine metric (see
        :meth:`repro.obs.MetricsRegistry.snapshot`)."""
        return self.metrics_registry.snapshot()

    # -- events -------------------------------------------------------------

    def add_listener(self, listener: Callable[[ChangeEvent], None]) -> None:
        """Subscribe to change events from every (current and future)
        table."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[ChangeEvent], None]) -> None:
        self._listeners.remove(listener)

    def _dispatch(self, event: ChangeEvent) -> None:
        for listener in list(self._listeners):
            listener(event)

    def _announce(self, name: str, kind: str) -> None:
        """A table appeared or went away: regions showing it re-query."""
        self._dispatch(ChangeEvent(name, kind))

    def _attach(self, table: Table) -> Table:
        table.listeners.append(self._dispatch)
        table.events = self.events
        table.transactions = self.transactions
        return table

    # -- schema API ----------------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: TableSchema,
        layout: Optional[LayoutPolicy] = None,
        if_not_exists: bool = False,
    ) -> Table:
        existing = self.catalog.try_get(name)
        if existing is not None and if_not_exists:
            return existing
        table = self.catalog.create_table(
            name, schema, layout or self.default_layout, if_not_exists
        )
        self._attach(table)
        self._announce(table.name, "create_table")

        def undo_create() -> None:
            self.catalog.drop(name, if_exists=True)
            self._announce(name, "drop_table")

        self.transactions.record_undo(undo_create)
        return table

    def table(self, name: str) -> Table:
        return self.catalog.get(name)

    def has_table(self, name: str) -> bool:
        return name in self.catalog

    def table_names(self) -> List[str]:
        return self.catalog.table_names()

    # -- transactions ----------------------------------------------------------------

    def begin(self) -> None:
        self.transactions.begin()

    def commit(self) -> None:
        self.transactions.commit()

    def rollback(self) -> int:
        return self.transactions.rollback()

    @property
    def in_transaction(self) -> bool:
        return self.transactions.in_transaction

    # -- I/O accounting -----------------------------------------------------------------

    @property
    def io_stats(self) -> IOStats:
        return self.catalog.pool.stats

    def checkpoint(self) -> int:
        """Flush all buffered pages; returns blocks written."""
        return self.catalog.pool.flush_all()

    def reset_io_stats(self) -> None:
        self.catalog.pool.stats.reset()

    # -- adaptive layout maintenance -----------------------------------------------

    def maintenance_tick(
        self,
        steps: int = 2,
        observer: Optional[Callable[[str, str, List[List[str]]], None]] = None,
        max_blocks: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Tick every table that opted into adaptive layout (or has a
        migration in flight); returns the non-idle per-table reports.
        Every beat of :attr:`maintenance` runs through this method.

        ``max_blocks`` budgets the restructure work of each table's beat
        (see :meth:`Table.layout_tick`) so one big migration cannot stall
        the serve loop; ``None`` preserves the unbudgeted behaviour.

        ``observer`` (forwarded to :meth:`Table.layout_tick`) sees every
        migration start and applied step — the durable server logs these
        to its WAL so a recovered server converges to the same layout."""
        reports = []
        for table in self.catalog.tables():
            if table.wants_maintenance:
                report = table.layout_tick(
                    steps, observer=observer, max_blocks=max_blocks
                )
                if report.get("action") != "idle":
                    reports.append(report)
        self.maintenance_reports.extend(reports)
        self._maint_ticks.inc()
        blocks = sum(report.get("blocks_this_tick", 0) for report in reports)
        if blocks:
            self._maint_blocks.inc(blocks)
        return reports

    def close(self) -> None:
        """Stop background maintenance (draining pending work first).
        Safe to call on a database that never started a worker."""
        self.maintenance.stop(drain=True)

    # -- SQL entry point ------------------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence[Any] = (),
        resolver: Optional[RangeResolver] = None,
    ) -> ResultSet:
        """Parse and execute one statement (or a BEGIN/COMMIT/ROLLBACK).

        ``EXPLAIN TRACE <statement>`` runs the statement with the span
        tracer active and returns the rendered trace tree (one line per
        row); the :class:`~repro.obs.Span` itself is kept on
        :attr:`last_trace` for programmatic inspection."""
        match = _EXPLAIN_TRACE.match(sql)
        if match:
            _, span = self.trace_statement(sql[match.end():], params, resolver)
            lines = span.render().splitlines() if span is not None else []
            return ResultSet(["trace"], [(line,) for line in lines], len(lines))
        command = txn_command(sql)
        if command is not None:
            getattr(self, command)()  # self.begin / self.commit / self.rollback
            return ResultSet()
        statements = parse_sql(sql)
        if len(statements) != 1:
            raise SqlError(
                f"execute() takes one statement, got {len(statements)}; "
                "use execute_script()"
            )
        return self.execute_statement(statements[0], params, resolver)

    def execute_script(
        self,
        sql: str,
        params: Sequence[Any] = (),
        resolver: Optional[RangeResolver] = None,
    ) -> List[ResultSet]:
        return [
            self.execute_statement(statement, params, resolver)
            for statement in parse_sql(sql)
        ]

    def query(
        self,
        sql: str,
        params: Sequence[Any] = (),
        resolver: Optional[RangeResolver] = None,
    ) -> ResultSet:
        """Like :meth:`execute` but asserts the statement is a SELECT."""
        result = self.execute(sql, params, resolver)
        return result

    def trace_statement(
        self,
        sql: str,
        params: Sequence[Any] = (),
        resolver: Optional[RangeResolver] = None,
    ) -> Tuple[ResultSet, Optional[Span]]:
        """Execute one statement with the tracer active; returns
        ``(result, span_tree)``.  The tree covers parse → plan → execute
        with the plan-operator and pager accounting children attached."""
        root = self.tracer.begin("statement")
        root.add("sql", " ".join(sql.split()))
        try:
            with root:
                with self.tracer.span("parse"):
                    statements = parse_sql(sql)
                if len(statements) != 1:
                    raise SqlError(
                        f"EXPLAIN TRACE takes one statement, got {len(statements)}"
                    )
                result = self.execute_statement(statements[0], params, resolver)
        finally:
            self.last_trace = self.tracer.finish()
        return result, self.last_trace

    # -- statement dispatch -------------------------------------------------------

    def execute_statement(
        self,
        statement: ast.Statement,
        params: Sequence[Any] = (),
        resolver: Optional[RangeResolver] = None,
    ) -> ResultSet:
        """Execute one already-parsed statement: what :meth:`execute` runs
        after parsing, for a caller that holds the tree (a DBSQL region
        re-running its query parses nothing)."""
        self.statements_executed += 1
        self.maintenance.count("statement")
        # Gate the perf_counter pair on the enabled flag so "metrics off"
        # costs one boolean test per statement.
        timed = self.metrics_registry.enabled
        started = time.perf_counter() if timed else 0.0
        try:
            with self.transactions.statement_scope():
                return self._dispatch_statement(statement, params, resolver)
        finally:
            if timed:
                self._stmt_counter.value += 1
                self._stmt_seconds.observe(time.perf_counter() - started)

    def _dispatch_statement(
        self,
        statement: ast.Statement,
        params: Sequence[Any],
        resolver: Optional[RangeResolver],
    ) -> ResultSet:
        planner = Planner(self.catalog, resolver)
        if isinstance(statement, (ast.SelectStmt, ast.CompoundSelect)):
            tracer = self.tracer
            with tracer.span("plan"):
                planned = planner.plan_select(statement)
            with tracer.span("execute") as execute_span:
                tracing = tracer.active
                if tracing:
                    pool = self.catalog.pool
                    io_before = pool.stats.snapshot()
                    hits_before, misses_before = pool.hits, pool.misses
                rows = planned.execute(params)
                if tracing:
                    execute_span.add("rows_out", len(rows))
                    delta = pool.stats.delta(io_before)
                    execute_span.annotate_child(
                        "pager",
                        pages_read=delta.reads,
                        pages_written=delta.writes,
                        cache_hits=pool.hits - hits_before,
                        cache_misses=pool.misses - misses_before,
                    )
                    _annotate_plan(execute_span, planned.plan)
            return ResultSet(planned.column_names, rows, len(rows))
        if isinstance(statement, ast.InsertStmt):
            return self._execute_insert(statement, params, planner)
        if isinstance(statement, ast.UpdateStmt):
            return self._execute_update(statement, params, planner)
        if isinstance(statement, ast.DeleteStmt):
            return self._execute_delete(statement, params, planner)
        if isinstance(statement, ast.CreateTableStmt):
            return self._execute_create(statement, params, planner)
        if isinstance(statement, ast.AlterTableStmt):
            return self._execute_alter(statement, params, planner)
        if isinstance(statement, ast.DropTableStmt):
            return self._execute_drop(statement)
        if isinstance(statement, ast.CreateIndexStmt):
            return self._execute_create_index(statement)
        if isinstance(statement, ast.DropIndexStmt):
            return self._execute_drop_index(statement)
        raise SqlError(f"unsupported statement {type(statement).__name__}")

    # -- DML ------------------------------------------------------------------------

    def _const_eval(
        self, expression: ast.Expression, params: Sequence[Any], planner: Planner
    ) -> Any:
        fn = planner._compile(expression, Scope([]))
        return fn((), params)

    def _execute_insert(
        self, statement: ast.InsertStmt, params: Sequence[Any], planner: Planner
    ) -> ResultSet:
        table = self.catalog.get(statement.table)
        schema = table.schema
        if statement.columns:
            indexes = [schema.column_index(name) for name in statement.columns]
        else:
            indexes = list(range(schema.n_columns))
        source_rows: List[Tuple[Any, ...]] = []
        if statement.select is not None:
            planned = planner.plan_select(statement.select)
            source_rows = planned.execute(params)
        else:
            for value_row in statement.rows:
                source_rows.append(
                    tuple(self._const_eval(e, params, planner) for e in value_row)
                )
        position: Optional[int] = None
        if statement.position is not None:
            position = int(self._const_eval(statement.position, params, planner))
        inserted = 0
        for row in source_rows:
            if len(row) != len(indexes):
                raise ExecutionError(
                    f"INSERT expects {len(indexes)} values per row, got {len(row)}"
                )
            full = [None] * schema.n_columns
            for column in schema.columns:
                if column.default is not None:
                    full[schema.column_index(column.name)] = column.default
            for index, value in zip(indexes, row):
                full[index] = value
            insert_position = None if position is None else position + inserted
            table.insert(full, position=insert_position)
            inserted += 1
        return ResultSet(rowcount=inserted)

    def _dml_targets(
        self,
        table: Table,
        where: Optional[ast.Expression],
        params: Sequence[Any],
        planner: Planner,
    ) -> List[Tuple[int, int, Tuple[Any, ...]]]:
        """Rows a DML statement touches: ``(position, rid, full_row)``.

        Without a WHERE every row is a target and streams off the full
        scan.  With one, the planner picks the access path a SELECT with
        the same WHERE would get — the narrow, zone-skipping batched scan
        over just the referenced columns, or an index probe — and full
        rows are fetched only for the rows it locates: the page-I/O
        saving the hybrid layout grants writes too.
        """
        if where is None:
            return list(table.scan())
        tracer = self.tracer
        with tracer.span("plan"):
            node = planner.plan_dml_scan(table, where)
        with tracer.span("execute") as execute_span:
            targets = list(node.located(ExecContext(params)))
            if tracer.active:
                _annotate_plan(execute_span, node)
        return targets

    def _execute_update(
        self, statement: ast.UpdateStmt, params: Sequence[Any], planner: Planner
    ) -> ResultSet:
        table = self.catalog.get(statement.table)
        scope = Scope([(table.name, name) for name in table.column_names])
        assignment_fns = [
            (name, planner._compile(expression, scope))
            for name, expression in statement.assignments
        ]
        # Materialise targets first: assignments must see pre-update values.
        targets = self._dml_targets(table, statement.where, params, planner)
        for position, rid, row in targets:
            changes = {name: fn(row, params) for name, fn in assignment_fns}
            table.update_rid(rid, changes, position=position)
        return ResultSet(rowcount=len(targets))

    def _execute_delete(
        self, statement: ast.DeleteStmt, params: Sequence[Any], planner: Planner
    ) -> ResultSet:
        table = self.catalog.get(statement.table)
        doomed = self._dml_targets(table, statement.where, params, planner)
        table.delete_rids([rid for _, rid, _ in doomed])
        return ResultSet(rowcount=len(doomed))

    # -- DDL ---------------------------------------------------------------------------

    def _column_from_def(
        self, definition: ast.ColumnDef, params: Sequence[Any], planner: Planner
    ) -> Column:
        default = None
        if definition.default is not None:
            default = self._const_eval(definition.default, params, planner)
        return Column(
            definition.name,
            DBType.parse(definition.type_name),
            primary_key=definition.primary_key,
            not_null=definition.not_null,
            default=default,
        )

    def _execute_create(
        self, statement: ast.CreateTableStmt, params: Sequence[Any], planner: Planner
    ) -> ResultSet:
        if statement.as_select is not None:
            planned = planner.plan_select(statement.as_select)
            rows = planned.execute(params)
            column_types = [DBType.NULL] * len(planned.column_names)
            for row in rows:
                for index, value in enumerate(row):
                    column_types[index] = unify_types(column_types[index], infer_type(value))
            columns = [
                Column(name, dtype if dtype is not DBType.NULL else DBType.TEXT)
                for name, dtype in zip(planned.column_names, column_types)
            ]
            schema = TableSchema(columns)
            table = self.create_table(
                statement.table, schema, if_not_exists=statement.if_not_exists
            )
            for row in rows:
                table.insert(row)
            return ResultSet(rowcount=len(rows))
        if not statement.columns:
            raise PlanError("CREATE TABLE requires columns or AS SELECT")
        columns = [self._column_from_def(d, params, planner) for d in statement.columns]
        self.create_table(
            statement.table, TableSchema(columns), if_not_exists=statement.if_not_exists
        )
        return ResultSet()

    def _execute_alter(
        self, statement: ast.AlterTableStmt, params: Sequence[Any], planner: Planner
    ) -> ResultSet:
        table = self.catalog.get(statement.table)
        action = statement.action
        if isinstance(action, ast.AlterAddColumn):
            column = self._column_from_def(action.column, params, planner)
            rewritten = table.add_column(column, group_index=action.into_group)
            self.transactions.record_undo(
                (lambda t, n: (lambda: t.drop_column(n, emit=True)))(table, column.name)
            )
            return ResultSet(rowcount=rewritten)
        if isinstance(action, ast.AlterDropColumn):
            column = table.schema.column(action.name)
            column_position = table.schema.column_index(action.name)
            saved = [
                pair
                for _, rids, cols in table.scan_column_batches([action.name])
                for pair in zip(rids, cols[0])
            ]
            indexes_before = dict(table.indexes)
            rewritten = table.drop_column(action.name)
            dropped = {
                key: index
                for key, index in indexes_before.items()
                if key not in table.indexes
            }

            def undo_drop() -> None:
                table.add_column(column, emit=True, position=column_position)
                for rid, value in saved:
                    table.update_rid(rid, {column.name: value}, emit=False)
                # Undo runs newest-first, so the rows are back to what
                # the dropped trees indexed.
                table.indexes.update(dropped)

            self.transactions.record_undo(undo_drop)
            return ResultSet(rowcount=rewritten)
        if isinstance(action, ast.AlterSetLayout):
            mode = action.mode
            if mode in ("auto", "manual"):
                previous = table.auto_layout
                table.set_auto_layout(mode == "auto")
                if mode == "manual":
                    # Stop adapting *now*: an in-flight migration would
                    # otherwise keep being stepped by maintenance ticks.
                    table.cancel_layout_migration()
                self.transactions.record_undo(
                    (lambda t, p: (lambda: t.set_auto_layout(p)))(table, previous)
                )
                return ResultSet()
            # row / column: migrate immediately (synchronously) to the
            # static extreme, suspending the advisor loop.
            old_groups = table.schema.groups
            previous_auto = table.auto_layout
            migration = table.set_static_layout(mode)
            self.transactions.record_undo(
                (
                    lambda t, g, p: (
                        lambda: (t.store.restructure(g), t.set_auto_layout(p))
                    )
                )(table, old_groups, previous_auto)
            )
            return ResultSet(rowcount=migration.pages_written)
        if isinstance(action, ast.AlterRenameColumn):
            table.rename_column(action.old, action.new)
            self.transactions.record_undo(
                (lambda t, old, new: (lambda: t.rename_column(new, old)))(
                    table, action.old, action.new
                )
            )
            return ResultSet()
        raise SqlError(f"unsupported ALTER action {type(action).__name__}")

    def _execute_drop(self, statement: ast.DropTableStmt) -> ResultSet:
        table = self.catalog.drop(statement.table, statement.if_exists)
        if table is not None:
            self._announce(table.name, "drop_table")

            def undo_drop() -> None:
                self.catalog.register(table)
                self._announce(table.name, "create_table")

            self.transactions.record_undo(undo_drop)
        return ResultSet()

    def _execute_create_index(self, statement: ast.CreateIndexStmt) -> ResultSet:
        table = self.catalog.create_index(
            statement.name,
            statement.table,
            statement.column,
            unique=statement.unique,
            if_not_exists=statement.if_not_exists,
        )
        if table is not None:
            self.transactions.record_undo(
                (lambda t, n: (lambda: t.drop_index(n)))(table, statement.name)
            )
        return ResultSet()

    def _execute_drop_index(self, statement: ast.DropIndexStmt) -> ResultSet:
        table = self.catalog.table_of_index(statement.name)
        if table is None:
            # Raises unless IF EXISTS swallows the miss.
            self.catalog.drop_index(statement.name, statement.if_exists)
            return ResultSet()
        dropped = table.drop_index(statement.name)
        self.transactions.record_undo(
            (
                lambda t, idx: (
                    lambda: t.indexes.__setitem__(idx.name.lower(), idx)
                )
            )(table, dropped)
        )
        return ResultSet()
