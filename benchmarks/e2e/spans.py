"""Span recording from outside the program, and per-layer attribution.

The program already draws a span tree per apply
(``WorkbookService.trace_apply``: ``apply`` → ``wal_append`` /
``apply_op`` / ``plan`` / ``execute`` / ``recalc_visible`` /
``broadcast``).  This module adds the boundaries that tree does not
cover by wrapping *public callables* with timing shims while a traced
run is in progress, and takes them off again afterwards.  Nothing in
``src/`` changes.

A shim records ``(name, start, end)`` in memory with
``time.perf_counter`` — the clock the built-in spans use — so both sets
merge into one tree per operation by interval containment.  A span's
*self time* is its duration minus the durations of its direct children;
every span name maps to one per-layer metric (:data:`LAYER_OF`), so the
self times of one traced phase plus the time spent outside any apply
(``driver.self_s``) add up to the phase's wall time by construction.
"""

from __future__ import annotations

import functools
import os
import random
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "LAYER_OF", "DurableSize", "Recorder", "Shims", "Tracing", "attribute", "flatten_tree",
]

#: span name -> the ``*_s`` per-layer metric its self time is added to.
LAYER_OF: Dict[str, str] = {
    # built-in spans (repro.obs.trace)
    "apply": "server.service.self_s",
    "wal_append": "server.wal.append_s",
    "apply_op": "core.workbook.apply_op_self_s",
    "plan": "engine.planner.plan_s",
    "execute": "engine.executor.execute_s",
    "recalc_visible": "compute.recalc_visible_s",
    "broadcast": "server.broadcast.publish_s",
    # shims (this module)
    "validate_op": "server.service.validate_s",
    "parse_sql": "engine.sql_parser.parse_s",
    "parse_formula": "formula.parse_s",
    "wal.append": "server.wal.append_s",
    "wal.truncate": "server.wal.append_s",
    "wal.fsync": "server.wal.fsync_s",
    "snapshot.write": "server.snapshot.write_s",
    "snapshot.fsync": "server.snapshot.write_s",
    "snapshot.load": "server.snapshot.load_s",
    "sync.flush": "core.sync.flush_s",
    "region.refresh": "core.sync.refresh_s",
    "workbook.set": "core.workbook.set_s",
    "workbook.structural": "core.workbook.structural_s",
    "workbook.execute": "core.workbook.apply_op_self_s",
    "compute.update": "compute.update_s",
    "db.execute": "engine.database.self_s",
    "plan_select": "engine.planner.plan_s",
    "store.scan": "engine.store.scan_s",
    "table.mutate": "engine.table.mutate_s",
    "maintenance_tick": "engine.maintenance.tick_s",
    # recovery only
    "read_wal": "server.recover.wal_read_s",
    "restore": "server.recover.restore_s",
    "recalc_all": "server.recover.recalc_all_s",
}


class Recorder:
    """In-memory span log: parallel lists, appended on span exit."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.ops: List[int] = []
        #: index of the trace operation in progress (-1: none).
        self.current_op = -1
        #: free-form event counts the shims bump (rows mutated, ...).
        self.counts: Dict[str, int] = {}

    def record(self, name: str, start: float, end: float) -> None:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.ops.append(self.current_op)

    def bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def spans_by_op(self) -> Dict[int, List[Tuple[str, float, float]]]:
        grouped: Dict[int, List[Tuple[str, float, float]]] = {}
        for name, start, end, op in zip(self.names, self.starts, self.ends, self.ops):
            grouped.setdefault(op, []).append((name, start, end))
        return grouped

    def to_rows(self) -> List[Tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.ops))


class DurableSize:
    """What the benchmark has *seen* reach the disk.

    Wraps ``os.fsync`` as bound in ``repro.server.wal`` and remembers the
    size the file had when the last fsync returned.  A crash image keeps
    exactly that many bytes of ``wal.jsonl``: a killed process leaves the
    operating system's cache intact, so the benchmark itself discards
    what was written but never flushed.  It also adds up how many flushes
    there were and how long the process waited in them, which the harness
    needs to tell processor time from device time."""

    def __init__(self) -> None:
        self.size = 0
        self.fsyncs = 0
        self.seconds = 0.0

    def reset(self) -> None:
        self.size = 0
        self.fsyncs = 0
        self.seconds = 0.0

    def observe(self, fd: int, seconds: float) -> None:
        self.size = os.fstat(fd).st_size
        self.fsyncs += 1
        self.seconds += seconds


class _OsProxy:
    """Stands in for the ``os`` module inside one program module, with
    ``fsync`` replaced; every other attribute is the real one."""

    def __init__(self, fsync: Callable[[int], None]):
        self.fsync = fsync

    def __getattr__(self, name: str) -> Any:
        return getattr(os, name)


def _timed(recorder: Recorder, name: str, function: Callable, count: Optional[str] = None):
    record = recorder.record
    clock = time.perf_counter

    @functools.wraps(function)
    def shim(*args: Any, **kwargs: Any) -> Any:
        start = clock()
        try:
            return function(*args, **kwargs)
        finally:
            record(name, start, clock())
            if count is not None:
                recorder.bump(count)

    return shim


def _timed_iterator(recorder: Recorder, name: str, inner: Iterator) -> Iterator:
    """Time each ``next()`` of a scan as its own span: the consumer's work
    between two batches belongs to the consumer, not to the store."""
    record = recorder.record
    clock = time.perf_counter
    try:
        while True:
            start = clock()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                record(name, start, clock())
            yield item
    finally:
        close = getattr(inner, "close", None)
        if close is not None:
            close()


def _timed_scan(recorder: Recorder, name: str, function: Callable):
    """Shim for a method that returns a lazy iterator of batches."""
    opened = _timed(recorder, name, function)

    @functools.wraps(function)
    def shim(*args: Any, **kwargs: Any) -> Iterator:
        return _timed_iterator(recorder, name, opened(*args, **kwargs))

    return shim


class Shims:
    """Installs timing shims on the program's public callables and takes
    them off again (``with Shims(recorder): ...``).

    The durable-size observer on ``repro.server.wal``'s ``os.fsync`` is
    separate (:meth:`watch_wal_fsync`): it is on in untraced runs too,
    because the crash image needs it, and costs one ``fstat`` and two
    clock reads per fsync on both sides of any comparison."""

    def __init__(self, recorder: Optional[Recorder] = None):
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- plumbing ------------------------------------------------------------

    def _replace(self, owner: Any, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _wrap(self, owner: Any, attribute: str, name: str, count: Optional[str] = None) -> None:
        assert self.recorder is not None
        self._replace(
            owner, attribute, _timed(self.recorder, name, getattr(owner, attribute), count)
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Shims":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- the durable-size observer (both modes) ------------------------------

    def watch_wal_fsync(self, durable: DurableSize) -> None:
        from repro.server import wal

        recorder = self.recorder
        real_fsync = os.fsync
        clock = time.perf_counter

        def fsync(fd: int) -> None:
            started = clock()
            real_fsync(fd)
            durable.observe(fd, clock() - started)

        if recorder is not None:
            fsync = _timed(recorder, "wal.fsync", fsync)
        self._replace(wal, "os", _OsProxy(fsync))

    # -- timing shims (traced runs only) -------------------------------------

    def install_timing(self) -> None:
        from repro.compute.engine import ComputeEngine
        from repro.core import dbsql, workbook as workbook_module
        from repro.core.dbtable import DBTableRegion
        from repro.core.sync import SyncManager
        from repro.core.workbook import Workbook
        from repro.engine import database as database_module
        from repro.engine.database import Database
        from repro.engine.planner import Planner
        from repro.engine.store import GroupedTupleStore
        from repro.engine.table import Table
        from repro.compute import engine as compute_module
        from repro.formula import dependency, evaluator
        from repro.server import service, snapshot
        from repro.server.snapshot import SnapshotStore
        from repro.server.wal import WriteAheadLog

        recorder = self.recorder
        assert recorder is not None
        wrap = self._wrap
        # server.service: validation and the parsers as bound where the
        # apply path calls them (a module global is looked up per call).
        wrap(service, "validate_op", "validate_op")
        wrap(service, "apply_op", "apply_op")
        for module in (service, database_module):
            wrap(module, "parse_sql", "parse_sql")
        wrap(dbsql, "parse_statement", "parse_sql")
        for module in (service, workbook_module, compute_module, dependency, evaluator):
            wrap(module, "parse_formula", "parse_formula")
        # server.wal / server.snapshot
        self._replace(
            WriteAheadLog, "append", self._counting_append(WriteAheadLog.append)
        )
        wrap(WriteAheadLog, "truncate_to", "wal.truncate")
        self._replace(
            snapshot, "os", _OsProxy(_timed(recorder, "snapshot.fsync", os.fsync))
        )
        self._replace(SnapshotStore, "write", self._counting_snapshot(SnapshotStore.write))
        wrap(SnapshotStore, "load", "snapshot.load")
        # core
        wrap(SyncManager, "flush", "sync.flush")
        wrap(dbsql.DBSQLRegion, "refresh", "region.refresh")
        wrap(DBTableRegion, "refresh", "region.refresh")
        wrap(Workbook, "set", "workbook.set")
        wrap(Workbook, "execute", "workbook.execute")
        wrap(Workbook, "recalc_all", "recalc_all")
        for method in ("insert_rows", "delete_rows", "insert_cols", "delete_cols"):
            wrap(Workbook, method, "workbook.structural")
        for method in (
            "register_formula", "unregister_formula", "on_value_changed",
            "on_values_changed", "rekey_formulas", "invalidate_formula", "drain",
        ):
            wrap(ComputeEngine, method, "compute.update")
        # engine
        wrap(Database, "execute", "db.execute")
        wrap(Database, "maintenance_tick", "maintenance_tick")
        wrap(Planner, "plan_select", "plan_select")
        for method in ("insert", "update_rid", "delete_at"):
            wrap(Table, method, "table.mutate", count="rows_mutated")
        self._replace(Table, "delete_rids", self._counting_delete(Table.delete_rids))
        for method in ("scan_group_batches", "scan_groups"):
            self._replace(
                GroupedTupleStore,
                method,
                _timed_scan(recorder, "store.scan", getattr(GroupedTupleStore, method)),
            )
        for method in ("read_row", "get"):
            wrap(GroupedTupleStore, method, "store.scan")
        # recovery
        wrap(service, "read_wal", "read_wal")
        wrap(service, "workbook_from_dict", "restore")

    def _counting_append(self, function: Callable) -> Callable:
        recorder = self.recorder
        timed = _timed(recorder, "wal.append", function)

        @functools.wraps(function)
        def append(wal: Any, op: Dict[str, Any], sync: Optional[bool] = None) -> Any:
            if str(op.get("type", "")).startswith("layout_"):
                recorder.bump("layout_records")
            return timed(wal, op, sync)

        return append

    def _counting_snapshot(self, function: Callable) -> Callable:
        recorder = self.recorder
        timed = _timed(recorder, "snapshot.write", function, count="snapshot.writes")

        @functools.wraps(function)
        def write(store: Any, *args: Any, **kwargs: Any) -> str:
            path = timed(store, *args, **kwargs)
            recorder.bump("snapshot.bytes", os.path.getsize(path))
            return path

        return write

    def _counting_delete(self, function: Callable) -> Callable:
        recorder = self.recorder
        timed = _timed(recorder, "table.mutate", function)

        @functools.wraps(function)
        def delete_rids(table: Any, rids: Any, emit: bool = True) -> int:
            removed = timed(table, rids, emit)
            recorder.bump("rows_mutated", removed)
            return removed

        return delete_rids


class Tracing:
    """Turns tracing on for one block of operations and off again.

    While a block is traced the timing shims are installed and the
    program's own counters (``registry()``: a flat dict read from its
    metrics registries) are read before and after, so the counts reported
    beside the times cover exactly the traced operations."""

    def __init__(
        self,
        recorder: Recorder,
        durable: DurableSize,
        registry: Callable[[], Dict[str, Any]],
        seed: int,
    ):
        self.recorder = recorder
        self.durable = durable
        self.registry = registry
        self._coin = random.Random(seed)
        self._traced_first = False
        #: counter name -> sum of its change over the traced blocks.
        self.deltas: Dict[str, float] = {}
        #: the counters as last read (for gauges such as page counts).
        self.last: Dict[str, Any] = {}
        self._shims: Optional[Shims] = None
        self._before: Dict[str, Any] = {}

    def traces_block(self, block_number: int) -> bool:
        """One block of every consecutive pair is traced; which of the two
        is drawn from the seed.  A fixed alternation would alias with
        anything periodic in the trace — with 125 WAL records per block
        every compaction of ``oltp_sql`` fell into an untraced block."""
        if block_number % 2 == 0:
            self._traced_first = self._coin.random() < 0.5
            return self._traced_first
        return not self._traced_first

    def begin_block(self) -> None:
        self._shims = Shims(self.recorder)
        self._shims.watch_wal_fsync(self.durable)
        self._shims.install_timing()
        self._before = self.registry()

    def end_block(self) -> None:
        assert self._shims is not None
        self.last = self.registry()
        for key, value in self.last.items():
            if isinstance(value, (int, float)):
                self.deltas[key] = self.deltas.get(key, 0) + value - self._before.get(key, 0)
        self.recorder.current_op = -1
        self._shims.uninstall()
        self._shims = None


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------


def flatten_tree(
    root: Any,
) -> Tuple[List[Tuple[str, float, float]], List[Tuple[str, Dict[str, Any]]]]:
    """Timed spans of a built-in trace tree as ``(name, start, end)``, plus
    ``(name, counters)`` of every node (annotation children included)."""
    timed: List[Tuple[str, float, float]] = []
    counters: List[Tuple[str, Dict[str, Any]]] = []
    stack = [root]
    while stack:
        span = stack.pop()
        if span.start:
            timed.append((span.name, span.start, span.start + span.duration))
        if span.counters:
            counters.append((span.name, span.counters))
        stack.extend(span.children)
    return timed, counters


def attribute(
    spans: Iterable[Tuple[str, float, float]],
) -> Tuple[Dict[str, float], Dict[str, float], float]:
    """Nest one operation's spans by containment.

    Returns ``(self_seconds, inclusive_seconds, root_seconds)``: self and
    inclusive time summed per span *name*, and the total duration of the
    spans that have no parent."""
    ordered = sorted(spans, key=lambda item: (item[1], -item[2]))
    self_time: Dict[str, float] = {}
    inclusive: Dict[str, float] = {}
    roots = 0.0
    # stack entries: [name, end, children_seconds, duration]
    stack: List[List[Any]] = []

    def close(entry: List[Any]) -> None:
        name, _, children, duration = entry
        self_time[name] = self_time.get(name, 0.0) + max(0.0, duration - children)

    for name, start, end in ordered:
        while stack and stack[-1][1] <= start:
            close(stack.pop())
        duration = end - start
        if stack:
            # Clip to the parent: clock granularity can make a child end a
            # tick after the parent that contains it.
            duration = min(duration, max(0.0, stack[-1][1] - start))
            stack[-1][2] += duration
        else:
            roots += duration
        # A name nested in itself (the apply_op shim inside the built-in
        # apply_op span) is counted once, at its outermost occurrence.
        if not any(entry[0] == name for entry in stack):
            inclusive[name] = inclusive.get(name, 0.0) + duration
        stack.append([name, min(end, stack[-1][1]) if stack else end, 0.0, duration])
    while stack:
        close(stack.pop())
    return self_time, inclusive, roots
