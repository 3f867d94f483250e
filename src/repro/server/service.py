"""The durable multi-session workbook service.

This is the update-propagation path the ROADMAP's scaling story needs,
separated from the read/compute path (the Polynesia lesson): every
mutation flows through one pipeline —

    validate  →  WAL append  →  apply (core/sync fans out to regions)
              →  visible-first recalc (union of session viewports)
              →  viewport-scoped broadcast  →  maybe compact

The vocabulary that pipeline ships is one table, :data:`OPS`: an op type's
validation, field types, replay arm and every per-type decision the
pipeline takes (logged? allowed in a transaction? stale-checked? a
structural shift? promoted from SQL?) are fields of its one entry, so the
stages cannot drift apart.

Durability: operations are logged to a :class:`~repro.server.wal.WriteAheadLog`
*before* they mutate the workbook (a failed apply compensates by
truncating the just-appended record, keeping log ≡ applied history).
Recovery loads the last snapshot and replays the committed WAL suffix
(:func:`recover_state`); transactions only count as committed once their
``txn_commit`` marker is on disk, and a rollback physically discards the
bracket via the :class:`~repro.engine.transaction.TransactionManager`
hook — whichever code path drove it.

Concurrency: sessions are multiplexed cooperatively (one process, no
threads — the single-writer engine below is unchanged); *conflicts* are
handled optimistically.  Every applied operation bumps the service
version; cells and regions remember the version that last wrote them; a
``set_cell`` whose base version is older than the target's last write is
rejected with :class:`~repro.errors.StaleWriteError` carrying the
current version — the client polls its deltas (advancing its horizon)
and retries.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.core.address import CellAddress, RangeAddress
from repro.core.dbtable import DBTableRegion
from repro.core.persist import workbook_from_dict
from repro.core.workbook import Workbook
from repro.engine import sql_ast
from repro.engine.database import ResultSet, txn_command
from repro.engine.sql_parser import parse_sql
from repro.errors import DataSpreadError, ServerError, SqlError, StaleWriteError
from repro.formula.parser import parse_formula
from repro.server.broadcast import Broadcaster, Delta
from repro.server.session import Session, SessionManager
from repro.server.snapshot import SnapshotStore
from repro.server.wal import WriteAheadLog, read_wal, transaction_brackets

__all__ = [
    "WorkbookService",
    "ApplyResult",
    "RecoveryResult",
    "validate_op",
    "apply_op",
    "replay_ops",
    "recover_state",
]

WAL_FILENAME = "wal.jsonl"

_LAYOUT_MODES = ("auto", "manual", "row", "column", "target")

Op = Dict[str, Any]


class OpEntry(NamedTuple):
    """One row of :data:`OPS`: everything the pipeline asks about an op
    type (the README's "Operation vocabulary" table mirrors the columns)."""

    #: semantic checks past the field types; hands back a ``sql`` op's parse
    validate: Callable[[Workbook, Op], Optional[List[Any]]]
    #: this type's arm of the replay interpreter
    apply: Callable[[Workbook, Op], Any]
    #: field -> type the op must carry (a ``str`` must also be non-blank)
    required: Mapping[str, type]
    #: field -> type the op may carry
    optional: Mapping[str, type] = {}
    #: given what ``validate`` returned: does the op become a WAL record?
    logged: Callable[[Optional[List[Any]]], bool] = lambda statements: True
    #: may run inside an open transaction (the engine's undo log covers it)
    in_transaction: bool = False
    #: subject to the optimistic stale-write check
    stale_checked: bool = False
    #: ``(axis, sign)`` of the half-space shift a structural op performs
    shift: Optional[Tuple[str, int]] = None
    #: statement class -> builder of the first-class op it is logged as
    promotions: Mapping[type, Callable[[Any], Optional[Op]]] = {}


def _fields_only(workbook: Workbook, op: Op) -> None:
    """The validate arm of ops whose field types are their whole contract."""


def _require_table(workbook: Workbook, op: Op) -> None:
    if not workbook.database.has_table(op["table"]):
        raise ServerError(f"no such table {op['table']!r}")


def _validate_set_cell(workbook: Workbook, op: Op) -> None:
    workbook.sheet(op["sheet"])  # raises SheetError when missing
    CellAddress.parse(op["ref"])
    raw = op["raw"]
    if isinstance(raw, str) and raw.startswith("="):
        parse_formula(raw[1:])  # syntax-check; install happens at apply


def _validate_sql(workbook: Workbook, op: Op) -> Optional[List[Any]]:
    if txn_command(op["sql"]) is not None:
        return None
    statements = parse_sql(op["sql"])
    if len(statements) != 1:
        raise SqlError(f"sql operation takes one statement, got {len(statements)}")
    return statements


def _sql_logged(statements: Optional[List[Any]]) -> bool:
    # Transaction control (validated to None) is framed by the hook's
    # markers, and a plain SELECT changes no state: logging reads would
    # bloat the WAL and make recovery O(all queries ever run).
    return statements is not None and not isinstance(
        statements[0], (sql_ast.SelectStmt, sql_ast.CompoundSelect)
    )


def _validate_anchor(workbook: Workbook, op: Op) -> None:
    workbook.sheet(op["sheet"])
    CellAddress.parse(op["anchor"])


def _validate_dbtable(workbook: Workbook, op: Op) -> None:
    _validate_anchor(workbook, op)
    _require_table(workbook, op)


def _scrolled_region(workbook: Workbook, op: Op) -> DBTableRegion:
    """The DBTABLE region anchored at the op's ``sheet``/``anchor``."""
    sheet = workbook.sheet(op["sheet"]).name
    at = CellAddress.parse(op["anchor"])
    region = workbook.regions.region_at(sheet, at.row, at.col)
    if not isinstance(region, DBTableRegion) or (
        region.context.anchor.row, region.context.anchor.col
    ) != (at.row, at.col):
        raise ServerError(f"no DBTABLE region is anchored at {sheet}!{op['anchor']}")
    return region


def _validate_dbtable_scroll(workbook: Workbook, op: Op) -> None:
    _scrolled_region(workbook, op)
    if op["offset"] < 0:
        raise ServerError("dbtable_scroll requires offset >= 0")


def _validate_structural(workbook: Workbook, op: Op) -> None:
    workbook.sheet(op["sheet"])
    if op["at"] < 0 or op.get("count", 1) < 1:
        raise ServerError(f"{op['type']} requires at >= 0 and count >= 1")


def _validate_layout(workbook: Workbook, op: Op) -> None:
    _require_table(workbook, op)
    mode = op.get("mode", "target")
    if mode not in _LAYOUT_MODES:
        raise ServerError(f"unknown layout mode {mode!r}")
    groups = op.get("groups")  # a list when present: the field types ran first
    if (mode == "target" or groups is not None) and not (
        groups
        and all(
            isinstance(group, list)
            and group
            and all(isinstance(name, str) for name in group)
            for group in groups
        )
    ):
        raise ServerError(
            f"{op['type']} requires 'groups': a non-empty list of "
            "non-empty column-name lists"
        )


def _apply_set_cell(workbook: Workbook, op: Op) -> None:
    workbook.set(op["sheet"], op["ref"], op["raw"])


def _apply_sql(workbook: Workbook, op: Op) -> ResultSet:
    return workbook.execute(op["sql"], tuple(op.get("params", ())))


def _apply_add_sheet(workbook: Workbook, op: Op) -> Any:
    return workbook.add_sheet(op["name"])


def _apply_dbtable(workbook: Workbook, op: Op) -> Any:
    return workbook.dbtable(
        op["sheet"],
        op["anchor"],
        op["table"],
        include_headers=op.get("include_headers", True),
        window_rows=op.get("window_rows"),
    )


def _apply_dbtable_scroll(workbook: Workbook, op: Op) -> None:
    # Logged, because a region edit resolves its table row as the window's
    # offset plus the display row: replay has to scroll where live did.
    _scrolled_region(workbook, op).scroll_to(op["offset"])


def _apply_dbsql(workbook: Workbook, op: Op) -> Any:
    return workbook.dbsql(
        op["sheet"],
        op["anchor"],
        op["sql"],
        include_headers=op.get("include_headers", False),
    )


def _apply_structural(workbook: Workbook, op: Op) -> None:
    # The op type *is* the Workbook method's name (see the loop below OPS).
    getattr(workbook, op["type"])(op["sheet"], op["at"], op.get("count", 1))


def _apply_layout_set(workbook: Workbook, op: Op) -> ResultSet:
    table = workbook.database.table(op["table"])
    mode = op.get("mode", "target")
    if mode == "auto":
        table.set_auto_layout(True)
    elif mode == "manual":
        table.set_auto_layout(False)
        table.cancel_layout_migration()
    elif mode == "target":
        # (Re-)arm an online migration toward `groups` (advisor-started
        # live, or a replayed start record); the steps themselves arrive
        # as layout_step ops / maintenance ticks.
        table.migrate_layout([list(g) for g in op["groups"]], online=True)
    else:
        # "row" / "column": same helper as the live ALTER ... SET LAYOUT
        # path, so replay cannot drift from what the server did.
        return ResultSet(rowcount=table.set_static_layout(mode).pages_written)
    return ResultSet()


def _apply_layout_step(workbook: Workbook, op: Op) -> ResultSet:
    table = workbook.database.table(op["table"])
    pages = table.store.restructure([list(g) for g in op["groups"]])
    # A replayed step lands outside the armed LayoutMigration object; if
    # it was the final one, retire the migration now so recovery does not
    # report a finished migration as still in flight.
    table.reconcile_layout_migration()
    return ResultSet(rowcount=pages)


def _apply_index_create(workbook: Workbook, op: Op) -> ResultSet:
    # Same catalog helper as the live CREATE INDEX path, so replay
    # rebuilds the identical tree (and re-raises on real conflicts).
    workbook.database.catalog.create_index(
        op["name"],
        op["table"],
        op["column"],
        unique=op.get("unique", False),
        if_not_exists=op.get("if_not_exists", False),
    )
    return ResultSet()


def _apply_index_drop(workbook: Workbook, op: Op) -> ResultSet:
    workbook.database.catalog.drop_index(
        op["name"], if_exists=op.get("if_exists", False)
    )
    return ResultSet()


def _promote_alter(statement: sql_ast.AlterTableStmt) -> Optional[Op]:
    if not isinstance(statement.action, sql_ast.AlterSetLayout):
        return None  # every other ALTER stays SQL
    mode = statement.action.mode
    return {"type": "layout_set", "table": statement.table, "mode": mode}


#: op type -> entry: the WAL's logical schema.  Adding an op is adding a row
#: — ``validate_op``, ``apply_op``, the apply pipeline and replay read this
#: table and compare an op's type to nothing else.  Transaction markers
#: (:data:`~repro.server.wal.TXN_MARKERS`) are WAL framing, not ops.
OPS: Dict[str, OpEntry] = {
    "set_cell": OpEntry(
        _validate_set_cell, _apply_set_cell,
        required={"sheet": str, "ref": str, "raw": object},
        stale_checked=True,
    ),
    "sql": OpEntry(
        _validate_sql, _apply_sql,
        required={"sql": str},
        optional={"params": list},
        logged=_sql_logged,
        in_transaction=True,
        # DDL is logged as a semantic record, not opaque SQL text: recovery
        # replays the transition itself and a snapshot can cover it.  Not
        # inside an open transaction — there the statement stays SQL, its
        # rollback rides the engine's undo log and the bracket's records
        # are discarded wholesale.
        promotions={
            sql_ast.AlterTableStmt: _promote_alter,
            sql_ast.CreateIndexStmt: lambda s: {
                "type": "index_create",
                "name": s.name,
                "table": s.table,
                "column": s.column,
                "unique": s.unique,
                "if_not_exists": s.if_not_exists,
            },
            sql_ast.DropIndexStmt: lambda s: {
                "type": "index_drop",
                "name": s.name,
                "if_exists": s.if_exists,
            },
        },
    ),
    "add_sheet": OpEntry(_fields_only, _apply_add_sheet, required={"name": str}),
    "dbtable": OpEntry(
        _validate_dbtable, _apply_dbtable,
        required={"sheet": str, "anchor": str, "table": str},
        optional={"include_headers": bool, "window_rows": int},
    ),
    "dbtable_scroll": OpEntry(  # pan a windowed DBTABLE to a table position
        _validate_dbtable_scroll, _apply_dbtable_scroll,
        required={"sheet": str, "anchor": str, "offset": int},
    ),
    "dbsql": OpEntry(
        _validate_anchor, _apply_dbsql,
        required={"sheet": str, "anchor": str, "sql": str},
        optional={"include_headers": bool},
    ),
    "layout_set": OpEntry(
        _validate_layout, _apply_layout_set,
        required={"table": str},
        # mode: auto | manual | row | column | target (the default; needs groups)
        optional={"mode": str, "groups": list},
    ),
    "layout_step": OpEntry(  # one applied migration restructure
        _validate_layout, _apply_layout_step,
        required={"table": str, "groups": list},
    ),
    "index_create": OpEntry(
        _require_table, _apply_index_create,
        required={"name": str, "table": str, "column": str},
        optional={"unique": bool, "if_not_exists": bool},
    ),
    "index_drop": OpEntry(
        _fields_only, _apply_index_drop,
        required={"name": str},
        optional={"if_exists": bool},
    ),
}
for _verb, _sign in (("insert", 1), ("delete", -1)):
    for _axis in ("row", "col"):
        OPS[f"{_verb}_{_axis}s"] = OpEntry(
            _validate_structural, _apply_structural,
            required={"sheet": str, "at": int},
            optional={"count": int},
            shift=(_axis, _sign),
        )

OP_TYPES = tuple(OPS)


def validate_op(workbook: Workbook, op: Any) -> Optional[List[Any]]:
    """Reject malformed operations *before* they reach the WAL, so the log
    only ever contains applicable records.  Returns the parse of a ``sql``
    op's text (its one statement, in a list) so the caller need not parse
    again; None for every other op and for transaction control."""
    if not isinstance(op, dict) or not isinstance(op.get("type"), str):
        raise ServerError(f"operation must be a dict with a 'type', got {op!r}")
    kind = op["type"]
    entry = OPS.get(kind)
    if entry is None:
        raise ServerError(f"unknown operation type {kind!r}")
    for name, wanted in entry.required.items():
        value = op.get(name)
        if wanted is str and not (isinstance(value, str) and value.strip()):
            raise ServerError(f"{kind} operation requires a non-empty {name!r} string")
        if name not in op or not isinstance(value, wanted):
            raise ServerError(f"{kind} operation requires {name!r} ({wanted.__name__})")
    for name, wanted in entry.optional.items():
        if name in op and not isinstance(op[name], wanted):
            raise ServerError(f"{kind} operation takes {name!r} as {wanted.__name__}")
    return entry.validate(workbook, op)


def apply_op(workbook: Workbook, op: Op) -> Any:
    """Apply one logged operation to a live workbook (also the replay
    interpreter — recovery feeds committed records straight through
    here)."""
    return OPS[op["type"]].apply(workbook, op)


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


@dataclass
class RecoveryResult:
    workbook: Workbook
    ops_replayed: int
    snapshot_used: bool
    snapshot_lsn: int
    last_lsn: int
    #: raw (records, intact_end, file_size) scan, reusable as
    #: :class:`WriteAheadLog` ``preread`` so startup reads the log once.
    wal_scan: Optional[Any] = None


def _check_snapshot_wal_alignment(
    records: List[Any], size: int, start_offset: int, snapshot_lsn: int, directory: str
) -> None:
    """Refuse to recover from a snapshot whose WAL no longer matches.

    A deleted-and-recreated (or truncated) log makes the
    ``offset >= start_offset`` suffix filter silently replay nothing —
    recovery would "succeed" with committed operations lost.  Detect the
    mismatch instead: the log must extend to the snapshot's covered
    offset, and the record ending exactly there must carry the
    snapshot's LSN (a recreated log restarts at LSN 1, so its record
    boundaries and LSNs cannot line up)."""
    if start_offset > size:
        raise ServerError(
            f"snapshot in {directory} covers the WAL up to byte "
            f"{start_offset}, but the log holds only {size} bytes — the "
            "WAL was truncated or deleted after the snapshot; committed "
            "operations are missing"
        )
    if start_offset == 0:
        return
    prefix = [record for record in records if record.end_offset <= start_offset]
    if (
        not prefix
        or prefix[-1].end_offset != start_offset
        or prefix[-1].lsn != snapshot_lsn
    ):
        found = prefix[-1].lsn if prefix else None
        raise ServerError(
            f"snapshot in {directory} expects LSN {snapshot_lsn} at WAL "
            f"byte {start_offset}, found {found!r} — the log does not "
            "match the snapshot (recreated or corrupted WAL)"
        )


def replay_ops(workbook: Workbook, ops: List[Op]) -> None:
    """Replay committed operations onto ``workbook`` — the one replay loop
    (:func:`recover_state` and the CLI's bare-WAL ``replay`` both run it).

    Replay must be deterministic: the physical layout is reconstructed
    from the snapshot plus logged layout_set/layout_step records, so the
    advisor must not run its own (stats-driven, unlogged) migrations
    while the history replays."""
    with workbook.database.maintenance.suspend():
        for op in ops:
            apply_op(workbook, op)
    workbook.recalc_all()


def recover_state(directory: str, eager: bool = True) -> RecoveryResult:
    """Rebuild the durable workbook state from ``directory``:
    snapshot (if any) + committed WAL suffix.

    Raises :class:`~repro.errors.ServerError` when the WAL on disk cannot
    contain the history the snapshot claims to cover (see
    :func:`_check_snapshot_wal_alignment`)."""
    store = SnapshotStore(directory)
    payload = store.load()
    if payload is not None:
        # pop: the decoded dump is as large as the workbook built from it.
        workbook = workbook_from_dict(payload.pop("workbook"), eager=eager)
        start_offset = int(payload["wal_offset"])
        snapshot_lsn = int(payload["wal_lsn"])
    else:
        workbook = Workbook(eager=eager)
        start_offset = 0
        snapshot_lsn = 0
    wal_path = os.path.join(directory, WAL_FILENAME)
    scan = read_wal(wal_path, payload_from=start_offset)
    records, intact_end, size = scan
    if payload is not None:
        _check_snapshot_wal_alignment(
            records, size, start_offset, snapshot_lsn, directory
        )
    suffix = [record for record in records if record.offset >= start_offset]
    # A snapshot is never taken inside a transaction, so a bracket still
    # open at the end of the log lies wholly in the suffix.
    ops, open_begin = transaction_brackets(suffix)
    database = workbook.database
    events = database.events
    if intact_end < size:
        events.record(
            "wal_repair",
            path=wal_path,
            truncated_bytes=size - intact_end,
            cause="torn_tail",
        )
    if open_begin is not None:
        events.record(
            "wal_repair",
            path=wal_path,
            truncated_bytes=intact_end - open_begin.offset,
            cause="dangling_transaction",
        )
    if database.sanitizer.enabled:
        # The committed history must be dense — read_wal enforces this at
        # parse time, the sanitizer re-asserts it at the replay boundary.
        database.sanitizer.check_replay_lsns([record.lsn for record in records])
    replay_ops(workbook, ops)
    for table_name in database.table_names():
        table = database.table(table_name)
        if table.migration_active:
            events.record(
                "migration_resume",
                table=table_name,
                groups=table.layout_migration_target,
            )
    events.record(
        "recovery",
        directory=directory,
        snapshot_used=payload is not None,
        snapshot_lsn=snapshot_lsn,
        replayed_ops=len(ops),
        tables=len(database.table_names()),
    )
    return RecoveryResult(
        workbook=workbook,
        ops_replayed=len(ops),
        snapshot_used=payload is not None,
        snapshot_lsn=snapshot_lsn,
        last_lsn=records[-1].lsn if records else snapshot_lsn,
        wal_scan=scan,
    )


# ---------------------------------------------------------------------------
# Delta capture
# ---------------------------------------------------------------------------


class _DeltaCollector:
    """Accumulates cell writes and region refreshes during one apply."""

    def __init__(self) -> None:
        self.active = False
        self.cells: Dict[Tuple[str, int, int], Any] = {}
        self.regions: Dict[int, Any] = {}

    def start(self) -> None:
        self.active = True
        self.cells = {}
        self.regions = {}

    def stop(self) -> None:
        self.active = False

    def on_cell(self, key: Tuple[str, int, int], value: Any) -> None:
        if self.active:
            self.cells[key] = value

    def on_region(self, region: Any) -> None:
        if self.active:
            self.regions[region.context.region_id] = region

    def take(self) -> Tuple[Dict[Tuple[str, int, int], Any], Dict[int, Any]]:
        cells, regions = self.cells, self.regions
        self.cells, self.regions = {}, {}
        return cells, regions


@dataclass
class ApplyResult:
    """What one successful apply produced."""

    version: int
    lsn: Optional[int]
    deltas: List[Delta] = field(default_factory=list)
    visible_recalcs: int = 0
    result: Any = None


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class WorkbookService:
    """One durable workbook, N sessions, one apply pipeline."""

    def __init__(
        self,
        directory: str,
        workbook: Optional[Workbook] = None,
        sync_every: int = 32,
        fsync: bool = True,
        compact_every: int = 256,
        eager: bool = False,
        background_maintenance: Optional[bool] = None,
    ):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.snapshots = SnapshotStore(directory, compact_every=compact_every)
        self.recovered_ops = 0
        self._snapshot_lsn = 0
        wal_scan = None
        if workbook is None:
            recovery = recover_state(directory, eager=eager)
            workbook = recovery.workbook
            self.recovered_ops = recovery.ops_replayed
            self._snapshot_lsn = recovery.snapshot_lsn
            wal_scan = recovery.wal_scan
        elif self.snapshots.exists():
            payload = self.snapshots.load()
            self._snapshot_lsn = int(payload["wal_lsn"]) if payload else 0
        self.workbook = workbook
        self.wal = WriteAheadLog(
            os.path.join(directory, WAL_FILENAME),
            sync_every=sync_every,
            fsync=fsync,
            preread=wal_scan,
        )
        # One sanitizer per service: the WAL joins the database's.
        self.wal.sanitizer = workbook.database.sanitizer
        #: monotonic service version (starts where the log ends; never
        #: decreases — a rollback is itself a new version).
        self.version = max(self.wal.last_lsn, self._snapshot_lsn)
        self._cell_versions: Dict[Tuple[str, int, int], int] = {}
        self._region_versions: Dict[int, int] = {}
        self.sessions = SessionManager()
        self.broadcast = Broadcaster(self.sessions)
        self.workbook.set_visible_predicate(self.sessions.visible_predicate())
        self._collector = _DeltaCollector()
        self.workbook.cell_listeners.append(self._collector.on_cell)
        self.workbook.region_refresh_listeners.append(self._collector.on_region)
        self._txn_mark = None
        self.workbook.database.transactions.add_hook(self._on_txn_event)
        self.ops_applied = 0
        # HTAP isolation (control layer).  The apply pipeline and every
        # background maintenance beat serialise on this lock: readers
        # (snapshot scans) never take it, appliers hold it briefly, and a
        # *budgeted* background beat holds it for a bounded restructure
        # slice instead of a whole migration.
        self._apply_lock = threading.RLock()
        # Layout transitions a maintenance beat observes are queued here
        # and appended to the WAL in one batch as the beat ends — or at
        # the next apply, compaction or close, when the beat raised or a
        # transaction was open.  Each record carries its absolute target
        # grouping, so a later flush still replays to the same layout.
        self._layout_op_queue: List[Dict[str, Any]] = []
        # The database's cadence counts applied ops from here on, and every
        # beat runs under the apply lock and WAL-logs its transitions: an
        # unlogged migration would leave a recovered server unable to
        # converge to the live layout.
        self.maintenance = self.workbook.database.maintenance
        self.maintenance.attach(
            self._on_layout_transition,
            self._after_beat,
            self._apply_lock,
            background=background_maintenance,
        )
        # Observability: the service reports through the workbook's
        # database registry/tracer/event log — one surface for all layers.
        database = self.workbook.database
        self.metrics = database.metrics_registry
        self.tracer = database.tracer
        self.events = database.events
        self._apply_counter = self.metrics.counter(
            "server_applies_total", "operations run through the apply pipeline"
        )
        self._apply_seconds = self.metrics.histogram(
            "server_apply_seconds", "apply pipeline latency (seconds)"
        )
        self._server_collector = self.metrics.register_collector(
            self._collect_server_metrics
        )

    # -- observability -------------------------------------------------------

    def _collect_server_metrics(self) -> Dict[str, Any]:
        """Pull-collector over the WAL and broadcast counter structs plus
        the service's own state (version, sessions, queue depths) — read
        at scrape time, never double-counted on the apply path."""
        worker = self.maintenance.worker
        return {
            "server_version": self.version,
            "server_ops_applied": self.ops_applied,
            "server_recovered_ops": self.recovered_ops,
            "server_sessions": len(self.sessions),
            "server_snapshots_written": self.snapshots.snapshots_written,
            "wal_lsn": self.wal.last_lsn,
            **self.wal.stats.metrics("wal_"),
            "snapshot_lsn": self._snapshot_lsn,
            **self.broadcast.stats.metrics("broadcast_"),
            "server_layout_queue": len(self._layout_op_queue),
            "server_maint_worker_beats": worker.beats if worker is not None else 0,
        }

    def trace_apply(
        self,
        session_id: int,
        op: Dict[str, Any],
        base_version: Optional[int] = None,
    ) -> Tuple["ApplyResult", Any]:
        """Run one apply with the span tracer active; returns
        ``(apply_result, span_tree)`` covering WAL append, apply, recalc
        and broadcast phases."""
        root = self.tracer.begin("apply")
        root.add("op", str(op.get("type")))
        try:
            with root:
                result = self.apply(session_id, op, base_version=base_version)
        finally:
            tree = self.tracer.finish()
            self.workbook.database.last_trace = tree
        return result, tree

    # -- sessions -------------------------------------------------------------

    def connect(
        self,
        name: Optional[str] = None,
        sheet: Optional[str] = None,
        top: int = 0,
        left: int = 0,
        n_rows: int = 40,
        n_cols: int = 20,
    ) -> Session:
        """Open a session with its own viewport, synced to the current
        version (it has implicitly 'seen' everything already applied)."""
        sheet_name = sheet or self.workbook.sheet_names()[0]
        return self.sessions.open(
            name=name,
            sheet=sheet_name,
            top=top,
            left=left,
            n_rows=n_rows,
            n_cols=n_cols,
            version=self.version,
        )

    def disconnect(self, session_id: int) -> None:
        self.sessions.close(session_id)

    def poll(self, session_id: int) -> List[Delta]:
        """Drain a session's inbox and advance its version horizon to the
        service's current version.  Polling means "I have seen everything
        visible to me as of now" — changes outside the viewport were
        filtered by broadcast and can never appear in the inbox, so
        without this a write rejected because of an *off-screen* change
        could be re-rejected forever."""
        session = self.sessions.get(session_id)
        deltas = session.poll()
        if self.version > session.last_seen_version:
            session.last_seen_version = self.version
        return deltas

    # -- transaction hook ------------------------------------------------------

    def _on_txn_event(self, event: str, txn_id: int) -> None:
        if event == "begin":
            self._txn_mark = self.wal.mark()
            self.wal.append({"type": "txn_begin", "txn": txn_id})
        elif event == "commit":
            # The commit marker IS the durability point: fsync immediately.
            self.wal.append({"type": "txn_commit", "txn": txn_id}, sync=True)
            self._txn_mark = None
        elif event == "rollback":
            if self._txn_mark is not None:
                self.wal.truncate_to(self._txn_mark)
                self._txn_mark = None

    # -- the apply pipeline -----------------------------------------------------

    def apply(
        self,
        session_id: int,
        op: Dict[str, Any],
        base_version: Optional[int] = None,
    ) -> ApplyResult:
        """Run one operation through the full pipeline on behalf of a
        session.  Raises :class:`StaleWriteError` when the optimistic
        version check fails (nothing is logged or applied in that case)."""
        # Gate the perf_counter pair on the enabled flag: metrics off
        # costs one boolean test per apply.
        timed = self.metrics.enabled
        started = time.perf_counter() if timed else 0.0
        try:
            with self._apply_lock:
                return self._apply(session_id, op, base_version)
        finally:
            if timed:
                self._apply_counter.value += 1
                self._apply_seconds.observe(time.perf_counter() - started)

    def _apply(
        self,
        session_id: int,
        op: Dict[str, Any],
        base_version: Optional[int] = None,
    ) -> ApplyResult:
        session = self.sessions.get(session_id)
        base = session.last_seen_version if base_version is None else base_version
        # The one parse the service makes of a sql op: DDL promotion and
        # the logged-or-not test below read what validation parsed.
        statements = validate_op(self.workbook, op)
        entry = OPS[op["type"]]
        if entry.stale_checked:  # everything else is authoritative, not optimistic
            self._check_stale(session, op, base)
        in_transaction = self.workbook.database.in_transaction
        if in_transaction and not entry.in_transaction:
            # The engine's undo log only covers database mutations, so a
            # rolled-back sheet edit would diverge live state from the
            # truncated WAL.  Refuse rather than corrupt.
            raise ServerError(
                f"{op['type']} operations cannot run inside an open "
                "transaction (only SQL participates in rollback)"
            )
        if statements is not None and not in_transaction:
            promote = entry.promotions.get(type(statements[0]))
            promoted = promote(statements[0]) if promote is not None else None
            if promoted is not None:
                op, entry = promoted, OPS[promoted["type"]]
        # Flush background layout records *before* taking the rollback
        # mark: they are maintenance history, not part of this operation,
        # and must never be truncated with it.
        self._drain_layout_queue()
        mark = self.wal.mark()
        lsn: Optional[int] = None
        if entry.logged(statements):
            with self.tracer.span("wal_append") as wal_span:
                unsynced_before = self.wal.stats.syncs
                lsn = self.wal.append(op).lsn
                wal_span.add("lsn", lsn)
                wal_span.add("synced", self.wal.stats.syncs - unsynced_before)
        self._collector.start()
        try:
            try:
                with self.tracer.span("apply_op"):
                    result = apply_op(self.workbook, op)
            except DataSpreadError as error:
                # Expected engine/server failure: compensate the WAL (the
                # log must equal the applied history), leave a structured
                # trace of what was rejected, and re-raise for the caller.
                if lsn is not None:
                    self.wal.truncate_to(mark)
                self.events.record(
                    "apply_error",
                    op=str(op.get("type")),
                    error=type(error).__name__,
                    message=str(error),
                    lsn=lsn,
                )
                raise
            except BaseException:
                # Unexpected failure (engine bug, KeyboardInterrupt): still
                # compensate so log ≡ applied holds even then.
                if lsn is not None:
                    self.wal.truncate_to(mark)
                raise
            if entry.shift is not None:
                self._remap_cell_versions(op, *entry.shift)
            with self.tracer.span("recalc_visible") as recalc_span:
                visible = self.workbook.compute.recalc_visible()
                recalc_span.add("visible_recalcs", visible)
            self.version += 1
            self.ops_applied += 1
            deltas = self._drain_deltas(origin=session_id)
            if entry.shift is not None:
                # One compact delta describes the whole half-space shift —
                # clients remap their pane instead of receiving a cell
                # delta for every relocated position.
                axis, sign = entry.shift
                deltas.insert(
                    0,
                    Delta(
                        kind="shift",
                        sheet=op["sheet"],
                        version=self.version,
                        origin=session_id,
                        axis=axis,
                        at=op["at"],
                        count=sign * op.get("count", 1),
                    ),
                )
            with self.tracer.span("broadcast") as broadcast_span:
                self.broadcast.publish(deltas, origin=session_id)
                broadcast_span.add("deltas", len(deltas))
            session.last_seen_version = self.version
            session.writes_applied += 1
        finally:
            self._collector.stop()
        self.maintenance.count("op")
        self.maybe_compact()
        return ApplyResult(
            version=self.version,
            lsn=lsn,
            deltas=deltas,
            visible_recalcs=visible,
            result=result,
        )

    def _remap_cell_versions(self, op: Op, axis: str, sign: int) -> None:
        """Mirror a structural shift in the optimistic-concurrency map.

        ``_cell_versions`` is keyed by logical ``(sheet, row, col)``;
        after an insert/delete of rows or columns the stamps must move
        with their cells (the shift delta's half-space translation) and
        stamps of deleted cells must be dropped.  Without this, a stale
        write silently clobbers a moved-but-modified cell — the exact
        thing the module docstring promises never happens — and is
        spuriously rejected by the ghost version of whatever used to
        occupy the coordinates it targets."""
        sheet = op["sheet"]
        axis_is_row = axis == "row"
        at = op["at"]
        count = op.get("count", 1)
        delta = sign * count
        removed = count if sign < 0 else 0
        remapped: Dict[Tuple[str, int, int], int] = {}
        for key, version in self._cell_versions.items():
            key_sheet, row, col = key
            coordinate = row if axis_is_row else col
            if key_sheet != sheet or coordinate < at:
                remapped[key] = version
                continue
            if removed and coordinate < at + removed:
                continue  # the stamped cell itself was deleted
            if axis_is_row:
                remapped[(key_sheet, row + delta, col)] = version
            else:
                remapped[(key_sheet, row, col + delta)] = version
        self._cell_versions = remapped

    # Convenience wrappers (what a client library would expose).

    def set_cell(
        self,
        session_id: int,
        sheet: str,
        ref: Any,
        raw: Any,
        base_version: Optional[int] = None,
    ) -> ApplyResult:
        address = ref if isinstance(ref, CellAddress) else CellAddress.parse(str(ref))
        op = {
            "type": "set_cell",
            "sheet": sheet,
            "ref": address.to_a1(include_sheet=False),
            "raw": raw,
        }
        return self.apply(session_id, op, base_version=base_version)

    def execute(
        self, session_id: int, sql: str, params: Tuple[Any, ...] = ()
    ) -> ApplyResult:
        op: Dict[str, Any] = {"type": "sql", "sql": sql}
        if params:
            op["params"] = list(params)
        return self.apply(session_id, op)

    # -- staleness -----------------------------------------------------------------

    def _check_stale(self, session: Session, op: Dict[str, Any], base: int) -> None:
        address = CellAddress.parse(op["ref"])
        key = (op["sheet"], address.row, address.col)
        newest = self._cell_versions.get(key, 0)
        region = self.workbook.regions.region_at(*key)
        if region is not None:
            newest = max(
                newest,
                self._region_versions.get(region.context.region_id, 0),
            )
        if newest > base:
            session.writes_rejected += 1
            raise StaleWriteError(
                f"cell {op['sheet']}!{op['ref']} was modified at version "
                f"{newest}, newer than the session's base {base}; refresh "
                "and retry",
                current_version=self.version,
            )

    # -- delta assembly ---------------------------------------------------------------

    def _drain_deltas(self, origin: Optional[int]) -> List[Delta]:
        cells, regions = self._collector.take()
        deltas: List[Delta] = []
        region_areas: List[Tuple[str, RangeAddress]] = []
        for region in regions.values():
            context = region.context
            area = context.extent or RangeAddress(context.anchor, context.anchor)
            region_areas.append((context.sheet, area))
            self._region_versions[context.region_id] = self.version
            deltas.append(
                Delta(
                    kind="region",
                    sheet=context.sheet,
                    version=self.version,
                    origin=origin,
                    region_id=context.region_id,
                    area=area,
                    description=context.description,
                )
            )
        for key, value in cells.items():
            sheet, row, col = key
            covered = any(
                sheet == region_sheet and area.contains(CellAddress(row, col))
                for region_sheet, area in region_areas
            )
            self._cell_versions[key] = self.version
            if covered:
                continue  # the region delta already announces this cell
            deltas.append(
                Delta(
                    kind="cell",
                    sheet=sheet,
                    version=self.version,
                    origin=origin,
                    row=row,
                    col=col,
                    value=value,
                )
            )
        return deltas

    # -- background compute ------------------------------------------------------------

    def step(self, budget: int = 64) -> int:
        """Run a slice of non-visible recalc work and broadcast what it
        produced (a cell can be visible to a session even though no apply
        touched it — e.g. after a scroll).  Each step is also a beat of
        the serve loop's adaptive-layout maintenance, so a recovered
        server keeps adapting (and resumes a restored half-done
        migration) even while no edits arrive."""
        with self._apply_lock:
            self._collector.start()
            try:
                computed = self.workbook.background_step(budget)
                if computed:
                    self.version += 1
                    deltas = self._drain_deltas(origin=None)
                    self.broadcast.publish(deltas, origin=None)
            finally:
                self._collector.stop()
        # The serve loop's beat shares the apply cadence, except that it
        # is due on every step while a migration is in flight.
        self.maintenance.count("op", idle=True)
        return computed

    # -- adaptive-layout maintenance ---------------------------------------------

    def _after_beat(self) -> None:
        """Every beat ends here, under the apply lock: the transitions it
        queued reach the WAL, then a due snapshot is written."""
        self._drain_layout_queue()
        self.maybe_compact()

    def _on_layout_transition(
        self, table_name: str, event: str, groups: List[List[str]]
    ) -> None:
        """Queue one layout transition a maintenance beat observed: an
        advisor-started migration becomes a ``layout_set`` (mode
        ``target``) record and every applied restructure step a
        ``layout_step`` record, so the committed-suffix replay converges
        to the layout the live server had.  Records carry absolute target
        groupings, so a crash that loses queued records still recovers:
        the logged migration start (or the snapshot's
        ``migration_target``) re-arms the migration, which the serve
        loop then completes."""
        payload = [list(group) for group in groups]
        if event == "start":
            op: Dict[str, Any] = {
                "type": "layout_set",
                "table": table_name,
                "mode": "target",
                "groups": payload,
            }
        else:
            op = {"type": "layout_step", "table": table_name, "groups": payload}
        self._layout_op_queue.append(op)

    def _drain_layout_queue(self) -> None:
        """Append queued layout transitions to the WAL in observation
        order (the caller holds the apply lock, as every beat does).  A
        no-op inside an open transaction — maintenance records must not
        land inside a txn bracket, where a rollback's truncate would
        discard them — the queue holds them for the next drain point."""
        if self._layout_op_queue and not self.workbook.database.in_transaction:
            ops, self._layout_op_queue = self._layout_op_queue, []
            self.wal.append_many(ops)

    # -- compaction ----------------------------------------------------------------------

    def compact(self, force: bool = False) -> Optional[str]:
        """Write a snapshot covering the current WAL position."""
        if self.workbook.database.in_transaction:
            if force:
                raise ServerError("cannot snapshot inside an open transaction")
            return None
        with self._apply_lock:
            return self._compact_locked()

    def _compact_locked(self) -> Optional[str]:
        # Queued background layout records are part of the history the
        # snapshot is about to cover — flush them first so the snapshot's
        # WAL offset really does include every applied transition.
        self._drain_layout_queue()
        self.wal.sync()
        covered_before = self._snapshot_lsn
        path = self.snapshots.write(
            self.workbook, self.wal.last_lsn, self.wal.end_offset
        )
        self._snapshot_lsn = self.wal.last_lsn
        self.events.record(
            "snapshot_compaction",
            directory=self.directory,
            lsn=self.wal.last_lsn,
            ops_covered=self.wal.last_lsn - covered_before,
            wal_bytes=self.wal.end_offset,
        )
        return path

    def maybe_compact(self) -> Optional[str]:
        if self.snapshots.should_compact(
            self.wal.last_lsn,
            self._snapshot_lsn,
            self.workbook.database.in_transaction,
        ):
            return self.compact()
        return None

    # -- lifecycle ----------------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Shut the service down.  ``drain=True`` (clean shutdown) runs
        background maintenance to quiescence and flushes queued layout
        records before the log closes; ``drain=False`` models a crash —
        recovery re-arms any half-done migration from the last logged
        target and the serve loop finishes it."""
        self.maintenance.stop(drain=drain)
        with self._apply_lock:
            if drain:
                self._drain_layout_queue()
            self.wal.close()
        self.maintenance.detach()
        self.metrics.remove_collector(self._server_collector)
        try:
            self.workbook.database.transactions.remove_hook(self._on_txn_event)
            self.workbook.cell_listeners.remove(self._collector.on_cell)
            self.workbook.region_refresh_listeners.remove(self._collector.on_region)
        except ValueError:  # pragma: no cover - already detached
            pass

    def __enter__(self) -> "WorkbookService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- stats -------------------------------------------------------------------------

    def stats_summary(self) -> Dict[str, Any]:
        """Registry-backed service summary.

        The numbers come from one :meth:`MetricsRegistry.snapshot` (the
        same scrape the CLI ``metrics`` command exports); the historical
        keys are kept as aliases so existing tests and REPL output stay
        stable, and the full flat snapshot rides along under
        ``"metrics"``.

        The scrape runs between maintenance beats and under the apply
        lock (in that order, the worker's), so a finished beat shows its
        effects and its count together."""
        worker = self.maintenance.worker
        with worker.between_beats() if worker is not None else nullcontext():
            with self._apply_lock:
                snap = self.metrics.snapshot()
        return {
            "version": snap["server_version"],
            "ops_applied": snap["server_ops_applied"],
            "recovered_ops": snap["server_recovered_ops"],
            "sessions": snap["server_sessions"],
            "wal": self.wal.stats,
            "wal_lsn": snap["wal_lsn"],
            "snapshot_lsn": snap["snapshot_lsn"],
            "snapshots_written": snap["server_snapshots_written"],
            "broadcast": {
                "published": snap["broadcast_published"],
                "delivered": snap["broadcast_delivered"],
                "suppressed": snap["broadcast_suppressed"],
            },
            "maintenance": {
                "background": self.maintenance.background,
                "worker_running": bool(snap["db_maint_worker_running"]),
                "worker_beats": snap["server_maint_worker_beats"],
                "ticks": snap.get("db_maint_ticks", 0),
                "blocks": snap.get("db_maint_blocks", 0),
                "queued_layout_ops": snap["server_layout_queue"],
            },
            "metrics": snap,
        }
