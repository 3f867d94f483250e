"""An interactive terminal front-end for DataSpread.

The original demo used Excel; this REPL is our stand-in interface: a
scrollable sheet window plus a command line that accepts both cell entry
and SQL — the "holistic unification" at the prompt.

Run:  python -m repro.cli                 (in-memory workbook)
      python -m repro.cli serve <dir>     (durable, WAL-backed workbook)
      python -m repro.cli replay <path>   (recover a WAL/service dir, print state)
      python -m repro.cli metrics <dir>   (recover a service dir, print metrics)
      python -m repro.cli events <dir>    (recover a service dir, tail event log)

Commands
--------
``A1 = 42``                 set a cell (values or ``=formulas``)
``A1 = =SUM(B1:B9)``        install a formula
``sql SELECT ...``          run SQL; SELECT results are printed
``sheet [name]``            switch/create sheet
``goto A100``               scroll the window to a cell
``show [A1:D10]``           print the current window (or a range)
``tables``                  list tables
``regions``                 list display regions
``stats``                   workbook statistics
``metrics [prom]``          metrics snapshot (human table, or Prometheus text)
``events [n]``              tail the maintenance event log (last n, default all)
``layout-stats [table]``    physical layout: groups, pages, I/O, skip ratios
``layout-advise [table]``   ask the layout advisor what it would do
``save <path>``             persist the whole workbook to JSON
``load <path>``             load a saved workbook
``serve <dir>``             attach to a durable workbook (WAL + snapshots)
``replay <path>``           recover a WAL or service directory, print state
``deltas``                  (serving) drain this session's change feed
``snapshot``                (serving) force a compaction snapshot
``help`` / ``quit``
"""

from __future__ import annotations

import os
import shlex
import sys
from typing import List, Optional

from repro import Workbook
from repro.core.address import CellAddress
from repro.core.render import render_range, render_window
from repro.errors import DataSpreadError, ServerError, StaleWriteError

__all__ = ["DataSpreadShell", "replay_report", "observability_report", "main"]

_PROMPT = "dataspread> "


def replay_report(path: str) -> str:
    """Recover durable state from ``path`` and describe the result.

    ``path`` may be a service directory (snapshot + WAL) or a bare WAL
    file (replayed from an empty workbook).  Returns a human-readable
    summary plus a render of the first sheet's top-left window."""
    from repro.server.service import WAL_FILENAME, recover_state, replay_ops
    from repro.server.wal import committed_ops, read_wal

    if not os.path.exists(path):
        raise ServerError(f"no such WAL file or service directory: {path!r}")
    if os.path.isdir(path):
        directory = path
    elif (
        os.path.basename(path) == WAL_FILENAME
        and os.path.exists(os.path.join(os.path.dirname(path) or ".", "snapshot.json"))
    ):
        # A wal.jsonl next to a snapshot: replay the whole directory so
        # ops that assume snapshotted state (tables, sheets) resolve.
        directory = os.path.dirname(path) or "."
    else:
        directory = None

    if directory is not None:
        recovery = recover_state(directory)
        workbook = recovery.workbook
        header = (
            f"recovered {directory}: "
            f"{'snapshot + ' if recovery.snapshot_used else ''}"
            f"{recovery.ops_replayed} committed ops replayed "
            f"(wal lsn {recovery.last_lsn})"
        )
    else:
        records, _, _ = read_wal(path)
        ops = committed_ops(records)
        workbook = Workbook()
        replay_ops(workbook, ops)
        header = (
            f"replayed {path}: {len(ops)} committed ops "
            f"of {len(records)} records"
        )

    lines = [header]
    for name in workbook.database.table_names():
        table = workbook.database.table(name)
        mode = "auto" if table.auto_layout else "manual"
        line = (
            f"table {name}: {table.n_rows} rows, "
            f"groups {table.schema.groups}, layout {mode}"
        )
        if table.migration_active:
            line += f", migrating -> {table.layout_migration_target}"
        lines.append(line)
    for region in workbook.regions.all():
        context = region.context
        extent = context.extent.to_a1(include_sheet=False) if context.extent else "?"
        lines.append(f"region #{context.region_id} {context.kind} {context.sheet}!{extent}")
    first_sheet = workbook.sheet_names()[0]
    lines.append(render_window(workbook, first_sheet, top=0, left=0, n_rows=12, n_cols=6))
    return "\n".join(lines)


def observability_report(kind: str, directory: str, argument: str = "") -> str:
    """Recover a service directory and print its metrics or event log.

    ``kind`` is ``"metrics"`` (``argument`` may be ``"prom"`` for the
    Prometheus text exposition) or ``"events"`` (``argument`` may be a
    tail length).  Recovery itself populates the registry and event log,
    so this shows what a server opening the directory would see —
    including any WAL repair and resumed migrations."""
    from repro.server.service import recover_state

    if not os.path.isdir(directory):
        raise ServerError(f"no such service directory: {directory!r}")
    recovery = recover_state(directory)
    database = recovery.workbook.database
    if kind == "metrics":
        if argument in ("prom", "prometheus"):
            return database.metrics_registry.render_prometheus().rstrip("\n")
        return database.metrics_registry.render_table()
    limit = int(argument) if argument else None
    events = database.events.tail(limit)
    if not events:
        return "(no events)"
    return "\n".join(event.render() for event in events)


class DataSpreadShell:
    """Line-oriented REPL over a workbook.

    Separated from ``main`` so tests can drive it with
    :meth:`handle_line` and capture the returned output strings.  With a
    :class:`~repro.server.service.WorkbookService` attached (the ``serve``
    command or ``main(["serve", dir])``), edits and SQL flow through the
    durable apply pipeline as one session of the service.
    """

    def __init__(self, workbook: Optional[Workbook] = None, service=None):
        self.service = None
        self.session = None
        self.workbook = workbook if workbook is not None else Workbook()
        self.sheet_name = self.workbook.sheet_names()[0]
        self.top = 0
        self.left = 0
        self.n_rows = 12
        self.n_cols = 6
        self.running = True
        if service is not None:
            self._attach_service(service)

    def _attach_service(self, service) -> None:
        self.service = service
        self.workbook = service.workbook
        self.sheet_name = self.workbook.sheet_names()[0]
        self.top = self.left = 0
        self.session = service.connect(
            "cli",
            sheet=self.sheet_name,
            top=self.top,
            left=self.left,
            n_rows=self.n_rows,
            n_cols=self.n_cols,
        )

    # -- command handling --------------------------------------------------

    def handle_line(self, line: str) -> str:
        """Execute one command line; returns the text to display."""
        line = line.strip()
        if not line:
            return ""
        try:
            return self._dispatch(line)
        except DataSpreadError as error:
            return f"error: {error}"

    def _dispatch(self, line: str) -> str:
        lowered = line.lower()
        if lowered in ("quit", "exit"):
            self.running = False
            if self.service is not None:
                self.service.close()
            return "bye"
        if lowered == "help":
            return (__doc__ or "").strip()
        if lowered.startswith("serve "):
            return self._serve(line[6:].strip())
        if lowered.startswith("replay "):
            return replay_report(line[7:].strip())
        if lowered == "deltas":
            return self._deltas()
        if lowered == "snapshot":
            if self.service is None:
                return "not serving (use 'serve <dir>' first)"
            path = self.service.compact()
            return f"snapshot written to {path}" if path else "snapshot skipped"
        if lowered.startswith("sql "):
            return self._run_sql(line[4:])
        if lowered.startswith("sheet"):
            return self._switch_sheet(line[5:].strip())
        if lowered.startswith("goto "):
            return self._goto(line[5:].strip())
        if lowered.startswith("show"):
            argument = line[4:].strip()
            if argument:
                return render_range(self.workbook, self.sheet_name, argument)
            return self._window()
        if lowered == "tables":
            names = self.workbook.database.table_names()
            return "\n".join(
                f"{name} ({self.workbook.database.table(name).n_rows} rows)"
                for name in names
            ) or "(no tables)"
        if lowered == "regions":
            lines = []
            for region in self.workbook.regions.all():
                context = region.context
                lines.append(
                    f"#{context.region_id} {context.kind} "
                    f"{context.sheet}!{context.extent.to_a1(include_sheet=False) if context.extent else '?'} "
                    f"<- {context.description}"
                )
            return "\n".join(lines) or "(no regions)"
        if lowered == "metrics" or lowered.startswith("metrics "):
            return self._metrics(line[len("metrics") :].strip())
        if lowered == "events" or lowered.startswith("events "):
            return self._events(line[len("events") :].strip())
        if lowered.startswith("layout-stats"):
            return self._layout_stats(line[len("layout-stats") :].strip())
        if lowered.startswith("layout-advise"):
            return self._layout_advise(line[len("layout-advise") :].strip())
        if lowered == "stats":
            summary = self.workbook.stats_summary()
            if self.service is not None:
                summary["server"] = self.service.stats_summary()
            return "\n".join(f"{key}: {value}" for key, value in summary.items())
        if lowered.startswith("save "):
            from repro.core.persist import save_workbook

            path = line[5:].strip()
            save_workbook(self.workbook, path)
            return f"saved to {path}"
        if lowered.startswith("load "):
            from repro.core.persist import load_workbook

            if self.service is not None:
                return "error: cannot 'load' while serving (quit and reopen)"
            path = line[5:].strip()
            self.workbook = load_workbook(path)
            self.sheet_name = self.workbook.sheet_names()[0]
            self.top = self.left = 0
            return f"loaded {path} ({len(self.workbook.sheets)} sheets)"
        if "=" in line:
            return self._assign(line)
        return f"unrecognised command: {line!r} (try 'help')"

    def _assign(self, line: str) -> str:
        target, _, raw = line.partition("=")
        target = target.strip()
        raw = raw.strip()
        CellAddress.parse(target)  # validate before mutating
        # '=SUM(...)' arrives as 'A1 = =SUM(...)'; plain values without '='.
        if self.service is not None:
            try:
                self.service.set_cell(
                    self.session.session_id, self.sheet_name, target, raw
                )
            except StaleWriteError as error:
                return (
                    f"stale write rejected (now at version "
                    f"{error.current_version}); run 'deltas' to catch up, "
                    "then retry"
                )
        else:
            self.workbook.set(self.sheet_name, target, raw)
        value = self.workbook.get(self.sheet_name, target)
        return f"{target} = {value!r}"

    def _run_sql(self, sql: str) -> str:
        from repro.engine.database import is_explain_trace

        if self.service is not None and not is_explain_trace(sql):
            result = self.service.execute(self.session.session_id, sql).result
        else:
            # EXPLAIN TRACE is read-only diagnostics: run it directly on
            # the engine rather than through the durable apply pipeline
            # (it is not an operation worth logging to the WAL).
            result = self.workbook.execute(sql)
        if result is None or not result.columns:
            rowcount = getattr(result, "rowcount", 0)
            return f"ok ({rowcount} rows affected)"
        if result.columns == ["trace"]:
            # EXPLAIN TRACE: the rows are pre-rendered tree lines.
            return "\n".join(str(row[0]) for row in result.rows)
        widths = [
            max(len(str(column)), *(len(str(row[i])) for row in result.rows))
            if result.rows
            else len(str(column))
            for i, column in enumerate(result.columns)
        ]
        lines = [
            " | ".join(str(c).ljust(w) for c, w in zip(result.columns, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in result.rows[:50]:
            lines.append(
                " | ".join(str(v if v is not None else "").ljust(w) for v, w in zip(row, widths))
            )
        if len(result.rows) > 50:
            lines.append(f"... ({len(result.rows)} rows total)")
        return "\n".join(lines)

    # -- observability commands ---------------------------------------------

    def _metrics(self, argument: str) -> str:
        registry = self.workbook.database.metrics_registry
        if argument in ("prom", "prometheus"):
            return registry.render_prometheus().rstrip("\n")
        if argument:
            return "usage: metrics [prom]"
        return registry.render_table()

    def _events(self, argument: str) -> str:
        limit = None
        if argument:
            try:
                limit = int(argument)
            except ValueError:
                return "usage: events [n]"
        events = self.workbook.database.events.tail(limit)
        if not events:
            return "(no events)"
        return "\n".join(event.render() for event in events)

    # -- adaptive-layout commands -------------------------------------------

    def _layout_tables(self, name: str):
        database = self.workbook.database
        if name:
            return [database.table(name)]
        return [database.table(table) for table in database.table_names()]

    def _layout_stats(self, name: str) -> str:
        tables = self._layout_tables(name)
        if not tables:
            return "(no tables)"
        lines = []
        for table in tables:
            mode = "auto" if table.auto_layout else "manual"
            suffix = (
                f", migration in progress -> {table.layout_migration_target}"
                if table.migration_active
                else ""
            )
            lines.append(
                f"table {table.name}: {table.n_rows} rows, "
                f"{table.store.n_groups} groups, layout {mode}{suffix}"
            )
            for info in table.store.group_summary():
                io = info["io"]
                encoded = (
                    f", encoded {info['ratio']:.1f}x" if info["encoded"] else ""
                )
                lines.append(
                    f"  group {info['group']} [{', '.join(info['columns'])}]: "
                    f"{info['pages']} pages, {io['reads']} block reads, "
                    f"{io['writes']} block writes, "
                    f"{io['bytes_read']} bytes decoded{encoded}"
                )
                skip = info["skip"]
                if skip["pages_skipped"] or skip["pages_scanned"]:
                    lines.append(
                        f"    skipping: {skip['pages_skipped']} pages skipped, "
                        f"{skip['pages_scanned']} scanned "
                        f"(ratio {skip['skip_ratio']:.1%}, "
                        f"zone coverage {info['zones']:.0%})"
                    )
            stats = table.store.access_stats
            lines.append(
                f"  ops: {stats.inserts} inserts, {stats.deletes} deletes, "
                f"{stats.point_reads} point reads, {stats.full_updates} row updates, "
                f"{stats.full_scans} table scans, {stats.schema_changes} schema changes"
            )
            for column_name, column in sorted(stats.columns.items()):
                if column.scans or column.updates:
                    lines.append(
                        f"  col {column_name}: {column.scans} scans, "
                        f"{column.updates} updates"
                    )
            # Joint-scan affinity (the co-access signal the layout
            # advisor clusters on), hottest pairs first.
            for (first, second), count in stats.co_access_pairs()[:8]:
                lines.append(f"  co-scan {first}+{second}: {count} joint scans")
        return "\n".join(lines)

    def _layout_advise(self, name: str) -> str:
        tables = self._layout_tables(name)
        if not tables:
            return "(no tables)"
        lines = []
        for table in tables:
            recommendation = table.advise_layout()
            if recommendation is None:
                lines.append(
                    f"table {table.name}: keep current layout "
                    f"{table.schema.groups} (no cheaper candidate, or too "
                    "little workload observed)"
                )
                continue
            verdict = (
                "recommended" if recommendation.worthwhile
                else "not worth the migration yet"
            )
            lines.append(
                f"table {table.name}: {verdict} -> {recommendation.target_groups} "
                f"(predicted blocks {recommendation.current_cost} -> "
                f"{recommendation.target_cost}, migration ~"
                f"{recommendation.migration_cost})"
            )
        return "\n".join(lines)

    def _switch_sheet(self, name: str) -> str:
        if not name:
            return "sheets: " + ", ".join(self.workbook.sheet_names())
        if name not in self.workbook.sheets:
            if self.service is not None:
                # Through the pipeline, so recovery can recreate the sheet
                # before replaying edits logged against it.
                self.service.apply(
                    self.session.session_id, {"type": "add_sheet", "name": name}
                )
            else:
                self.workbook.add_sheet(name)
        self.sheet_name = name
        self.top = self.left = 0
        if self.session is not None:
            self.session.viewport.sheet = name
            self.session.scroll_to(0, 0)
        return f"on sheet {name}"

    def _goto(self, ref: str) -> str:
        address = CellAddress.parse(ref)
        self.top = address.row
        self.left = address.col
        if self.session is not None:
            self.session.viewport.sheet = self.sheet_name
            self.session.scroll_to(self.top, self.left)
        return self._window()

    # -- server-mode commands ----------------------------------------------

    def _serve(self, directory: str) -> str:
        from repro.server.service import WorkbookService

        if self.service is not None:
            return f"error: already serving {self.service.directory}"
        if not directory:
            return "usage: serve <directory>"
        service = WorkbookService(directory)
        self._attach_service(service)
        return (
            f"serving {directory} (version {service.version}, "
            f"{service.recovered_ops} ops recovered, "
            f"session #{self.session.session_id})"
        )

    def _deltas(self) -> str:
        if self.session is None:
            return "not serving (use 'serve <dir>' first)"
        deltas = self.service.poll(self.session.session_id)
        if not deltas:
            return "(no pending deltas)"
        lines = []
        for delta in deltas:
            if delta.kind == "cell":
                address = CellAddress(delta.row, delta.col)
                lines.append(
                    f"v{delta.version} cell {delta.sheet}!"
                    f"{address.to_a1(include_sheet=False)} = {delta.value!r}"
                )
            else:
                extent = delta.area.to_a1(include_sheet=False) if delta.area else "?"
                lines.append(
                    f"v{delta.version} region #{delta.region_id} "
                    f"{delta.sheet}!{extent} ({delta.description})"
                )
        return "\n".join(lines)

    def _window(self) -> str:
        return render_window(
            self.workbook,
            self.sheet_name,
            top=self.top,
            left=self.left,
            n_rows=self.n_rows,
            n_cols=self.n_cols,
        )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: ``serve <dir>`` / ``replay <path>`` subcommands, or
    the plain in-memory REPL when no arguments are given."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "replay":
        if len(arguments) != 2:
            print("usage: python -m repro.cli replay <wal-or-directory>")
            return 2
        try:
            print(replay_report(arguments[1]))
        except DataSpreadError as error:
            print(f"error: {error}")
            return 1
        return 0
    if arguments and arguments[0] in ("metrics", "events"):
        if len(arguments) not in (2, 3):
            print(f"usage: python -m repro.cli {arguments[0]} <directory> "
                  f"[{'prom' if arguments[0] == 'metrics' else 'n'}]")
            return 2
        extra = arguments[2] if len(arguments) == 3 else ""
        try:
            print(observability_report(arguments[0], arguments[1], extra))
        except (DataSpreadError, ValueError) as error:
            print(f"error: {error}")
            return 1
        return 0
    shell = DataSpreadShell()
    if arguments and arguments[0] == "serve":
        if len(arguments) != 2:
            print("usage: python -m repro.cli serve <directory>")
            return 2
        print(shell.handle_line(f"serve {arguments[1]}"))
    elif arguments:
        print(
            f"unknown subcommand {arguments[0]!r} "
            "(try 'serve', 'replay', 'metrics' or 'events')"
        )
        return 2
    _repl(shell)
    return 0


def _repl(shell: DataSpreadShell) -> None:  # pragma: no cover - interactive loop
    print("DataSpread shell — 'help' for commands, 'quit' to exit.")
    while shell.running:
        try:
            line = input(_PROMPT)
        except (EOFError, KeyboardInterrupt):
            print()
            break
        output = shell.handle_line(line)
        if output:
            print(output)
        if shell.service is not None and shell.running:
            # The serve loop's maintenance beat: background recalc plus a
            # Database.maintenance_tick (via the service, so layout
            # transitions are WAL-logged) — a recovered server keeps
            # adapting and resumes any restored half-done migration.
            shell.service.step(budget=32)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
