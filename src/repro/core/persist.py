"""Workbook persistence: save/load a whole DataSpread workbook.

A workbook is more than data: it is tables (with their schemas, attribute
groups and presentation order), free-form cells, formulas, and the live
DBSQL/DBTABLE regions binding them together.  This module serialises all
of it to a single JSON document so sessions survive process restarts —
table maintenance an open-source release needs even though the demo paper
never discusses storage format.

Format (version 2; version-1 files load transparently)::

    {
      "version": 2,
      "tables": [
        {"name": ..., "layout": "hybrid",
         "columns": [{"name","type","primary_key","not_null","default"}],
         "groups": [["a","b"], ["c"]],   # the LIVE physical grouping
         "auto_layout": false,           # advisor loop on/off (v2)
         "access_stats": {...},          # decayed workload window (v2)
         "migration_target": null,       # in-flight migration target (v2)
         "group_io": [{...}, ...],       # per-group I/O counters (v2)
         "encodings": [{"encoded","ratio","failed"}, ...],  # per group
         "indexes": [{"name","column","unique"}],  # defs; trees rebuilt
         "rows": [[...], ...]}          # presentation order
      ],
      "sheets": [
        {"name": ..., "cells": [{"row","col","value"|"formula"}, ...]}
      ],
      "regions": [
        {"kind": "dbsql"|"dbtable", "sheet", "anchor", ...}
      ]
    }

Values are JSON-native plus ISO dates (tagged).  Regions are re-created on
load and re-render from the restored tables, so the loaded workbook is
immediately live (edits sync, formulas recalculate).

A dump reads each table chain by chain, once, and emits the rows in
presentation order.  A load replays no rows: each table is one bulk
``Table.load`` of its stored rows — packed pages, the flagged groups
encoded as they are built, a one-span position map and bottom-up key
indexes — never ``Table.insert``, so a stored NULL stays NULL where an
INSERT would have put the column DEFAULT.

Version 2 makes the *tuned physical layout* durable: ``groups`` always
carried the live grouping, but a v1 load silently dropped the advisor
flag, the observed workload window, and any half-done online migration —
so a recovered server reverted to an untuned, advisor-off layout.  A v2
load restores all three; a v1 file loads with v2 defaults (advisor off,
cold stats, no migration).
"""

from __future__ import annotations

import datetime as _dt
import json
import operator
from typing import Any, Dict, Iterator, List

from repro.core.address import CellAddress
from repro.core.workbook import Workbook
from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.store import AccessStats, LayoutPolicy
from repro.engine.table import Table
from repro.engine.types import DBType
from repro.errors import ImportExportError

__all__ = ["save_workbook", "load_workbook", "workbook_to_dict", "workbook_from_dict"]

_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


def _encode_value(value: Any) -> Any:
    if isinstance(value, _dt.datetime):
        return {"$datetime": value.isoformat()}
    if isinstance(value, _dt.date):
        return {"$date": value.isoformat()}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "$date" in value:
            return _dt.date.fromisoformat(value["$date"])
        if "$datetime" in value:
            return _dt.datetime.fromisoformat(value["$datetime"])
    return value


def _dump_rows(table: Table) -> List[List[Any]]:
    """A table's rows in presentation order.  Each chain is decoded once,
    WITHOUT charging workload statistics: a dump is maintenance, not
    workload, and the serialized access_stats must match the live window."""
    with table.store.mutation_lock:
        rids, columns = table.store.read_columns()
        in_order = len(rids) == len(table.positions) and all(
            map(operator.eq, rids, table.positions)  # walked, not listed
        )
        order = None if in_order else list(table.positions)
    for index, column in enumerate(columns):
        if any(issubclass(kind, _dt.date) for kind in set(map(type, column))):
            columns[index] = [_encode_value(value) for value in column]
    rows = list(map(list, zip(*columns)))
    if order is not None:
        at = {rid: index for index, rid in enumerate(rids)}
        rows = [rows[at[rid]] for rid in order]
    return rows


def _consume(rows: List[Any]) -> Iterator[List[Any]]:
    """Yield a table's stored rows decoded, dropping the payload's
    reference to each as it goes, so the table is never held twice."""
    for index, row in enumerate(rows):
        rows[index] = None
        yield row if dict not in map(type, row) else [_decode_value(v) for v in row]


def workbook_to_dict(workbook: Workbook) -> Dict[str, Any]:
    """Serialise a workbook to a JSON-compatible dict."""
    tables: List[Dict[str, Any]] = []
    for table in workbook.database.catalog.tables():
        schema = table.schema
        tables.append(
            {
                "name": table.name,
                "layout": table.store.layout.value,
                "columns": [
                    {
                        "name": column.name,
                        "type": column.dtype.value,
                        "primary_key": column.primary_key,
                        "not_null": column.not_null,
                        "default": _encode_value(column.default),
                    }
                    for column in schema.columns
                ],
                "groups": schema.groups,
                # The tuned-layout state a recovered server needs: the
                # advisor flag, the decayed workload window it advises
                # from, and any half-done online migration's target.
                "auto_layout": table.auto_layout,
                "access_stats": table.store.access_stats.to_dict(),
                "migration_target": table.layout_migration_target,
                # Cumulative per-group block I/O (aligned with "groups"):
                # pager tags are process-local, so without this the
                # layout-stats surface resets to zero on every restart.
                "group_io": table.store.group_io_snapshot(),
                # Per-group page-encoding flags (aligned with "groups"):
                # rows are dumped decoded, and the restore builds the
                # flagged chains encoded instead of persisting payload bytes.
                "encodings": table.store.encoding_snapshot(),
                # Secondary indexes: definitions only — the trees are
                # rebuilt bottom-up from the restored rows on load
                # (immune to format drift).
                "indexes": [
                    {
                        "name": index.name,
                        "column": index.column,
                        "unique": index.unique,
                    }
                    for index in sorted(
                        table.indexes.values(), key=lambda index: index.name.lower()
                    )
                ],
                "rows": _dump_rows(table),
            }
        )

    region_ids = {
        getattr(region, "context").region_id for region in workbook.regions.all()
    }
    sheets: List[Dict[str, Any]] = []
    for sheet in workbook.sheets.values():
        cells = []
        for row, col, cell in sheet.store.items():
            if cell.region_id is not None:
                # Region body cells are re-rendered on load and region
                # anchors are restored from `regions`.
                continue
            record: Dict[str, Any] = {"row": row, "col": col}
            if cell.is_formula:
                # Logical A1 text, rendered from the bound tree.
                record["formula"] = workbook.formula_text(sheet.name, cell)
            else:
                record["value"] = _encode_value(cell.value)
            cells.append(record)
        sheets.append({"name": sheet.name, "cells": cells})

    regions: List[Dict[str, Any]] = []
    for region in workbook.regions.all():
        context = region.context
        record = {
            "kind": context.kind,
            "sheet": context.sheet,
            "anchor": context.anchor.to_a1(include_sheet=False),
        }
        if context.kind == "dbsql":
            record["sql"] = region.sql
            record["include_headers"] = region.include_headers
        else:
            record["table"] = region.table_name
            record["include_headers"] = region.include_headers
            record["window_rows"] = region.window_rows
            record["offset"] = region.offset
        regions.append(record)

    return {
        "version": _FORMAT_VERSION,
        "tables": tables,
        "sheets": sheets,
        "regions": regions,
    }


def workbook_from_dict(payload: Dict[str, Any], eager: bool = True) -> Workbook:
    """Rebuild a live workbook from :func:`workbook_to_dict` output.

    The payload is consumed: each table's row list is emptied, entry by
    entry, as the rows are loaded, so a restore never holds a table twice
    (callers must not reuse ``payload`` afterwards).

    ``eager=False`` hands recalc scheduling to the caller (the server's
    visible-first pipeline): loaded formulas are still computed once here
    so the workbook is consistent, but later edits only *schedule* work."""
    if payload.get("version") not in _SUPPORTED_VERSIONS:
        raise ImportExportError(
            f"unsupported workbook format version {payload.get('version')!r}"
        )
    database = Database()
    for spec in payload.get("tables", []):
        columns = [
            Column(
                c["name"],
                DBType.parse(c["type"]),
                primary_key=c.get("primary_key", False),
                not_null=c.get("not_null", False),
                default=_decode_value(c.get("default")),
            )
            for c in spec["columns"]
        ]
        schema = TableSchema(columns, spec.get("groups"))
        layout = LayoutPolicy(spec.get("layout", "hybrid"))
        table = database.create_table(spec["name"], schema, layout=layout)
        # One bulk load: packed pages (the flagged groups encoded as they
        # are built), a one-span position map and a bottom-up primary key.
        table.load(_consume(spec.get("rows", [])), spec.get("encodings") or ())
        for index_spec in spec.get("indexes", []) or []:
            # Rebuild each secondary index from the just-loaded rows;
            # runs BEFORE the stats/group_io overwrites below so the
            # build's own charges don't pollute the restored window.
            table.create_index(
                index_spec["name"],
                index_spec["column"],
                unique=bool(index_spec.get("unique", False)),
            )
        table.set_auto_layout(bool(spec.get("auto_layout", False)))
        stats_spec = spec.get("access_stats")
        if stats_spec is not None:
            # Overwrite AFTER the load above: load-time inserts must not
            # be double-counted on top of the persisted window.
            table.store.access_stats = AccessStats.from_dict(stats_spec)
        group_io = spec.get("group_io")
        if group_io:
            # Same overwrite-after-load contract: the restart's own page
            # writes (the encoded groups' bytes included) are replaced by
            # the pre-crash cumulative counters, so the stats surface
            # continues instead of restarting from the load's write burst.
            table.store.restore_group_io(group_io)
        migration_target = spec.get("migration_target")
        if migration_target:
            # Re-arm (don't run) the half-done migration; the owner's
            # maintenance loop resumes it via Table.layout_tick.
            table.migrate_layout(
                [list(group) for group in migration_target], online=True
            )

    sheet_specs = payload.get("sheets", [])
    first_sheet = sheet_specs[0]["name"] if sheet_specs else "Sheet1"
    workbook = Workbook(database=database, default_sheet=first_sheet, eager=eager)
    for spec in sheet_specs[1:]:
        workbook.add_sheet(spec["name"])

    # Plain values first, then formulas (so precedents exist), then regions.
    deferred_formulas = []
    for spec in sheet_specs:
        for record in spec.get("cells", []):
            if "formula" in record:
                deferred_formulas.append((spec["name"], record))
            else:
                workbook.sheet(spec["name"]).set_value(
                    CellAddress(record["row"], record["col"]),
                    _decode_value(record.get("value")),
                )
    for sheet_name, record in deferred_formulas:
        workbook.set(
            sheet_name,
            CellAddress(record["row"], record["col"]),
            "=" + record["formula"],
        )
    # Every region is registered before any of them spills, so one whose
    # result would overlap another shows #SPILL! as it did live instead of
    # taking the other's cells first.
    compute = workbook.compute
    was_eager, compute.eager = compute.eager, False
    try:
        for record in payload.get("regions", []):
            anchor = CellAddress.parse(record["anchor"])
            if record["kind"] == "dbsql":
                workbook.dbsql(
                    record["sheet"],
                    anchor,
                    record["sql"],
                    include_headers=record.get("include_headers", False),
                )
            else:
                region = workbook.dbtable(
                    record["sheet"],
                    anchor,
                    record["table"],
                    include_headers=record.get("include_headers", True),
                    window_rows=record.get("window_rows"),
                )
                region.offset = record.get("offset", 0)
    finally:
        compute.eager = was_eager
    workbook.recalc_all()
    return workbook


def save_workbook(workbook: Workbook, path: str) -> None:
    """Write the workbook to a JSON file."""
    with open(path, "w") as handle:
        json.dump(workbook_to_dict(workbook), handle, indent=1)


def load_workbook(path: str, eager: bool = True) -> Workbook:
    """Load a workbook saved by :func:`save_workbook`."""
    with open(path) as handle:
        payload = json.load(handle)
    return workbook_from_dict(payload, eager=eager)
