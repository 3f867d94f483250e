"""Correctness oracles: SQLite for tables and queries, dict models for cells.

The oracles replay the *executed* prefix of a trace — the operations
whose ``apply`` returned — and are compared with the live workbook and
with the workbook recovered from the crash image.  Nothing here runs
inside a timed phase.

* SQL state: :class:`repro.baselines.sqlite_backend.SqliteComparator` is
  fed the same DDL, rows and DML; every table and one query per template
  must agree (floats within 1e-9, since the two engines may add in a
  different order).
* ``sheet_edit`` cells: :class:`SheetModel` tracks every row and column
  by identity, so structural edits are list splices and a formula keeps
  pointing at the cells it was installed on without any text rewriting —
  independent of the program's reference rewriter.  Formulas are
  evaluated once, at the end, with the shared evaluator.
* ``htap_sync`` cells: the regions must show what SQLite returns for
  their queries, and formulas over them are evaluated by
  :class:`repro.baselines.naive_spreadsheet.NaiveSpreadsheet`.

Every check returns ``None`` or a one-line description of the first
difference.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.naive_spreadsheet import NaiveSpreadsheet
from repro.baselines.sqlite_backend import SqliteComparator
from repro.core.address import CellAddress
from repro.core.cell import coerce_scalar
from repro.errors import FormulaEvalError
from repro.formula.evaluator import EvalContext, RangeValues, evaluate_formula
from repro.formula.nodes import CellRef, RangeRef, walk
from repro.formula.parser import parse_formula

from .workloads import SHEET, TraceOp, Workload

__all__ = ["Oracle", "SheetModel"]


def _same(ours: Any, theirs: Any) -> bool:
    if isinstance(ours, bool) or isinstance(theirs, bool):
        return ours == theirs
    if isinstance(ours, (int, float)) and isinstance(theirs, (int, float)):
        return math.isclose(ours, theirs, rel_tol=1e-9, abs_tol=1e-9)
    return ours == theirs


def _first_row_difference(
    ours: Sequence[Sequence[Any]], theirs: Sequence[Sequence[Any]], ordered: bool
) -> Optional[str]:
    if not ordered:
        ours = sorted(ours, key=repr)
        theirs = sorted(theirs, key=repr)
    for index, (mine, other) in enumerate(zip(ours, theirs)):
        if len(mine) != len(other) or not all(_same(a, b) for a, b in zip(mine, other)):
            return f"row {index}: program {tuple(mine)!r} != oracle {tuple(other)!r}"
    if len(ours) != len(theirs):
        return f"program returned {len(ours)} rows, oracle {len(theirs)}"
    return None


# ---------------------------------------------------------------------------
# sheet_edit: identity-tracking dict model
# ---------------------------------------------------------------------------


class _Formula:
    """A parsed formula plus the identities of the cells it reads, as
    captured when it was installed."""

    __slots__ = ("node", "cells", "ranges")

    def __init__(self, node: Any, cells: Dict, ranges: Dict):
        self.node = node
        self.cells = cells
        self.ranges = ranges


class SheetModel:
    """A sheet as ``{(row_id, col_id): input}`` plus two id lists giving
    the current order of rows and columns."""

    def __init__(self) -> None:
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.inputs: Dict[Tuple[int, int], Any] = {}
        self._next_id = 0

    def _ids(self, axis: List[int], upto: int) -> None:
        while len(axis) <= upto:
            axis.append(self._next_id)
            self._next_id += 1

    def _key(self, row: int, col: int) -> Tuple[int, int]:
        self._ids(self.rows, row)
        self._ids(self.cols, col)
        return self.rows[row], self.cols[col]

    def set(self, ref: str, raw: Any) -> None:
        address = CellAddress.parse(ref)
        key = self._key(address.row, address.col)
        if isinstance(raw, str) and raw.startswith("="):
            node = parse_formula(raw[1:])
            cells, ranges = {}, {}
            for item in walk(node):
                if isinstance(item, CellRef):
                    at = item.address
                    cells[(at.row, at.col)] = self._key(at.row, at.col)
                elif isinstance(item, RangeRef):
                    start, end = item.range.start, item.range.end
                    ranges[(start.row, start.col, end.row, end.col)] = (
                        self._key(start.row, start.col) + self._key(end.row, end.col)
                    )
            self.inputs[key] = _Formula(node, cells, ranges)
        else:
            self.inputs[key] = coerce_scalar(raw)

    def splice(self, kind: str, at: int, count: int) -> None:
        axis = self.rows if kind.endswith("rows") else self.cols
        if at >= len(axis):
            return  # beyond every cell ever touched: nothing moves
        if kind.startswith("insert"):
            fresh = list(range(self._next_id, self._next_id + count))
            self._next_id += count
            axis[at:at] = fresh
        else:
            del axis[at : at + count]

    def final_values(self) -> Dict[Tuple[int, int], Any]:
        """``{(row, col): value}`` for every live, non-blank cell."""
        row_of = {row_id: index for index, row_id in enumerate(self.rows)}
        col_of = {col_id: index for index, col_id in enumerate(self.cols)}
        memo: Dict[Tuple[int, int], Any] = {}
        model = self

        def value_of(key: Tuple[int, int]) -> Any:
            entry = model.inputs.get(key)
            if not isinstance(entry, _Formula):
                return entry
            if key not in memo:
                memo[key] = None  # a cycle reads blank; the traces have none
                try:
                    value = evaluate_formula(entry.node, _Context(entry))
                    if isinstance(value, RangeValues):
                        value = "#VALUE!"
                except FormulaEvalError as error:
                    value = error.code
                memo[key] = value
            return memo[key]

        class _Context(EvalContext):
            def __init__(self, formula: _Formula):
                self.formula = formula

            def cell_value(self, address: CellAddress) -> Any:
                key = self.formula.cells[(address.row, address.col)]
                if key[0] not in row_of or key[1] not in col_of:
                    raise FormulaEvalError("referenced cell was deleted", "#REF!")
                return value_of(key)

            def range_values(self, reference: Any) -> RangeValues:
                start, end = reference.start, reference.end
                ids = self.formula.ranges[(start.row, start.col, end.row, end.col)]
                if ids[0] not in row_of or ids[2] not in row_of:
                    raise FormulaEvalError("range endpoint was deleted", "#REF!")
                if ids[1] not in col_of or ids[3] not in col_of:
                    raise FormulaEvalError("range endpoint was deleted", "#REF!")
                return RangeValues(
                    [
                        [
                            value_of((model.rows[row], model.cols[col]))
                            for col in range(col_of[ids[1]], col_of[ids[3]] + 1)
                        ]
                        for row in range(row_of[ids[0]], row_of[ids[2]] + 1)
                    ]
                )

        out: Dict[Tuple[int, int], Any] = {}
        for key in self.inputs:
            if key[0] in row_of and key[1] in col_of:
                value = value_of(key)
                if value is not None:
                    out[(row_of[key[0]], col_of[key[1]])] = value
        return out


# ---------------------------------------------------------------------------
# The oracle of one run
# ---------------------------------------------------------------------------


class Oracle:
    """Expected final state after ``executed`` (the acknowledged ops)."""

    def __init__(self, workload: Workload, executed: Iterable[TraceOp]):
        self.workload = workload
        setup = workload.setup
        self.sql: Optional[SqliteComparator] = None
        self.sheet: Optional[SheetModel] = None
        self.plain = NaiveSpreadsheet()  # htap: cells outside the regions
        if setup.ddl:
            self.sql = SqliteComparator()
            # Autocommit, so the trace's own BEGIN/COMMIT are the brackets.
            self.sql.connection.isolation_level = None
            for statement in setup.ddl:
                self.sql.connection.execute(statement)
            for table, rows in setup.rows.items():
                marks = ",".join("?" * len(setup.columns[table]))
                self.sql.connection.executemany(
                    f"INSERT INTO {table} VALUES ({marks})", rows
                )
        if setup.cells:
            self.sheet = SheetModel()
            for ref, raw in setup.cells:
                self.sheet.set(ref, raw)
        for op in setup.service_ops:
            self._replay(op)
        for trace_op in executed:
            for op in trace_op.ops:
                self._replay(op)

    def close(self) -> None:
        if self.sql is not None:
            self.sql.close()

    # -- replay ---------------------------------------------------------------

    def _replay(self, op: Dict[str, Any]) -> None:
        kind = op["type"]
        if kind == "sql":
            self._replay_sql(op["sql"])
        elif kind == "set_cell":
            self._replay_cell(op["ref"], op["raw"])
        elif kind in ("insert_rows", "delete_rows", "insert_cols", "delete_cols"):
            assert self.sheet is not None
            self.sheet.splice(kind, int(op["at"]), int(op.get("count", 1)))
        # dbtable / dbsql bind regions; their content is checked from SQL.

    def _replay_sql(self, text: str) -> None:
        head = text.lstrip()[:6].upper()
        if head == "SELECT" or head.startswith("ALTER"):
            return  # reads change nothing; SET LAYOUT is physical only
        assert self.sql is not None
        self.sql.connection.execute(text)

    def _replay_cell(self, ref: str, raw: Any) -> None:
        if self.sheet is not None:
            self.sheet.set(ref, raw)
            return
        address = CellAddress.parse(ref)
        region = self.workload.setup.dbtable
        if region is not None:
            top, left, table, window = region
            columns = self.workload.setup.columns[table]
            data_row = address.row - top - 1
            offset = address.col - left
            if 0 <= data_row < window and 0 <= offset < len(columns):
                # An edit of a DBTABLE cell is an UPDATE of the row shown
                # there.  Presentation order is insertion order with gaps
                # closed, which is SQLite's rowid order.
                assert self.sql is not None
                self.sql.connection.execute(
                    f"UPDATE {table} SET {columns[offset]} = ? WHERE rowid = "
                    f"(SELECT rowid FROM {table} ORDER BY rowid LIMIT 1 OFFSET ?)",
                    (coerce_scalar(raw), data_row),
                )
                return
        if isinstance(raw, str) and raw.startswith("="):
            self.plain.formulas[(address.row, address.col)] = parse_formula(raw[1:])
        else:
            self.plain.formulas.pop((address.row, address.col), None)
            self.plain.values[(address.row, address.col)] = coerce_scalar(raw)

    # -- checks ----------------------------------------------------------------

    def check(self, workbook: Any) -> Optional[str]:
        """First difference between ``workbook`` and the oracle, or None."""
        return self._check_sql(workbook) or self._check_cells(workbook)

    def _check_sql(self, workbook: Any) -> Optional[str]:
        if self.sql is None:
            return None
        database = workbook.database
        connection = self.sql.connection
        for table in self.workload.setup.rows:
            query = f"SELECT * FROM {table}"
            difference = _first_row_difference(
                database.execute(query).rows, connection.execute(query).fetchall(), False
            )
            if difference:
                return f"table {table}: {difference}"
        for label, query in self.workload.setup.check_queries.items():
            difference = _first_row_difference(
                database.execute(query).rows,
                connection.execute(query).fetchall(),
                "ORDER BY" in query.upper(),
            )
            if difference:
                return f"query {label} ({query}): {difference}"
        return None

    def _check_cells(self, workbook: Any) -> Optional[str]:
        if self.sheet is not None:
            expected = self.sheet.final_values()
            n_rows = len(self.sheet.rows)
            n_cols = len(self.sheet.cols)
        elif self.workload.setup.dbtable is not None:
            expected = self._region_cells()
            n_rows = 1 + max(row for row, _ in expected)
            n_cols = 1 + max(col for _, col in expected)
        else:
            return None
        for row in range(n_rows):
            for col in range(n_cols):
                ours = workbook.get(SHEET, CellAddress(row, col))
                theirs = expected.get((row, col))
                if not _same(ours, theirs):
                    return (
                        f"cell {CellAddress(row, col).to_a1()}: program {ours!r} "
                        f"!= oracle {theirs!r}"
                    )
        return None

    def _region_cells(self) -> Dict[Tuple[int, int], Any]:
        """What the htap_sync sheet must show: the DBTABLE window, the
        DBSQL spills, and every plain cell and formula over them."""
        setup = self.workload.setup
        assert self.sql is not None and setup.dbtable is not None
        connection = self.sql.connection
        top, left, table, window = setup.dbtable
        columns = setup.columns[table]
        model = self.plain
        for offset, name in enumerate(columns):
            model.values[(top, left + offset)] = name
        shown = connection.execute(
            f"SELECT * FROM {table} ORDER BY rowid LIMIT ?", (window,)
        ).fetchall()
        for data_row, row in enumerate(shown):
            for offset, value in enumerate(row):
                model.values[(top + 1 + data_row, left + offset)] = value
        for anchor, query in setup.region_checks.items():
            at = CellAddress.parse(anchor)
            for row_offset, row in enumerate(connection.execute(query).fetchall()):
                for col_offset, value in enumerate(row):
                    model.values[(at.row + row_offset, at.col + col_offset)] = value
        model.recalc_all()
        return {key: value for key, value in model.values.items() if value is not None}
