"""Seeded session traces for the end-to-end benchmark.

Everything the program under test sees is generated here, from ``--seed``
alone: the initial data of a workload (:class:`Setup`) and the session
operations the harness replays (:class:`TraceOp`).  This
module imports nothing from ``repro`` — a trace is plain dicts, tuples
and SQL text, so the same trace feeds the system, the SQLite oracle and
the dict-model oracle.

Traces are built from *blocks*: every block holds the same number of
operations of each class, shuffled by the seed, and a replay always
stops at a block boundary, so it has executed exactly the stated mix.
Every run replays the frozen :data:`COUNTED_OPS` of its workload — all
counts are taken over exactly those — and an untraced run then goes on,
block by block, until its time is up; the trace is extended a block at
a time from the same seeded stream (:meth:`Workload.extend_to`).  The
generators keep a small model of what the trace has done so far (live
keys, sheet height, where the aggregate ranges sit) so that no generated
operation can fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "COUNTED_OPS", "DEFAULT_SEED", "WORKLOADS", "Setup", "TraceOp", "Workload", "build",
]

DEFAULT_SEED = 1105

#: the frozen operation count of each workload: what every run replays at
#: least, and exactly what every count metric covers (so counts repeat
#: from run to run).  They are the smallest counts the percentiles allow
#: (1 000 samples, 400 where an operation costs tens of milliseconds).
COUNTED_OPS = {"sheet_edit": 1000, "oltp_sql": 1000, "analytic_scan": 400, "htap_sync": 400}

SHEET = "Sheet1"


def column_label(index: int) -> str:
    """0-based column index -> spreadsheet letters (0 -> A, 26 -> AA)."""
    label = ""
    index += 1
    while index > 0:
        index, remainder = divmod(index - 1, 26)
        label = chr(ord("A") + remainder) + label
    return label


def ref(row: int, col: int) -> str:
    """0-based (row, col) -> A1 text."""
    return f"{column_label(col)}{row + 1}"


def _payload_bytes(op: Dict[str, Any]) -> int:
    """User bytes of one service operation: the text a client would type."""
    if op["type"] == "sql":
        return len(op["sql"])
    if op["type"] == "set_cell":
        return len(op["ref"]) + len(str(op["raw"]))
    return len(op["type"]) + 8


@dataclass
class TraceOp:
    """One user-visible operation of a session trace.

    ``kind`` says how the harness issues it: ``apply`` (one
    ``WorkbookService.apply``), ``txn`` (a ``BEGIN``/statements/``COMMIT``
    bracket, one latency sample for the whole bracket), ``scroll`` (move a
    viewer's viewport, then poll) or ``poll``.  ``cls`` is the operation
    class the per-class medians are reported under."""

    cls: str
    kind: str
    session: int
    ops: Tuple[Dict[str, Any], ...] = ()
    scroll: Optional[Tuple[int, int]] = None

    @property
    def payload_bytes(self) -> int:
        """User bytes submitted: the text a client would have typed."""
        return sum(_payload_bytes(op) for op in self.ops)


@dataclass
class Setup:
    """Initial state of a workload, as data."""

    #: CREATE TABLE / CREATE INDEX statements, in order.
    ddl: List[str] = field(default_factory=list)
    #: table name -> row tuples loaded before the service opens.
    rows: Dict[str, List[Tuple[Any, ...]]] = field(default_factory=dict)
    #: (ref, raw) cell inputs written before the service opens.
    cells: List[Tuple[str, Any]] = field(default_factory=list)
    #: ops applied through the service once it is open (regions, layout).
    service_ops: List[Dict[str, Any]] = field(default_factory=list)
    #: (name, top, left, n_rows, n_cols) per session; session 0 is the writer.
    sessions: List[Tuple[str, int, int, int, int]] = field(default_factory=list)
    #: table whose page count bounds the buffer pool (to a quarter of it).
    bounded_table: Optional[str] = None
    #: tables to dictionary/RLE-encode once loaded.
    encode_tables: List[str] = field(default_factory=list)
    #: table name -> column names, for the oracle.
    columns: Dict[str, List[str]] = field(default_factory=dict)
    #: label -> one representative query per template (checked vs SQLite).
    check_queries: Dict[str, str] = field(default_factory=dict)
    #: DBSQL regions of htap_sync: anchor -> the query the region shows.
    region_checks: Dict[str, str] = field(default_factory=dict)
    #: DBTABLE region: (anchor_row, anchor_col, table, window_rows).
    dbtable: Optional[Tuple[int, int, str, int]] = None

    @property
    def payload_bytes(self) -> int:
        """User bytes of the initial state, as text: the DDL, every row as
        a comma-separated line, every cell as its reference and input."""
        total = sum(len(statement) for statement in self.ddl)
        for rows in self.rows.values():
            total += sum(len(row) + sum(len(str(value)) for value in row) for row in rows)
        total += sum(len(ref) + len(str(raw)) for ref, raw in self.cells)
        return total + sum(_payload_bytes(op) for op in self.service_ops)


class Workload:
    """Initial data plus a trace that grows by whole blocks, each holding
    exactly ``mix[cls]`` operations of each class in a seeded order."""

    def __init__(
        self,
        name: str,
        setup: Setup,
        rng: random.Random,
        mix: Dict[str, int],
        make: Callable[[str], TraceOp],
    ):
        self.name = name
        self.setup = setup
        self.ops: List[TraceOp] = []
        self._rng = rng
        self._classes = [cls for cls, count in mix.items() for _ in range(count)]
        self._make = make
        self.block_size = len(self._classes)
        #: operations every run replays and every count covers.
        self.counted_ops = COUNTED_OPS[name]

    def extend_to(self, n_ops: int) -> None:
        """Generate whole blocks until the trace holds ``n_ops`` operations."""
        while len(self.ops) < n_ops:
            order = list(self._classes)
            self._rng.shuffle(order)
            self.ops.extend(self._make(cls) for cls in order)


def _apply(cls: str, op: Dict[str, Any], session: int = 0) -> TraceOp:
    return TraceOp(cls, "apply", session, (op,))


def _sql(cls: str, text: str) -> TraceOp:
    return _apply(cls, {"type": "sql", "sql": text})


def _set(cls: str, row: int, col: int, raw: Any) -> TraceOp:
    return _apply(cls, {"type": "set_cell", "sheet": SHEET, "ref": ref(row, col), "raw": raw})


# ---------------------------------------------------------------------------
# sheet_edit
# ---------------------------------------------------------------------------

#: operations of each class in a block of 100: 88 % value edits, 5 %
#: formula installs, 5 % structural edits, 2 % scroll + poll.  The kinds
#: of structural edit are fixed per block because one costs several
#: hundred cell edits: a block with one more would be a different load.
SHEET_MIX = {
    "set_cell": 88, "formula_set": 5, "insert_rows": 2, "delete_rows": 2,
    "insert_cols": 1, "scroll": 2,
}
_ROW_EDITS = SHEET_MIX["insert_rows"] + SHEET_MIX["delete_rows"]

_VALUE_COLS = 5  # A..E hold values, F a per-row formula, G free, H aggregates
_AGG_SPAN = 200


def _sheet_edit(rng: random.Random, scale: float) -> Workload:
    n_rows = max(120, int(2000 * scale))
    span = min(_AGG_SPAN, n_rows // 3)
    setup = Setup()
    for row in range(n_rows):
        setup.cells.append((ref(row, 0), rng.randrange(1000)))
        setup.cells.append((ref(row, 1), rng.randrange(100)))
        setup.cells.append((ref(row, 2), round(rng.random() * 100, 2)))
        setup.cells.append((ref(row, 3), rng.randrange(100)))
        setup.cells.append((ref(row, 4), f"t{rng.randrange(50)}"))
        setup.cells.append((ref(row, 5), f"=A{row + 1}+B{row + 1}*2"))
    # Column-range aggregates, their cells inside the two overlapping
    # viewports.  The first covers the viewport rows themselves, so most
    # edits dirty a visible aggregate; the others sit mid-sheet where the
    # structural edits land.  [start, end] are 0-based rows, tracked below.
    starts = [0] + [
        n_rows // 4 + k * max(1, (n_rows // 2 - span) // 4) for k in range(5)
    ]
    aggregates: List[List[int]] = []
    functions = ["SUM", "AVERAGE", "MAX", "SUM", "COUNT", "MIN"]
    source_cols = [0, 5, 2, 3, 1, 0]
    for k, start in enumerate(starts):
        end = start + span - 1
        aggregates.append([start, end])
        letter = column_label(source_cols[k])
        setup.cells.append(
            (ref(1 + k, 7), f"={functions[k]}({letter}{start + 1}:{letter}{end + 1})")
        )
    setup.sessions = [
        ("editor", 0, 0, 40, 12),
        ("overlap", 20, 0, 40, 12),
        ("away", max(0, n_rows - 100), 0, 40, 12),
    ]
    # Where the seven original columns currently are (insert_cols moves them).
    col_of = list(range(8))
    state: Dict[str, Any] = {"rows": n_rows, "strata": []}
    lo, hi = (2 * n_rows) // 5, (3 * n_rows) // 5  # "mid-sheet": the middle fifth

    def edit_row() -> int:
        if rng.random() < 0.6:
            return rng.randrange(60)
        return rng.randrange(state["rows"])

    def value_for(col_role: int) -> Any:
        if col_role == 2:
            return round(rng.random() * 100, 2)
        if col_role == 4:
            return f"t{rng.randrange(50)}"
        return rng.randrange(1000)

    def row_position() -> int:
        """Where the next row edit lands.  A row edit costs in proportion
        to the formulas below it, so the row edits of a block are spread
        evenly over the middle fifth of the sheet, in a seeded order."""
        if not state["strata"]:
            state["strata"] = list(range(_ROW_EDITS))
            rng.shuffle(state["strata"])
        stratum = state["strata"].pop()
        width = (hi - lo) / _ROW_EDITS
        return lo + int((stratum + rng.random()) * width)

    def insert_cols() -> TraceOp:
        at = 1  # in front of B: every per-row formula reads a shifted cell
        for role, position in enumerate(col_of):
            if position >= at:
                col_of[role] = position + 1
        return _apply(
            "structural", {"type": "insert_cols", "sheet": SHEET, "at": at, "count": 1}
        )

    def insert_rows() -> TraceOp:
        at = row_position()
        count = rng.choice((1, 1, 2))
        for bounds in aggregates:
            if bounds[0] >= at:
                bounds[0] += count
            if bounds[1] >= at:
                bounds[1] += count
        state["rows"] += count
        return _apply(
            "structural", {"type": "insert_rows", "sheet": SHEET, "at": at, "count": count}
        )

    def delete_rows() -> TraceOp:
        # Never an endpoint of an aggregate range: a deleted endpoint turns
        # the formula into #REF!, which is legal but would make the trace
        # depend on error rendering.
        at = row_position()
        while any(at in bounds for bounds in aggregates):
            at += 1
        for bounds in aggregates:
            if bounds[0] > at:
                bounds[0] -= 1
            if bounds[1] > at:
                bounds[1] -= 1
        state["rows"] -= 1
        return _apply(
            "structural", {"type": "delete_rows", "sheet": SHEET, "at": at, "count": 1}
        )

    def formula_set() -> TraceOp:
        row = edit_row()
        a, b, d = (column_label(col_of[i]) for i in (0, 1, 3))
        n = row + 1
        roll = rng.random()
        if roll < 0.4:  # overwrite the per-row formula with a variant
            return _set("formula_set", row, col_of[5], f"={a}{n}*2+{b}{n}")
        if roll < 0.8:  # install a new formula in the free column
            return _set("formula_set", row, col_of[6], f"=IF({d}{n}>50,{a}{n},{b}{n})")
        return _set("formula_set", row, col_of[6], f"={a}{n}-{d}{n}")

    def make(cls: str) -> TraceOp:
        if cls == "set_cell":
            role = rng.randrange(_VALUE_COLS)
            return _set("set_cell", edit_row(), col_of[role], value_for(role))
        if cls == "formula_set":
            return formula_set()
        if cls in ("insert_rows", "delete_rows", "insert_cols"):
            return {"insert_rows": insert_rows, "delete_rows": delete_rows,
                    "insert_cols": insert_cols}[cls]()
        viewer = rng.choice((1, 2))
        top = rng.randrange(40) if viewer == 1 else rng.randrange(state["rows"])
        return TraceOp("scroll", "scroll", viewer, scroll=(top, 0))

    return Workload("sheet_edit", setup, rng, SHEET_MIX, make)


# ---------------------------------------------------------------------------
# oltp_sql
# ---------------------------------------------------------------------------

OLTP_MIX = {"insert": 30, "update": 30, "delete": 10, "select": 15, "range_update": 5, "txn": 10}
_ROWS_PER_DAY = 50


class _LiveKeys:
    """Keys the trace knows to be present; O(1) random pick and removal."""

    def __init__(self, keys: List[int]):
        self.keys = list(keys)
        self.next_key = (max(keys) + 1) if keys else 0

    def pick(self, rng: random.Random) -> int:
        return self.keys[rng.randrange(len(self.keys))]

    def pop(self, rng: random.Random) -> int:
        index = rng.randrange(len(self.keys))
        self.keys[index], self.keys[-1] = self.keys[-1], self.keys[index]
        return self.keys.pop()

    def add(self) -> int:
        key = self.next_key
        self.next_key += 1
        self.keys.append(key)
        return key


def _oltp_sql(rng: random.Random, scale: float) -> Workload:
    n_rows = max(400, int(20000 * scale))
    setup = Setup()
    setup.ddl = [
        "CREATE TABLE orders (id INT PRIMARY KEY, cust INT, amount REAL, "
        "status TEXT, day INT, qty INT)",
        "CREATE UNIQUE INDEX orders_id ON orders (id)",
    ]
    setup.columns["orders"] = ["id", "cust", "amount", "status", "day", "qty"]
    setup.rows["orders"] = [
        (
            i,
            rng.randrange(1000),
            round(rng.random() * 500, 2),
            "new",
            i // _ROWS_PER_DAY,
            rng.randrange(1, 20),
        )
        for i in range(n_rows)
    ]
    setup.sessions = [("client", 0, 0, 40, 12)]
    live = _LiveKeys(list(range(n_rows)))

    def update_text() -> str:
        key = live.pick(rng)
        if rng.random() < 0.5:
            return f"UPDATE orders SET amount = {round(rng.random() * 500, 2)} WHERE id = {key}"
        return f"UPDATE orders SET qty = qty + 1, status = 'paid' WHERE id = {key}"

    def make(cls: str) -> TraceOp:
        if cls == "insert":
            key = live.add()
            return _sql(
                "dml",
                f"INSERT INTO orders VALUES ({key}, {rng.randrange(1000)}, "
                f"{round(rng.random() * 500, 2)}, 'new', {key // _ROWS_PER_DAY}, "
                f"{rng.randrange(1, 20)})",
            )
        if cls == "update":
            return _sql("dml", update_text())
        if cls == "delete":
            return _sql("dml", f"DELETE FROM orders WHERE id = {live.pop(rng)}")
        if cls == "select":
            return _sql("select", f"SELECT * FROM orders WHERE id = {live.pick(rng)}")
        if cls == "range_update":
            day = rng.randrange(live.next_key // _ROWS_PER_DAY)
            return _sql(
                "dml", f"UPDATE orders SET status = 's{rng.randrange(9)}' WHERE day = {day}"
            )
        statements = ["BEGIN"] + [update_text() for _ in range(3)] + ["COMMIT"]
        return TraceOp(
            "txn", "txn", 0, tuple({"type": "sql", "sql": text} for text in statements)
        )

    setup.check_queries = {
        "point": f"SELECT * FROM orders WHERE id = {n_rows // 2}",
        "by_status": "SELECT status, COUNT(*), SUM(qty) FROM orders GROUP BY status",
    }
    return Workload("oltp_sql", setup, rng, OLTP_MIX, make)


# ---------------------------------------------------------------------------
# analytic_scan
# ---------------------------------------------------------------------------

#: per block of 20 (the issue names the templates, not their weights).
#: Sorted by cost the templates are point < range < proj < group < join <
#: topk, so the median lies inside ``proj`` and the 95th percentile inside
#: ``topk``.  On the boundary between two classes a percentile would be
#: the slowest sample of one or the fastest of the next, and no
#: optimisation of either would move it.
ANALYTIC_MIX = {"point": 4, "range": 4, "proj": 4, "group": 3, "join": 3, "topk": 2}


def _analytic_scan(rng: random.Random, scale: float) -> Workload:
    n_rows = max(600, int(10000 * scale))
    n_dim = max(20, int(500 * scale))
    n_days = max(1, n_rows // _ROWS_PER_DAY)
    setup = Setup()
    setup.ddl = [
        "CREATE TABLE fact (id INT PRIMARY KEY, k1 INT, k2 INT, cat TEXT, "
        "region TEXT, qty INT, price REAL, disc REAL, day INT, flag INT, "
        "dim_id INT, note TEXT)",
        "CREATE TABLE dim (dim_id INT PRIMARY KEY, name TEXT, grp TEXT)",
        "CREATE UNIQUE INDEX fact_id ON fact (id)",
    ]
    setup.columns["fact"] = [
        "id", "k1", "k2", "cat", "region", "qty", "price", "disc", "day",
        "flag", "dim_id", "note",
    ]
    setup.columns["dim"] = ["dim_id", "name", "grp"]
    setup.rows["fact"] = [
        (
            i,
            rng.randrange(1000),
            i // 10,
            f"c{rng.randrange(8)}",
            f"r{i % 5}",
            rng.randrange(100),
            round(rng.random() * 100, 2),
            0.05 * (i % 4),
            i // _ROWS_PER_DAY,
            i % 2,
            rng.randrange(n_dim),
            f"n{i % 97}",
        )
        for i in range(n_rows)
    ]
    setup.rows["dim"] = [(i, f"name{i}", f"g{i % 10}") for i in range(n_dim)]
    setup.sessions = [("analyst", 0, 0, 40, 12)]
    setup.bounded_table = "fact"
    setup.encode_tables = ["fact"]
    width = max(1, n_days // 100)  # ~1 % of the days

    def text(cls: str) -> str:
        if cls == "point":
            return f"SELECT * FROM fact WHERE id = {rng.randrange(n_rows)}"
        if cls == "range":
            day = rng.randrange(max(1, n_days - width))
            return (
                f"SELECT id, qty, price FROM fact WHERE day >= {day} "
                f"AND day < {day + width}"
            )
        if cls == "proj":
            return f"SELECT SUM(qty), MAX(k1) FROM fact WHERE k1 < {rng.randrange(500, 1000)}"
        if cls == "group":
            return (
                "SELECT cat, COUNT(*), SUM(qty), AVG(price) FROM fact "
                f"WHERE flag = {rng.randrange(2)} GROUP BY cat ORDER BY cat"
            )
        if cls == "join":
            return (
                "SELECT d.grp, COUNT(*), SUM(f.qty) FROM fact f JOIN dim d "
                f"ON f.dim_id = d.dim_id WHERE f.region = 'r{rng.randrange(5)}' "
                "GROUP BY d.grp ORDER BY d.grp"
            )
        return (
            f"SELECT id, price FROM fact WHERE qty >= {rng.randrange(20)} "
            "ORDER BY price DESC, id LIMIT 10"
        )

    setup.check_queries = {cls: text(cls) for cls in ANALYTIC_MIX}
    return Workload(
        "analytic_scan", setup, rng, ANALYTIC_MIX, lambda cls: _sql("select", text(cls))
    )


# ---------------------------------------------------------------------------
# htap_sync
# ---------------------------------------------------------------------------

#: per block of 20: 35 % DML, 25 % region edits, 20 % plain edits,
#: 10 % analytical SELECTs, 5 % viewer scrolls, 5 % polls.
HTAP_MIX = {
    "update": 4, "insert": 2, "delete": 1, "region_edit": 5, "set_cell": 3,
    "formula_set": 1, "select": 2, "scroll": 1, "poll": 1,
}
_WINDOW_ROWS = 30
_BY_CAT = "SELECT cat, SUM(qty), AVG(price) FROM stock GROUP BY cat ORDER BY cat"
_LOW_STOCK = (
    "SELECT wh, COUNT(*), SUM(qty) FROM stock WHERE qty < 20 GROUP BY wh ORDER BY wh"
)


def _htap_sync(rng: random.Random, scale: float) -> Workload:
    n_rows = max(200, int(10000 * scale))
    setup = Setup()
    setup.ddl = [
        "CREATE TABLE stock (sku INT PRIMARY KEY, wh TEXT, qty INT, price REAL, cat TEXT)",
        "CREATE UNIQUE INDEX stock_sku ON stock (sku)",
    ]
    setup.columns["stock"] = ["sku", "wh", "qty", "price", "cat"]
    setup.rows["stock"] = [
        (i, f"w{i % 4}", rng.randrange(100), round(rng.random() * 100, 2), f"c{i % 6}")
        for i in range(n_rows)
    ]
    # Region layout: DBTABLE window A1:E31 (header + 30 rows), the two
    # DBSQL aggregates at H1 and H10, formulas over region cells in M,
    # plain cells in P..R.
    setup.service_ops = [
        {"type": "sql", "sql": "ALTER TABLE stock SET LAYOUT AUTO"},
        {"type": "dbtable", "sheet": SHEET, "anchor": "A1", "table": "stock",
         "window_rows": _WINDOW_ROWS},
        {"type": "dbsql", "sheet": SHEET, "anchor": "H1", "sql": _BY_CAT},
        {"type": "dbsql", "sheet": SHEET, "anchor": "H10", "sql": _LOW_STOCK},
        {"type": "set_cell", "sheet": SHEET, "ref": "M1", "raw": "=SUM(I1:I6)"},
        {"type": "set_cell", "sheet": SHEET, "ref": "M2", "raw": "=C2*D2"},
        {"type": "set_cell", "sheet": SHEET, "ref": "M3", "raw": "=I10+I11"},
        {"type": "set_cell", "sheet": SHEET, "ref": "M4", "raw": "=SUM(C2:C31)"},
    ]
    setup.sessions = [
        ("editor", 0, 0, 40, 20),
        ("regions", 0, 5, 40, 12),
        ("elsewhere", 400, 0, 40, 12),
    ]
    setup.dbtable = (0, 0, "stock", _WINDOW_ROWS)
    setup.region_checks = {"H1": _BY_CAT, "H10": _LOW_STOCK}
    # Presentation order of the table, to know which sku a region cell
    # shows: inserts append, deletes close the gap.
    order = list(range(n_rows))
    state = {"next": n_rows}

    def region_edit() -> TraceOp:
        data_row = rng.randrange(_WINDOW_ROWS)
        if rng.random() < 0.7:
            return _set("region_edit", 1 + data_row, 2, rng.randrange(100))
        return _set("region_edit", 1 + data_row, 3, round(rng.random() * 100, 2))

    def delete() -> TraceOp:
        # Mostly below the window; now and then a row shown in it, which
        # shifts every displayed row below it up by one.
        if rng.random() < 0.2:
            index = rng.randrange(_WINDOW_ROWS)
        else:
            index = rng.randrange(_WINDOW_ROWS, len(order))
        return _sql("dml", f"DELETE FROM stock WHERE sku = {order.pop(index)}")

    def make(cls: str) -> TraceOp:
        if cls == "update":
            key = order[rng.randrange(len(order))]
            if rng.random() < 0.7:
                return _sql("dml", f"UPDATE stock SET qty = {rng.randrange(100)} WHERE sku = {key}")
            return _sql(
                "dml",
                f"UPDATE stock SET price = {round(rng.random() * 100, 2)}, "
                f"qty = qty + 1 WHERE sku = {key}",
            )
        if cls == "insert":
            key = state["next"]
            state["next"] += 1
            order.append(key)
            return _sql(
                "dml",
                f"INSERT INTO stock VALUES ({key}, 'w{key % 4}', {rng.randrange(100)}, "
                f"{round(rng.random() * 100, 2)}, 'c{key % 6}')",
            )
        if cls == "delete":
            return delete()
        if cls == "region_edit":
            return region_edit()
        if cls == "set_cell":
            return _set("set_cell", rng.randrange(40), 15 + rng.randrange(3), rng.randrange(1000))
        if cls == "formula_set":
            row = rng.randrange(40)
            source = rng.choice(("=P{n}+Q{n}", "=C{m}*2", "=I1+P{n}"))
            return _set(
                "formula_set", row, 18, source.format(n=row + 1, m=2 + row % _WINDOW_ROWS)
            )
        if cls == "select":
            if rng.random() < 0.5:
                return _sql(
                    "select",
                    f"SELECT cat, SUM(qty * price) FROM stock WHERE qty > {rng.randrange(50)} "
                    "GROUP BY cat ORDER BY cat",
                )
            return _sql(
                "select", "SELECT wh, MAX(price), MIN(qty) FROM stock GROUP BY wh ORDER BY wh"
            )
        if cls == "scroll":
            viewer = rng.choice((1, 2))
            top = rng.randrange(20) if viewer == 1 else rng.randrange(1000)
            return TraceOp("scroll", "scroll", viewer, scroll=(top, 5 if viewer == 1 else 0))
        return TraceOp("poll", "poll", rng.choice((1, 2)))

    setup.check_queries = {
        "by_cat": _BY_CAT,
        "low_stock": _LOW_STOCK,
        "value": "SELECT cat, SUM(qty * price) FROM stock WHERE qty > 10 GROUP BY cat ORDER BY cat",
    }
    return Workload("htap_sync", setup, rng, HTAP_MIX, make)


#: name -> why the workload exists (also the ``why`` in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "sheet_edit": (
        "spreadsheet edits only: loads WAL, service, workbook, formula, "
        "compute, posmap and broadcast; the SQL engine must show no change"
    ),
    "oltp_sql": (
        "short SQL DML and point reads: loads WAL, SQL parser, planner, "
        "table/index maintenance and transactions; scans do little"
    ),
    "analytic_scan": (
        "read-only SQL larger than the buffer pool: loads planner, executor, "
        "store decode and pager; WAL, recalc and broadcast must show no change"
    ),
    "htap_sync": (
        "DML and region edits under bound DBTABLE/DBSQL regions: loads sync "
        "refresh, recalc, broadcast and maintenance; scans run inside writes"
    ),
}

_BUILDERS = {
    "sheet_edit": _sheet_edit,
    "oltp_sql": _oltp_sql,
    "analytic_scan": _analytic_scan,
    "htap_sync": _htap_sync,
}


def build(name: str, seed: int = DEFAULT_SEED, scale: float = 1.0) -> Workload:
    """The workload ``name`` for ``seed``: its initial data (``scale``
    shrinks it, for the self-test) and an empty trace to extend."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(_BUILDERS)}")
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, scale)
