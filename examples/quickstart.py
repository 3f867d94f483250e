"""Quickstart: the DataSpread workbook in five minutes.

Run:  python examples/quickstart.py
"""

from repro import Workbook


def main() -> None:
    wb = Workbook()

    # ------------------------------------------------------------------
    # 1. It's a spreadsheet: cells, formulas, relative references.
    # ------------------------------------------------------------------
    wb.set("Sheet1", "A1", 10)
    wb.set("Sheet1", "A2", 32)
    wb.set("Sheet1", "A3", "=SUM(A1:A2)")
    print("A3 = SUM(A1:A2) ->", wb.get("Sheet1", "A3"))

    # ------------------------------------------------------------------
    # 2. It's a database: run any SQL against the built-in engine.
    # ------------------------------------------------------------------
    wb.execute("CREATE TABLE cities (name TEXT PRIMARY KEY, pop INT)")
    wb.execute(
        "INSERT INTO cities VALUES ('Springfield', 30000), "
        "('Shelbyville', 25000), ('Capital City', 1200000)"
    )
    result = wb.execute("SELECT name FROM cities WHERE pop > 26000 ORDER BY pop")
    print("big cities:", [row[0] for row in result])

    # ------------------------------------------------------------------
    # 3. DBTABLE: a sheet region that *is* the table (two-way sync).
    # ------------------------------------------------------------------
    wb.dbtable("Sheet1", "C1", "cities")
    print("C1 header:", wb.get("Sheet1", "C1"), "| first row:", wb.get("Sheet1", "C2"))

    # Editing the sheet updates the database...
    wb.set("Sheet1", "D2", 31000)
    print(
        "after sheet edit, DB says:",
        wb.execute("SELECT pop FROM cities WHERE name='Springfield'").scalar(),
    )
    # ...and database writes update the sheet.
    wb.execute("INSERT INTO cities VALUES ('Ogdenville', 12000)")
    print("new row appeared at C5:", wb.get("Sheet1", "C5"))

    # ------------------------------------------------------------------
    # 4. DBSQL with RANGEVALUE: SQL parameterised by cells.
    # ------------------------------------------------------------------
    wb.set("Sheet1", "F1", 20000)  # the threshold lives in a cell
    wb.dbsql(
        "Sheet1", "F3",
        "SELECT name FROM cities WHERE pop >= RANGEVALUE(F1) ORDER BY name",
    )
    print("spill at F3:", [wb.get("Sheet1", f"F{row}") for row in (3, 4, 5)])
    wb.set("Sheet1", "F1", 1000000)  # edit the parameter -> query re-runs
    print("after threshold edit:", wb.get("Sheet1", "F3"))

    # ------------------------------------------------------------------
    # 5. RANGETABLE: treat any sheet range as a relation.
    # ------------------------------------------------------------------
    wb.sheet("Sheet1").set_grid("H1", [["name", "region"],
                                       ["Springfield", "north"],
                                       ["Capital City", "south"]])
    wb.dbsql(
        "Sheet1", "K1",
        "SELECT c.name, r.region FROM cities c "
        "JOIN RANGETABLE(H1:I3) r ON c.name = r.name ORDER BY c.name",
    )
    print("join with sheet data:", wb.get("Sheet1", "K1"), "/", wb.get("Sheet1", "L1"))

    # ------------------------------------------------------------------
    # 6. Export a range to a brand-new table (Fig 2b).
    # ------------------------------------------------------------------
    table = wb.create_table_from_range("Sheet1", "H1:I3", "regions", primary_key="name")
    print("created table:", table.name, table.column_names)
    print("query it:", wb.execute("SELECT count(*) FROM regions").scalar(), "rows")

    # ------------------------------------------------------------------
    # 7. Observability: metrics, a per-query trace, the event log.
    # ------------------------------------------------------------------
    snap = wb.database.metrics()
    print(
        "metrics:",
        snap["db_statements_total"], "statements,",
        f"p95 latency {snap['db_statement_seconds']['p95'] * 1e3:.2f}ms,",
        snap["pager_reads"], "page reads,",
        f"{snap['buffer_hit_ratio']:.0%} buffer hits",
    )
    # EXPLAIN TRACE runs the query and returns the span tree as rows.
    # The ProjectedScan span carries the scan's counters: batches
    # (column-fragment batches pulled from the store) and rows_per_batch
    # next to rows_scanned / cols_read.
    trace = wb.execute("EXPLAIN TRACE SELECT name FROM cities WHERE pop > 26000")
    print("query trace:")
    for (line,) in trace:
        print("   ", line)  # ... ProjectedScan(...) batches=1 ... rows_per_batch=3 ...
    for event in wb.database.events.tail(3):
        print("event:", event.render())


if __name__ == "__main__":
    main()
