"""Dynamic schema (§2.2) and the hybrid attribute-group store (§3).

The paper's storage claim: with data partitioned into attribute groups,
"a table's schema change [costs] an efficiency similar to tuple updates" —
and schema changes participate in transactions, which stock databases
refuse.

This example measures blocks written (the simulated-disk counters) for
ADD COLUMN under the three layouts, then shows a mixed DML+DDL transaction
rolling back cleanly.

Run:  python examples/schema_evolution.py
"""

from repro import Database, LayoutPolicy


def blocks_for_add_column(layout: LayoutPolicy, n_rows: int = 5000) -> tuple:
    db = Database(default_layout=layout)
    db.execute("CREATE TABLE wide (a INT, b TEXT, c REAL, d TEXT)")
    table = db.table("wide")
    for i in range(n_rows):
        table.insert((i, f"t{i}", i * 0.5, f"u{i}"), emit=False)
    db.checkpoint()
    before = db.io_stats.snapshot()
    rewritten = table.add_column(
        __import__("repro.engine.schema", fromlist=["Column"]).Column("e", default=0)
    )
    db.checkpoint()
    delta = db.io_stats.delta(before)
    return rewritten, delta.writes


def tuple_update_cost(layout: LayoutPolicy, n_rows: int = 5000) -> int:
    db = Database(default_layout=layout)
    db.execute("CREATE TABLE wide (a INT, b TEXT, c REAL, d TEXT)")
    table = db.table("wide")
    for i in range(n_rows):
        table.insert((i, f"t{i}", i * 0.5, f"u{i}"), emit=False)
    db.checkpoint()
    before = db.io_stats.snapshot()
    table.update_rid(table.rid_at(n_rows // 2), {"b": "patched"})
    db.checkpoint()
    return db.io_stats.delta(before).writes


def main() -> None:
    print("=== ADD COLUMN cost by physical layout (5000 rows) ===")
    print(f"{'layout':<8} {'pages rewritten':>16} {'blocks written':>15}")
    for layout in (LayoutPolicy.ROW, LayoutPolicy.COLUMN, LayoutPolicy.HYBRID):
        rewritten, writes = blocks_for_add_column(layout)
        print(f"{layout.value:<8} {rewritten:>16} {writes:>15}")

    print("\n=== single-column tuple update (blocks written) ===")
    for layout in (LayoutPolicy.ROW, LayoutPolicy.COLUMN, LayoutPolicy.HYBRID):
        print(f"{layout.value:<8} {tuple_update_cost(layout):>5}")
    print("-> in the hybrid layout, ADD COLUMN costs no more than a tuple "
          "update: the paper's §2.2 goal.")

    print("\n=== schema changes inside transactions (§2.2 challenge) ===")
    db = Database()
    db.execute("CREATE TABLE ledger (id INT PRIMARY KEY, amount REAL)")
    db.execute("INSERT INTO ledger VALUES (1, 10.0), (2, 20.0)")
    db.execute("BEGIN")
    db.execute("ALTER TABLE ledger ADD COLUMN currency TEXT DEFAULT 'USD'")
    db.execute("UPDATE ledger SET currency = 'EUR' WHERE id = 2")
    db.execute("INSERT INTO ledger VALUES (3, 30.0, 'GBP')")
    print("inside txn :", db.execute("SELECT * FROM ledger").rows)
    db.execute("ROLLBACK")
    print("after abort:", db.execute("SELECT * FROM ledger").rows)
    print("columns    :", db.table("ledger").column_names)

    print("\n=== off-line compaction after many cheap ADD COLUMNs ===")
    db = Database()
    db.execute("CREATE TABLE t (a INT)")
    table = db.table("t")
    for i in range(1000):
        table.insert((i,), emit=False)
    for name in "bcdef":
        db.execute(f"ALTER TABLE t ADD COLUMN {name} INT DEFAULT 0")
    print("groups after 5 cheap ADD COLUMNs:",
          [g for g in table.schema.groups])
    table.store.restructure([["a", "b", "c"], ["d", "e", "f"]])
    print("re-partitioned into 2 groups,", table.store.n_pages, "pages")
    print("rows intact:", db.execute("SELECT count(*) FROM t").scalar())


if __name__ == "__main__":
    main()
