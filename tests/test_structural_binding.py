"""The splice semantics of references, pinned against the text-level oracle.

A workbook formula is bound to the positional mapper's keys and nothing is
rewritten when rows or columns are inserted or deleted; the oracle
(``structural_oracle``) is the old rewriter — parse the A1 text, move each
reference by arithmetic, render again.  Every case below runs the edits on
a live workbook and on the oracle's dict model, rebuilds a fresh workbook
from the model, and requires every cell's value *and rendered formula text*
to be equal — eagerly and lazily — plus the expectations the table spells
out, so the rule each case pins is readable here.
"""

from __future__ import annotations

import random

import pytest

from repro import Workbook, WorkbookService
from repro.core.address import CellAddress
from repro.server.service import recover_state

from structural_oracle import shift_models

S1, S2 = "Sheet1", "Sheet2"
A_COLUMN = {f"A{row}": row for row in range(1, 13)}  # A1..A12 hold 1..12


def edit(sheet, kind, at, count=1):
    return (sheet, kind, at, count)


def state(workbook):
    """{(sheet, row, col): (value, formula text)} over occupied cells."""
    return {
        (name, row, col): (workbook.get(name, CellAddress(row, col)),
                           workbook.formula_text(name, cell))
        for name, sheet in workbook.sheets.items()
        for row, col, cell in sheet.store.items()
    }


def run(cells, edits, eager=True):
    """Apply ``cells`` then ``edits`` to a workbook and to the oracle's
    model; returns (workbook, fresh workbook built from the model)."""
    workbook = Workbook(eager=eager)
    workbook.add_sheet(S2)
    models = {S1: {}, S2: {}}
    for sheet, entries in cells.items():
        for ref, raw in entries.items():
            address = CellAddress.parse(ref)
            workbook.set(sheet, address, raw)
            models[sheet][address.anchor()] = raw
    for sheet, kind, at, count in edits:
        getattr(workbook, kind)(sheet, at, count)
        axis = "row" if kind.endswith("rows") else "col"
        models = shift_models(
            models, sheet, axis, at, count if kind.startswith("insert") else -count
        )
    oracle = Workbook(eager=eager)
    oracle.add_sheet(S2)
    for sheet, model in models.items():
        for (row, col), raw in model.items():
            oracle.set(sheet, CellAddress(row, col), raw)
    return workbook, oracle


# id, cells, edits, {(sheet, ref): expected formula text, or None for "no formula"}
CASES = [
    ("insert at a range's first row moves it",
     {S1: {**A_COLUMN, "C1": "=SUM(A3:A6)"}}, [edit(S1, "insert_rows", 2)],
     {(S1, "C1"): "SUM(A4:A7)"}),
    ("insert inside a range grows it",
     {S1: {**A_COLUMN, "C1": "=SUM(A3:A6)"}}, [edit(S1, "insert_rows", 3, 2)],
     {(S1, "C1"): "SUM(A3:A8)"}),
    ("insert one past a range's end leaves it",
     {S1: {**A_COLUMN, "C1": "=SUM(A3:A6)"}}, [edit(S1, "insert_rows", 6)],
     {(S1, "C1"): "SUM(A3:A6)"}),
    ("delete interior rows shrinks a range",
     {S1: {**A_COLUMN, "C1": "=SUM(A1:A10)"}}, [edit(S1, "delete_rows", 2, 3)],
     {(S1, "C1"): "SUM(A1:A7)"}),
    ("delete the last row clamps to the row before",
     {S1: {**A_COLUMN, "C1": "=SUM(A3:A6)"}}, [edit(S1, "delete_rows", 5)],
     {(S1, "C1"): "SUM(A3:A5)"}),
    ("delete the first row clamps to the row after",
     {S1: {**A_COLUMN, "C1": "=SUM(A3:A6)"}}, [edit(S1, "delete_rows", 2)],
     {(S1, "C1"): "SUM(A3:A5)"}),
    ("a range starting inside the deleted span clamps",
     {S1: {**A_COLUMN, "C12": "=SUM(A3:A10)"}}, [edit(S1, "delete_rows", 1, 4)],
     {(S1, "C8"): "SUM(A2:A6)"}),
    ("delete every row of a range kills the formula, readers recompute",
     {S1: {**A_COLUMN, "C1": "=SUM(A3:A4)", "D1": "=IFERROR(C1,-1)"}},
     [edit(S1, "delete_rows", 2, 2)],
     {(S1, "C1"): None, (S1, "D1"): "IFERROR(C1,-1)"}),
    ("a cell reference to a deleted row dies",
     {S1: {**A_COLUMN, "C1": "=A2+1", "C2": "=A5"}}, [edit(S1, "delete_rows", 1)],
     {(S1, "C1"): None}),
    ("a reference below deleted rows moves up",
     {S1: {**A_COLUMN, "C1": "=A5"}}, [edit(S1, "delete_rows", 1, 2)],
     {(S1, "C1"): "A3"}),
    ("a formula whose own row is deleted is gone, its reader dies",
     {S1: {**A_COLUMN, "C5": "=A1*2", "D1": "=C5+1"}}, [edit(S1, "delete_rows", 4)],
     {(S1, "C5"): None, (S1, "D1"): None}),
    ("absolute flags and sheet qualifiers survive rendering",
     {S1: {**A_COLUMN, "C1": "=$A$5+A$5+$A5+Sheet2!B2&Sheet2!$B$2"}, S2: {"B2": 7}},
     [edit(S1, "insert_rows", 2)],
     {(S1, "C1"): "$A$6+A$6+$A6+Sheet2!B2&Sheet2!$B$2"}),
    ("an edit on another sheet moves only references into it",
     {S1: {**A_COLUMN, "C1": "=Sheet2!A5+A5", "C2": "=SUM(A1:A9)"}, S2: {"A5": 7, "B1": "=A5"}},
     [edit(S2, "insert_rows", 0)],
     {(S1, "C1"): "Sheet2!A6+A5", (S1, "C2"): "SUM(A1:A9)", (S2, "B2"): "A6"}),
    ("a formula on another sheet follows the edited sheet's cells",
     {S1: A_COLUMN, S2: {"A5": 7, "B1": "=Sheet1!A5+A5", "B2": "=SUM(Sheet1!A2:A4)"}},
     [edit(S1, "insert_rows", 0), edit(S1, "delete_rows", 3)],
     {(S2, "B1"): "Sheet1!A5+A5", (S2, "B2"): "SUM(Sheet1!A3:A4)"}),
    ("a reference far outside the used range",
     {S1: {**A_COLUMN, "C1": "=A100000+ZZ7"}},
     [edit(S1, "insert_rows", 5), edit(S1, "insert_cols", 30, 2)],
     {(S1, "C1"): "A100001+AAB8"}),
    ("column edits: references and both axes of a range",
     {S1: {**A_COLUMN, "E1": "=C1+A1", "E2": "=SUM(A1:C3)"}},
     [edit(S1, "insert_cols", 1)],
     {(S1, "F1"): "D1+A1", (S1, "F2"): "SUM(A1:D3)"}),
    ("two inserts at the same position",
     {S1: {**A_COLUMN, "C1": "=SUM(A3:A6)", "C2": "=A4"}},
     [edit(S1, "insert_rows", 3), edit(S1, "insert_rows", 3)],
     {(S1, "C1"): "SUM(A3:A8)", (S1, "C2"): "A6"}),
    ("two deletes at the same position",
     {S1: {**A_COLUMN, "C1": "=SUM(A3:A8)", "C2": "=A7"}},
     [edit(S1, "delete_rows", 3), edit(S1, "delete_rows", 3)],
     {(S1, "C1"): "SUM(A3:A6)", (S1, "C2"): "A5"}),
    ("an insert then a delete at the same position",
     {S1: {**A_COLUMN, "C1": "=SUM(A3:A6)", "C2": "=A4"}},
     [edit(S1, "insert_rows", 3), edit(S1, "delete_rows", 3)],
     {(S1, "C1"): "SUM(A3:A6)", (S1, "C2"): "A4"}),
]


@pytest.mark.parametrize("eager", [True, False], ids=["eager", "lazy"])
@pytest.mark.parametrize("name,cells,edits,expected", CASES, ids=[case[0] for case in CASES])
def test_splice_semantics(name, cells, edits, expected, eager):
    workbook, oracle = run(cells, edits, eager=eager)
    assert state(workbook) == state(oracle)
    for (sheet, ref), text in expected.items():
        assert workbook.formula_text(sheet, ref) == text
        cell = workbook.sheet(sheet).cell(ref)
        if text is None:
            assert cell is None or cell.formula is None


def test_formula_installed_after_splices_binds_to_the_spliced_keys():
    """Once a sheet is spliced its keys are no longer positions — fresh
    keys lie beyond the A1 bounds and out of position order."""
    edits = [edit(S1, "insert_rows", 2, 3), edit(S1, "delete_rows", 8)]
    workbook, oracle = run({S1: A_COLUMN}, edits)
    for target in (workbook, oracle):
        target.set(S1, "D1", "=SUM(A2:A9)*A4")  # A4 is an inserted row: a fresh key
        target.insert_rows(S1, 3)
    assert workbook.formula_text(S1, "D1") == "SUM(A2:A10)*A5"
    assert state(workbook) == state(oracle)


def test_dead_formula_shows_ref_and_holds_no_tree():
    workbook, _ = run({S1: {**A_COLUMN, "C1": "=SUM(A3:A4)"}}, [edit(S1, "delete_rows", 2, 2)])
    cell = workbook.sheet(S1).cell("C1")
    assert (cell.value, cell.formula) == ("#REF!", None)
    assert not workbook.compute.has_formula(workbook.key_of(S1, CellAddress.parse("C1")))


def test_fifty_mixed_splices_render_like_the_oracle():
    rng = random.Random(20)
    cells = {S1: {**{f"A{row}": row for row in range(1, 41)},
                  **{f"B{row}": f"=A{row}*2+$A${row}" for row in range(1, 41)},
                  "D1": "=SUM(A1:A40)", "D2": "=MAX(B2:B39)-(A3-A2)",
                  "D3": "=-(A5+B6)^2", "E5": "=IF(A7>3,SUM(A1:B4),Sheet2!A1)"},
             S2: {"A1": 5, "B1": "=SUM(Sheet1!A2:A6)"}}
    edits, last_data_col = [], 1  # column deletes stay right of A and B, wherever they drift
    for _ in range(50):
        kind = rng.choice(["insert_rows"] * 3 + ["insert_cols"] * 2 + ["delete_rows", "delete_cols"])
        count = rng.choice((1, 1, 2))
        if kind == "delete_cols":
            at = last_data_col + 1 + rng.randrange(6)
        else:
            at = rng.randrange(45 if kind.endswith("rows") else 9)
        if kind == "insert_cols" and at <= last_data_col:
            last_data_col += count
        edits.append(edit(S1, kind, at, count))
    workbook, oracle = run(cells, edits)
    assert state(workbook) == state(oracle)
    assert sum(text is not None for _, text in state(workbook).values()) >= 20  # most survive
    assert workbook.sheet(S1).store.stats.cells_moved == 0


def test_dbsql_precedent_is_rebound_after_an_insert_above_it():
    """A DBSQL's RANGEVALUE reference is logical text inside the SQL: after
    a row is inserted above it the query reads whatever is *now* at that
    position, and an edit there must still refresh the region."""
    workbook = Workbook()
    workbook.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
    workbook.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
    workbook.set(S1, "B1", 2)
    workbook.dbsql(S1, "D5", "SELECT name FROM t WHERE id = RANGEVALUE(B1)")
    assert workbook.get(S1, "D5") == "two"
    workbook.insert_rows(S1, 0, 1)  # B1's cell is now B2; the anchor is D6
    assert workbook.get(S1, "D6") is None  # RANGEVALUE(B1) reads the blank new row
    workbook.set(S1, "B1", 1)
    assert workbook.get(S1, "D6") == "one"
    workbook.set(S1, "B2", 1)  # the old precedent cell no longer feeds the query
    assert workbook.get(S1, "D6") == "one"


PARENTHESISED = {"D1": "=(A5+B5)*2", "D2": "=-(A5+B5)", "E1": "=A5-(B5-1)"}


def test_parenthesised_formulas_keep_value_and_text_through_recovery(tmp_path):
    """The parser drops grouping; ``to_text`` must put it back, or the
    snapshot stores — and recovery loads — a different formula."""
    service = WorkbookService(str(tmp_path / "svc"), fsync=False)
    session = service.connect("editor")
    for ref, raw in {"A5": 3, "B5": 4, **PARENTHESISED, "E2": "=SUM(A1:B9)"}.items():
        service.set_cell(session.session_id, S1, ref, raw)
    service.apply(session.session_id, {"type": "insert_rows", "sheet": S1, "at": 2, "count": 1})

    def shown(workbook):
        return [(workbook.get(S1, ref), workbook.formula_text(S1, ref))
                for ref in ("D1", "D2", "E1", "E2")]

    expected = [(14, "(A6+B6)*2"), (-7, "-(A6+B6)"), (0, "A6-(B6-1)"), (7, "SUM(A1:B10)")]
    assert shown(service.workbook) == expected
    assert service.compact(force=True) is not None
    service.apply(session.session_id, {"type": "delete_rows", "sheet": S1, "at": 2, "count": 1})
    expected = [(14, "(A5+B5)*2"), (-7, "-(A5+B5)"), (0, "A5-(B5-1)"), (7, "SUM(A1:B9)")]
    assert shown(service.workbook) == expected
    service.close()
    assert shown(recover_state(str(tmp_path / "svc")).workbook) == expected
