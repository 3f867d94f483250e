"""Property test: the positional-mapping structural-edit path agrees with
a naive dict-of-cells model (``structural_oracle.shift_model``: shift keys,
rewrite formula text) under random edit sequences, and WAL replay of the
same operation log reproduces the identical sheet."""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Workbook
from repro.core.address import CellAddress
from repro.server.service import apply_op
from repro.server.wal import WriteAheadLog, committed_ops, read_wal

from structural_oracle import shift_model

COORD = st.integers(0, 12)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("value"), COORD, COORD, st.integers(0, 99)),
        st.tuples(st.just("formula"), COORD, COORD, st.tuples(COORD, COORD)),
        st.tuples(
            st.sampled_from(["insert_rows", "delete_rows", "insert_cols", "delete_cols"]),
            st.integers(0, 10),
            st.integers(1, 2),
            st.none(),
        ),
    ),
    max_size=22,
)


def formula_text(ref_row: int, ref_col: int) -> str:
    return f"={CellAddress(ref_row, ref_col).to_a1()}+1"


def snapshot(workbook: Workbook):
    """(row, col) -> (value, formula text) for every occupied cell."""
    return {
        (row, col): (cell.value, workbook.formula_text("Sheet1", cell))
        for row, col, cell in workbook.sheet("Sheet1").store.items()
    }


@settings(max_examples=30, deadline=None)
@given(operations=operations)
def test_structural_edits_match_naive_model(operations):
    workbook = Workbook()
    model = {}
    ops_log = []
    for kind, a, b, extra in operations:
        if kind == "value":
            workbook.set("Sheet1", CellAddress(a, b), extra)
            model[(a, b)] = extra
            ops_log.append(
                {"type": "set_cell", "sheet": "Sheet1",
                 "ref": CellAddress(a, b).to_a1(), "raw": extra}
            )
        elif kind == "formula":
            raw = formula_text(*extra)
            workbook.set("Sheet1", CellAddress(a, b), raw)
            model[(a, b)] = raw
            ops_log.append(
                {"type": "set_cell", "sheet": "Sheet1",
                 "ref": CellAddress(a, b).to_a1(), "raw": raw}
            )
        else:
            axis = "row" if "rows" in kind else "col"
            count = b if kind.startswith("insert") else -b
            getattr(workbook, kind)("Sheet1", a, b)
            model = shift_model(model, axis, a, count)
            ops_log.append({"type": kind, "sheet": "Sheet1", "at": a, "count": b})

    # 1. The live workbook equals a fresh workbook built from the model.
    oracle = Workbook()
    for (row, col), raw in model.items():
        oracle.set("Sheet1", CellAddress(row, col), raw)
    workbook.recalc_all()
    oracle.recalc_all()
    assert snapshot(workbook) == snapshot(oracle)

    # 2. WAL replay of the same op sequence reproduces the identical sheet.
    with tempfile.TemporaryDirectory() as tmp:
        path = tmp + "/wal.jsonl"
        with WriteAheadLog(path, fsync=False) as wal:
            for op in ops_log:
                wal.append(op)
        records, _, _ = read_wal(path)
        replayed = Workbook()
        for op in committed_ops(records):
            apply_op(replayed, op)
        replayed.recalc_all()
        assert snapshot(replayed) == snapshot(workbook)
