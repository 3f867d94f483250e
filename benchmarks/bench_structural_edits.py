"""Structural edits through positional mapping: logical work scales with
what the edit touches, not the sheet.

The seed implementation of ``Workbook._structural_edit`` physically
relocated every cell below/right of the edit (O(occupied cells)) and then
reset the compute engine and reparsed/re-registered **every** formula on
every sheet (O(total formulas)).  The positional-mapping path splices the
cell store's key space instead — zero cells move — and, because every
formula's references are bound to those same keys, rewrites and reparses
no formula at all.

Claims measured (and asserted) here, via the existing logical-work
counters (``CellStoreStats.cells_moved``/``cells_dropped``,
``ComputeStats.reparses``):

* inserting 1 row into a 100k-cell sheet with 1k formulas moves **0**
  stored cells and reparses **0** formulas;
* deleting a row is equally cheap, and only deletes that actually remove
  occupied cells pay a per-cell drop cost.

Run ``BENCH_SMOKE=1`` (the CI smoke step) to shrink the sheet while
keeping every assertion live, so the benchmark cannot bit-rot.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import Workbook
from repro.core.address import CellAddress
from repro.core.cell import Cell

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

N_ROWS = 200 if SMOKE else 1000
N_COLS = 10 if SMOKE else 100          # N_ROWS * N_COLS stored cells
FORMULA_EVERY = 2 if SMOKE else 1      # a formula in col A every k-th row
EDIT_AT = N_ROWS - 10                  # insertion point near the bottom


def build_workbook() -> Workbook:
    """A dense sheet: value cells in cols C.., one ``=C<r>*2`` formula per
    k-th row in col A (each referencing its own row)."""
    workbook = Workbook()
    store = workbook.sheet("Sheet1").store
    for row in range(N_ROWS):
        for col in range(2, 2 + N_COLS):
            store.set(row, col, Cell(value=1.0))
    for row in range(0, N_ROWS, FORMULA_EVERY):
        workbook.set("Sheet1", CellAddress(row, 0), f"=C{row + 1}*2")
    return workbook


def test_insert_row_logical_work():
    """The acceptance numbers: 0 cells moved, 0 formulas reparsed."""
    workbook = build_workbook()
    store = workbook.sheet("Sheet1").store
    n_formulas = workbook.compute.n_formulas
    formula_rows = range(0, N_ROWS, FORMULA_EVERY)
    store.stats.reset()
    workbook.compute.stats.reset()

    started = time.perf_counter()
    workbook.insert_rows("Sheet1", EDIT_AT, 1)
    elapsed = time.perf_counter() - started

    moved = store.stats.cells_moved
    reparses = workbook.compute.stats.reparses
    print(
        f"\ninsert 1 row @ {EDIT_AT} on {len(store)} cells / "
        f"{n_formulas} formulas: {elapsed * 1000:.2f} ms, "
        f"cells moved {moved}, reparses {reparses} "
        f"(seed would reparse {n_formulas})"
    )
    assert moved == 0, "positional mapping must not relocate stored cells"
    assert reparses == 0, "formulas are bound to the mapper's keys: nothing to reparse"
    # The workbook is still correct: a moved formula follows its row.
    last_formula_row = max(formula_rows)
    assert workbook.get("Sheet1", CellAddress(last_formula_row + 1, 0)) == 2.0


def test_delete_rows_logical_work():
    """Deletes drop only the cells that occupied the removed slice —
    nothing moves, nothing is reparsed."""
    workbook = build_workbook()
    store = workbook.sheet("Sheet1").store
    store.stats.reset()
    workbook.compute.stats.reset()

    workbook.delete_rows("Sheet1", EDIT_AT, 1)

    assert store.stats.cells_moved == 0
    assert store.stats.cells_dropped == N_COLS + (1 if EDIT_AT % FORMULA_EVERY == 0 else 0)
    assert workbook.compute.stats.reparses == 0


def test_insert_delete_wallclock(benchmark):
    """Wall-clock for an insert+delete pair in the middle of the sheet
    (paired so sheet size is stable across rounds)."""
    workbook = build_workbook()

    def edit():
        workbook.insert_rows("Sheet1", EDIT_AT, 1)
        workbook.delete_rows("Sheet1", EDIT_AT, 1)

    benchmark.pedantic(edit, rounds=10 if SMOKE else 30, iterations=1)
    store = workbook.sheet("Sheet1").store
    benchmark.extra_info["cells"] = len(store)
    benchmark.extra_info["formulas"] = workbook.compute.n_formulas
    benchmark.extra_info["cells_moved"] = store.stats.cells_moved
    benchmark.extra_info["reparses"] = workbook.compute.stats.reparses
    assert store.stats.cells_moved == 0


def test_wal_replay_of_structural_ops(tmp_path):
    """Server-layer guarantee: replaying the logged structural ops
    reproduces the identical sheet (the WAL path stays correct without
    the seed's whole-workbook reparse)."""
    from repro.server.service import WorkbookService, recover_state

    directory = str(tmp_path / "svc")
    service = WorkbookService(directory, fsync=False)
    session = service.connect("bench")
    for row in range(0, 20, 2):
        service.set_cell(session.session_id, "Sheet1", f"A{row + 1}", row)
    service.set_cell(session.session_id, "Sheet1", "B1", "=A1+100")
    service.apply(
        session.session_id,
        {"type": "insert_rows", "sheet": "Sheet1", "at": 4, "count": 3},
    )
    service.apply(
        session.session_id,
        {"type": "delete_rows", "sheet": "Sheet1", "at": 0, "count": 1},
    )
    expected = {
        (row, col): cell.value
        for row, col, cell in service.workbook.sheet("Sheet1").store.items()
    }
    service.close()

    recovered = recover_state(directory)
    got = {
        (row, col): cell.value
        for row, col, cell in recovered.workbook.sheet("Sheet1").store.items()
    }
    assert got == expected
