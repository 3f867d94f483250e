"""Text-level oracle for structural edits (test-local; not part of ``src/``).

This is the reference rewriter the workbook used before formulas were bound
to the positional mapper's keys: parse the A1 text, move every reference
across the edit by arithmetic on its coordinates, render the text again.
The workbook no longer rewrites anything — its references follow their
cells through the mapper — so the two are independent, and the tests hold
the workbook's rendered text and values to this one's.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.address import CellAddress, RangeAddress
from repro.errors import FormulaError
from repro.formula.dependency import ReferenceDeleted
from repro.formula.nodes import FormulaNode, map_refs
from repro.formula.parser import parse_formula

__all__ = [
    "ReferenceDeleted",
    "adjust_formula_for_structural_edit",
    "shift_model",
    "shift_models",
]


def _adjust_coord(coord: int, at: int, count: int) -> int:
    """New coordinate after inserting (count>0) or deleting (count<0)
    ``abs(count)`` slots at ``at``.  Raises ReferenceDeleted when the
    coordinate itself is removed."""
    if count > 0:
        return coord + count if coord >= at else coord
    removed = -count
    if coord >= at + removed:
        return coord - removed
    if coord >= at:
        raise ReferenceDeleted(f"referenced slot {coord} deleted")
    return coord


def adjust_node_for_structural_edit(
    node: FormulaNode, axis: str, at: int, count: int, sheet: str, base_sheet: str
) -> FormulaNode:
    """Rewrite references after inserting/deleting rows (``axis='row'``) or
    columns (``axis='col'``) on ``sheet``.

    Absolute references move too — the data they pointed at moved.  Ranges
    clamp: a range losing interior rows shrinks; a range losing *all* its
    rows raises ReferenceDeleted.  Unqualified references belong to
    ``base_sheet`` (the formula's sheet)."""
    if axis not in ("row", "col"):
        raise FormulaError(f"unknown axis {axis!r}")

    def move_cell(address: CellAddress) -> CellAddress:
        if (address.sheet or base_sheet) != sheet:
            return address
        return replace(address, **{axis: _adjust_coord(getattr(address, axis), at, count)})

    def move_range(reference: RangeAddress) -> RangeAddress:
        if (reference.sheet or base_sheet) != sheet:
            return reference
        lo, hi = getattr(reference.start, axis), getattr(reference.end, axis)
        if count < 0:
            removed = -count
            new_lo, new_hi = lo, hi
            if lo >= at:
                new_lo = max(lo - removed, at) if lo < at + removed else lo - removed
            if hi >= at:
                new_hi = at - 1 if hi < at + removed else hi - removed
            if new_hi < new_lo or new_hi < 0:
                raise ReferenceDeleted(f"range {reference.to_a1()} fully deleted")
            lo, hi = new_lo, new_hi
        else:
            if lo >= at:
                lo += count
            if hi >= at:
                hi += count
        return RangeAddress(
            replace(reference.start, **{axis: lo}), replace(reference.end, **{axis: hi})
        )

    return map_refs(node, move_cell, move_range)


def adjust_formula_for_structural_edit(
    source: str, axis: str, at: int, count: int, sheet: str, base_sheet: str
) -> str:
    node = parse_formula(source)
    return adjust_node_for_structural_edit(node, axis, at, count, sheet, base_sheet).to_text()


def shift_models(models, sheet, axis, at, count):
    """Apply a structural edit on ``sheet`` to naive per-sheet
    ``{(row, col): raw input}`` models: on the edited sheet shift keys and
    drop deleted ones; on every sheet rewrite formula text."""
    index = 0 if axis == "row" else 1
    removed = -count if count < 0 else 0
    out = {}
    for name, model in models.items():
        shifted = out[name] = {}
        for coord, raw in model.items():
            if name == sheet:
                position = coord[index]
                if removed and at <= position < at + removed:
                    continue  # deleted slice
                moved = position + count if position >= at + removed else position
                coord = (moved, coord[1]) if axis == "row" else (coord[0], moved)
            if isinstance(raw, str) and raw.startswith("="):
                try:
                    raw = "=" + adjust_formula_for_structural_edit(
                        raw[1:], axis, at, count, sheet, name
                    )
                except ReferenceDeleted:
                    raw = "#REF!"
            shifted[coord] = raw
    return out


def shift_model(model, axis, at, count):
    """The single-sheet form: a model of ``Sheet1`` edited on ``Sheet1``."""
    return shift_models({"Sheet1": model}, "Sheet1", axis, at, count)["Sheet1"]
