"""Precedent extraction and relative-reference shifting.

The compute engine needs to know, for every formula, which cells and ranges
it reads (its *precedents*) so it can rebuild the dependency graph on edit.
``DBSQL`` formulas additionally reference database tables and embedded
``RANGEVALUE``/``RANGETABLE`` spreadsheet references — those are extracted
by the DataSpread layer (:mod:`repro.core.dbsql`), not here.

``shift_formula`` implements copy/paste semantics (paper §2.2: positional
referencing "enables us to copy expressions across cells while still
maintaining the relative references"): relative references move by the
paste delta, absolute (``$``) ones do not; references pushed off the sheet
become ``#REF!`` errors.

Structural edits (insert/delete rows or columns) rewrite nothing here: a
workbook formula's references are bound to the positional mapper's stable
keys (see :mod:`repro.formula.nodes`), so they follow their cells through a
splice on their own.  :class:`ReferenceDeleted` is what the workbook raises
while re-binding the few formulas that referenced a *deleted* key.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Optional, Set, Union

from repro.core.address import CellAddress, RangeAddress
from repro.errors import AddressError, FormulaError
from repro.formula.nodes import CellRef, FormulaNode, RangeRef, map_refs, walk
from repro.formula.parser import parse_formula

__all__ = [
    "Precedents",
    "extract_dependencies",
    "shift_formula",
    "shift_node",
    "ReferenceDeleted",
]


@dataclass(frozen=True)
class Precedents:
    """What a formula reads."""

    cells: FrozenSet[CellAddress]
    ranges: FrozenSet[RangeAddress]

    def all_cells(self, clamp: int = 1_000_000) -> Set[CellAddress]:
        """Expand ranges to member cells (bounded; huge ranges raise)."""
        out: Set[CellAddress] = set(self.cells)
        for reference in self.ranges:
            if reference.size > clamp:
                raise FormulaError(
                    f"range {reference.to_a1()} too large to expand"
                )
            out.update(reference.cells())
        return out

    def is_empty(self) -> bool:
        return not self.cells and not self.ranges


def extract_dependencies(
    formula: Union[str, FormulaNode], base_sheet: Optional[str] = None
) -> Precedents:
    """Collect cell and range precedents; unqualified references are
    attributed to ``base_sheet``."""
    node = parse_formula(formula) if isinstance(formula, str) else formula
    cells: Set[CellAddress] = set()
    ranges: Set[RangeAddress] = set()
    for item in walk(node):
        if isinstance(item, CellRef):
            address = item.address
            if address.sheet is None and base_sheet is not None:
                address = address.with_sheet(base_sheet)
            cells.add(address)
        elif isinstance(item, RangeRef):
            reference = item.range
            if reference.sheet is None and base_sheet is not None:
                reference = replace(  # keeps a bound range's class
                    reference,
                    start=reference.start.with_sheet(base_sheet),
                    end=reference.end.with_sheet(base_sheet),
                )
            ranges.add(reference)
    return Precedents(frozenset(cells), frozenset(ranges))


def shift_node(node: FormulaNode, d_row: int, d_col: int) -> FormulaNode:
    """Return a copy of the AST with relative references shifted."""

    def shift(address: CellAddress) -> CellAddress:
        try:
            return address.offset(d_row, d_col)
        except AddressError:
            raise FormulaError(
                f"reference {address.to_a1()} shifted off the sheet"
            ) from None

    return map_refs(
        node, shift, lambda ref: RangeAddress(shift(ref.start), shift(ref.end))
    )


def shift_formula(source: str, d_row: int, d_col: int) -> str:
    """Shift a formula's relative references (copy/paste); returns new
    formula text without the leading ``=``."""
    node = parse_formula(source)
    return shift_node(node, d_row, d_col).to_text()


class ReferenceDeleted(FormulaError):
    """A structural edit removed a row/column a formula referenced; the
    owning cell must display ``#REF!``."""
