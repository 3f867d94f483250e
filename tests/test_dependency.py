"""Unit tests for precedent extraction and copy/paste shifting.  (How
references behave under structural edits is pinned, against the text-level
oracle, in test_structural_binding.)"""

import pytest

from repro.core.address import CellAddress, RangeAddress
from repro.errors import FormulaError
from repro.formula.dependency import extract_dependencies, shift_formula


class TestExtraction:
    def test_cells_and_ranges(self):
        deps = extract_dependencies("A1 + SUM(B1:B10) * C3")
        assert CellAddress.parse("A1") in deps.cells
        assert CellAddress.parse("C3") in deps.cells
        assert RangeAddress.parse("B1:B10") in deps.ranges

    def test_base_sheet_attribution(self):
        deps = extract_dependencies("A1 + Other!B2", base_sheet="Main")
        sheets = {address.sheet for address in deps.cells}
        assert sheets == {"Main", "Other"}

    def test_no_dependencies(self):
        deps = extract_dependencies('1 + 2 & "x"')
        assert deps.is_empty()

    def test_nested_function_args(self):
        deps = extract_dependencies("IF(A1>0, SUM(B1:B3), C1)")
        assert len(deps.cells) == 2
        assert len(deps.ranges) == 1

    def test_all_cells_expands_ranges(self):
        deps = extract_dependencies("SUM(A1:A3)", base_sheet="S")
        cells = deps.all_cells()
        assert len(cells) == 3

    def test_all_cells_refuses_huge_ranges(self):
        deps = extract_dependencies("SUM(A1:Z100000)")
        with pytest.raises(FormulaError):
            deps.all_cells(clamp=1000)

    def test_duplicates_deduplicated(self):
        deps = extract_dependencies("A1 + A1 + A1")
        assert len(deps.cells) == 1


class TestShift:
    def test_relative_shift(self):
        assert shift_formula("A1+B2", 1, 1) == "B2+C3"

    def test_absolute_pinned(self):
        assert shift_formula("$A$1+B2", 5, 5) == "$A$1+G7"

    def test_mixed_flags(self):
        assert shift_formula("A$1+$B2", 2, 2) == "C$1+$B4"

    def test_range_shift(self):
        assert shift_formula("SUM(A1:B2)", 1, 0) == "SUM(A2:B3)"

    def test_off_sheet_is_error(self):
        with pytest.raises(FormulaError):
            shift_formula("A1", -1, 0)

    def test_literals_untouched(self):
        assert shift_formula('1+"x"&A1', 0, 1) == '1+"x"&B1'
