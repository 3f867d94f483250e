"""Unit tests for cells and dynamic typing (repro.core.cell)."""

import datetime

import pytest

from repro.core.cell import Cell, CellKind, coerce_scalar, infer_cell_kind


class TestCoerceScalar:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("123", 123),
            ("-4", -4),
            ("3.5", 3.5),
            ("+2", 2),
            ("1e3", 1000.0),
            (".5", 0.5),
            ("TRUE", True),
            ("false", False),
            ("2020-05-17", datetime.date(2020, 5, 17)),
            ("hello", "hello"),
            ("", None),
            ("  ", None),
            ("12abc", "12abc"),
            (7, 7),
            (None, None),
        ],
    )
    def test_coercion(self, raw, expected):
        assert coerce_scalar(raw) == expected

    def test_invalid_date_stays_text(self):
        assert coerce_scalar("2020-13-45") == "2020-13-45"

    def test_integer_string_stays_int(self):
        assert isinstance(coerce_scalar("42"), int)

    def test_decimal_string_becomes_float(self):
        assert isinstance(coerce_scalar("42.0"), float)


class TestInferCellKind:
    @pytest.mark.parametrize(
        "value,kind",
        [
            (None, CellKind.EMPTY),
            ("", CellKind.EMPTY),
            (True, CellKind.BOOLEAN),
            (0, CellKind.NUMBER),
            (3.14, CellKind.NUMBER),
            ("txt", CellKind.TEXT),
            (datetime.date(2020, 1, 1), CellKind.DATE),
            ("#REF!", CellKind.ERROR),
            (float("nan"), CellKind.ERROR),
        ],
    )
    def test_kinds(self, value, kind):
        assert infer_cell_kind(value) == kind


class TestCell:
    def test_default_empty(self):
        cell = Cell()
        assert cell.is_empty
        assert not cell.is_formula
        assert cell.display() == ""

    def test_set_value_updates_kind(self):
        cell = Cell()
        cell.set_value(5)
        assert cell.kind is CellKind.NUMBER
        cell.set_value("x")
        assert cell.kind is CellKind.TEXT

    def test_set_input_plain(self):
        cell = Cell()
        cell.set_input("99")
        assert cell.value == 99
        assert not cell.is_formula

    def test_set_input_formula(self):
        cell = Cell()
        cell.set_input("=A1+1")
        assert cell.is_formula
        assert cell.formula.to_text() == "A1+1"  # the parsed tree, not the text

    def test_formula_replaced_by_value(self):
        cell = Cell()
        cell.set_input("=A1")
        cell.set_input("5")
        assert not cell.is_formula
        assert cell.value == 5

    def test_set_error(self):
        cell = Cell()
        cell.set_error("#DIV/0!")
        assert cell.kind is CellKind.ERROR
        assert cell.value == "#DIV/0!"

    def test_set_error_unknown_code_normalised(self):
        cell = Cell()
        cell.set_error("#WAT?")
        assert cell.value == "#VALUE!"

    def test_clear(self):
        cell = Cell()
        cell.set_input("=A1")
        cell.region_id = 4
        cell.clear()
        assert cell.is_empty
        assert cell.region_id is None

    def test_display_formatting(self):
        assert Cell(value=True).display() == "TRUE"
        assert Cell(value=2.0).display() == "2"
        assert Cell(value=2.5).display() == "2.5"
        assert Cell(value="s").display() == "s"

    def test_copy_independent(self):
        cell = Cell(value=1)
        cell.meta["x"] = 1
        clone = cell.copy()
        clone.set_value(2)
        clone.meta["x"] = 9
        assert cell.value == 1
        assert cell.meta["x"] == 1

    def test_constructor_infers_kind(self):
        assert Cell(value=5).kind is CellKind.NUMBER
