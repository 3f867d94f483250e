"""Unit tests for the formula lexer and parser."""

import pytest

from repro.core.address import CellAddress, RangeAddress
from repro.errors import FormulaSyntaxError
from repro.formula.lexer import tokenize_formula
from repro.formula.nodes import (
    Binary,
    Boolean,
    Call,
    CellRef,
    Number,
    RangeRef,
    Text,
    Unary,
)
from repro.formula.parser import parse_formula


class TestLexer:
    def test_cell_vs_ident(self):
        tokens = tokenize_formula("A1 + SUM(B2)")
        assert [t.kind for t in tokens[:-1]] == ["CELL", "OP", "IDENT", "OP", "CELL", "OP"]

    def test_absolute_cell_tokens(self):
        tokens = tokenize_formula("$A$1")
        assert tokens[0].kind == "CELL"
        assert tokens[0].text == "$A$1"

    def test_string_escapes(self):
        tokens = tokenize_formula('"say ""hi"""')
        assert tokens[0].text == 'say "hi"'

    def test_booleans(self):
        tokens = tokenize_formula("TRUE FALSE")
        assert [t.kind for t in tokens[:-1]] == ["BOOL", "BOOL"]

    def test_number_not_cell(self):
        tokens = tokenize_formula("1.5e2")
        assert tokens[0].kind == "NUMBER"

    def test_ident_with_trailing_digits_and_paren(self):
        # LOG10( would be a function name, not a cell reference
        tokens = tokenize_formula("LOG10(5)")
        assert tokens[0].kind == "IDENT"

    def test_unterminated_string(self):
        with pytest.raises(FormulaSyntaxError):
            tokenize_formula('"oops')

    def test_bad_character(self):
        with pytest.raises(FormulaSyntaxError):
            tokenize_formula("A1 ~ B2")


class TestParser:
    def test_leading_equals_optional(self):
        assert parse_formula("=1+1") == parse_formula("1+1")

    def test_empty_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("=")

    def test_number_literals(self):
        assert parse_formula("42") == Number(42)
        assert parse_formula("2.5") == Number(2.5)

    def test_text_and_bool(self):
        assert parse_formula('"hi"') == Text("hi")
        assert parse_formula("TRUE") == Boolean(True)

    def test_cell_ref(self):
        node = parse_formula("B3")
        assert isinstance(node, CellRef)
        assert node.address == CellAddress.parse("B3")

    def test_range_ref(self):
        node = parse_formula("A1:B10")
        assert isinstance(node, RangeRef)
        assert node.range == RangeAddress.parse("A1:B10")

    def test_sheet_qualified_cell(self):
        node = parse_formula("Sheet2!C4")
        assert node.address.sheet == "Sheet2"

    def test_sheet_qualified_range(self):
        node = parse_formula("Data!A1:A10")
        assert node.range.start.sheet == "Data"
        assert node.range.end.sheet == "Data"

    def test_precedence_mul_over_add(self):
        node = parse_formula("1+2*3")
        assert node.op == "+"
        assert node.right.op == "*"

    def test_exponent_right_associative(self):
        node = parse_formula("2^3^2")
        assert node.op == "^"
        assert node.right.op == "^"

    def test_concat_binds_looser_than_add(self):
        node = parse_formula('"a" & 1+2')
        assert node.op == "&"
        assert node.right.op == "+"

    def test_comparison_loosest(self):
        node = parse_formula("A1+1 > B1*2")
        assert node.op == ">"

    def test_unary_minus(self):
        node = parse_formula("-A1")
        assert isinstance(node, Unary)

    def test_function_call(self):
        node = parse_formula("SUM(A1:A3, B1, 5)")
        assert isinstance(node, Call)
        assert node.name == "SUM"
        assert len(node.args) == 3

    def test_function_name_case_normalised(self):
        assert parse_formula("sum(A1)").name == "SUM"

    def test_nested_calls(self):
        node = parse_formula("IF(A1>0, SUM(B1:B2), -1)")
        assert node.name == "IF"
        assert isinstance(node.args[1], Call)

    def test_empty_arg_list(self):
        assert parse_formula("PI()") == Call("PI", ())

    def test_parens(self):
        node = parse_formula("(1+2)*3")
        assert node.op == "*"

    def test_unknown_bare_name_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("=banana")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("=1+2 3")

    def test_unbalanced_parens(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("=SUM(A1")


class TestToText:
    @pytest.mark.parametrize(
        "source",
        [
            "A1+B2",
            "SUM(A1:B10)",
            '"x"&"y"',
            "IF(A1>1,2,3)",
            "$A$1*2",
            "Sheet2!B2",
            "-A1",
            "1.5",
            "TRUE",
        ],
    )
    def test_roundtrip(self, source):
        node = parse_formula(source)
        assert parse_formula(node.to_text()) == node

    @pytest.mark.parametrize(
        "source,text",
        [
            # Grouping the tree needs is put back ...
            ("(A5+B5)*2", "(A5+B5)*2"),
            ("-(A5+B5)", "-(A5+B5)"),
            ("A5-(B5-1)", "A5-(B5-1)"),
            ("A1/(B1*C1)", "A1/(B1*C1)"),
            ("(2^3)^2", "(2^3)^2"),
            ("-(2^2)", "-(2^2)"),
            ("(A1=B1)=C1", "A1=B1=C1"),
            ("A1=(B1=C1)", "A1=(B1=C1)"),
            ('(A1&"x")=B1', 'A1&"x"=B1'),
            ("SUM((A1+1)*2,(B1))", "SUM((A1+1)*2,B1)"),
            # ... and only that: precedence and associativity do the rest.
            ("((A1))+(B1*2)", "A1+B1*2"),
            ("(A1-B1)-1", "A1-B1-1"),
            ("2^(3^2)", "2^3^2"),
            ("2^-A5", "2^-A5"),
            ("-2^2", "-2^2"),
            ("A1*-B1", "A1*-B1"),
            ("--A1", "--A1"),
        ],
    )
    def test_to_text_emits_minimal_parentheses(self, source, text):
        node = parse_formula(source)
        assert node.to_text() == text
        assert parse_formula(text) == node
