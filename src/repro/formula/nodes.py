"""Formula AST nodes.

The tree is the formula: the parser drops the source text and its
parentheses, and ``to_text`` renders a tree back with exactly the
parentheses its precedence and associativity require, so
``parse_formula(node.to_text()) == node``.  Inside a workbook the tree is
*bound* — each ``CellRef``/``RangeRef`` coordinate is the positional
mapper's stable row/column key (:class:`~repro.core.address.KeyAddress`
once a sheet was spliced), so a structural edit changes no tree — and A1
text is rendered from it on demand (``Workbook.formula_text``).
:func:`map_refs` is the one tree rewriter: binding, rendering and
copy/paste shifting are the address functions handed to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.core.address import CellAddress, RangeAddress

__all__ = [
    "FormulaNode",
    "Number",
    "Text",
    "Boolean",
    "CellRef",
    "RangeRef",
    "Binary",
    "Unary",
    "Call",
    "walk",
    "map_refs",
]

#: Binding strength, loosest first (the parser's levels); unary is 6 and
#: everything that needs no parentheses (literals, references, calls) 7.
_LEVEL = {"=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1, "&": 2,
          "+": 3, "-": 3, "*": 4, "/": 4, "^": 5}
_UNARY = 6


class FormulaNode:
    __slots__ = ()

    def to_text(self) -> str:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class Number(FormulaNode):
    value: float

    def to_text(self) -> str:
        if isinstance(self.value, int) or (
            isinstance(self.value, float) and self.value.is_integer()
        ):
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class Text(FormulaNode):
    value: str

    def to_text(self) -> str:
        escaped = self.value.replace('"', '""')
        return f'"{escaped}"'


@dataclass(frozen=True)
class Boolean(FormulaNode):
    value: bool

    def to_text(self) -> str:
        return "TRUE" if self.value else "FALSE"


@dataclass(frozen=True)
class CellRef(FormulaNode):
    address: CellAddress

    def to_text(self) -> str:
        return self.address.to_a1()


@dataclass(frozen=True)
class RangeRef(FormulaNode):
    range: RangeAddress

    def to_text(self) -> str:
        return self.range.to_a1()


@dataclass(frozen=True)
class Binary(FormulaNode):
    op: str  # = <> < <= > >= & + - * / ^
    left: FormulaNode
    right: FormulaNode

    def to_text(self) -> str:
        # An operand of the same level needs parentheses on the side the
        # operator does not associate to: ``A-(B-1)``, ``(2^3)^2``.
        level, right_assoc = _LEVEL[self.op], self.op == "^"
        left = _operand(self.left, level + right_assoc)
        right = _operand(self.right, level + (not right_assoc))
        return f"{left}{self.op}{right}"


@dataclass(frozen=True)
class Unary(FormulaNode):
    op: str  # - +
    operand: FormulaNode

    def to_text(self) -> str:
        return f"{self.op}{_operand(self.operand, _UNARY)}"


@dataclass(frozen=True)
class Call(FormulaNode):
    name: str  # upper-cased
    args: Tuple[FormulaNode, ...]

    def to_text(self) -> str:
        rendered = ",".join(argument.to_text() for argument in self.args)
        return f"{self.name}({rendered})"


def _operand(node: FormulaNode, floor: int) -> str:
    """``node`` as an operand, parenthesised when it binds looser than
    ``floor``."""
    if isinstance(node, Binary):
        binds = _LEVEL[node.op]
    else:
        binds = _UNARY if isinstance(node, Unary) else _UNARY + 1
    return f"({node.to_text()})" if binds < floor else node.to_text()


def walk(node: FormulaNode):
    """Pre-order traversal."""
    yield node
    if isinstance(node, Binary):
        yield from walk(node.left)
        yield from walk(node.right)
    elif isinstance(node, Unary):
        yield from walk(node.operand)
    elif isinstance(node, Call):
        for argument in node.args:
            yield from walk(argument)


def map_refs(
    node: FormulaNode,
    on_cell: Callable[[CellAddress], CellAddress],
    on_range: Callable[[RangeAddress], RangeAddress],
) -> FormulaNode:
    """The tree with every reference's address passed through ``on_cell``
    / ``on_range``.  Subtrees in which nothing changed are shared, so an
    identity mapping returns ``node`` itself."""
    if isinstance(node, CellRef):
        address = on_cell(node.address)
        return node if address is node.address else CellRef(address)
    if isinstance(node, RangeRef):
        reference = on_range(node.range)
        return node if reference is node.range else RangeRef(reference)
    if isinstance(node, Binary):
        left = map_refs(node.left, on_cell, on_range)
        right = map_refs(node.right, on_cell, on_range)
        if left is node.left and right is node.right:
            return node
        return Binary(node.op, left, right)
    if isinstance(node, Unary):
        operand = map_refs(node.operand, on_cell, on_range)
        return node if operand is node.operand else Unary(node.op, operand)
    if isinstance(node, Call):
        args = tuple(map_refs(argument, on_cell, on_range) for argument in node.args)
        if all(new is old for new, old in zip(args, node.args)):
            return node
        return Call(node.name, args)
    return node  # literals
