"""Cells and dynamic typing.

Spreadsheets "dynamically type the data stored as cells" (paper §2.2(c)).
A :class:`Cell` therefore carries a *value* plus an inferred
:class:`CellKind`; when a range is exported to the database the per-cell
kinds are aggregated into relational column types by
:mod:`repro.core.table_io`.

A cell may also hold a *formula* (input beginning with ``=``).  What is
kept is the parsed tree, never the source text: inside a workbook the
tree's references are bound to the positional mapper's stable keys, so a
structural edit cannot make it stale, and A1 text is rendered from it where
something reads it (``Workbook.formula_text``, snapshots).  The evaluated
value is cached on the cell and is invalidated/recomputed by the compute
engine.
"""

from __future__ import annotations

import datetime as _dt
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

__all__ = [
    "CellKind",
    "Cell",
    "infer_cell_kind",
    "coerce_scalar",
    "ERROR_LITERALS",
]

#: Spreadsheet error literals a cell can display.
ERROR_LITERALS = ("#VALUE!", "#DIV/0!", "#REF!", "#NAME?", "#CIRC!", "#N/A", "#SPILL!")

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")
_BOOL_LITERALS = {"true": True, "false": False, "TRUE": True, "FALSE": False}


class CellKind(Enum):
    """The dynamic type of a cell's *displayed* value."""

    EMPTY = "empty"
    NUMBER = "number"
    TEXT = "text"
    BOOLEAN = "boolean"
    DATE = "date"
    ERROR = "error"

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"CellKind.{self.name}"


def infer_cell_kind(value: Any) -> CellKind:
    """Classify an already-coerced Python value."""
    if value is None or value == "":
        return CellKind.EMPTY
    if isinstance(value, bool):
        return CellKind.BOOLEAN
    if isinstance(value, (int, float)):
        if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
            return CellKind.ERROR
        return CellKind.NUMBER
    if isinstance(value, (_dt.date, _dt.datetime)):
        return CellKind.DATE
    if isinstance(value, str):
        if value in ERROR_LITERALS:
            return CellKind.ERROR
        return CellKind.TEXT
    return CellKind.TEXT


def coerce_scalar(raw: Any) -> Any:
    """Coerce raw user input the way a spreadsheet entry bar does.

    Strings that look like numbers become numbers, ``TRUE``/``FALSE`` become
    booleans, ISO dates become :class:`datetime.date`; everything else stays
    text.  Non-string values pass through unchanged.
    """
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    if text == "":
        return None
    if text in _BOOL_LITERALS:
        return _BOOL_LITERALS[text]
    if _NUMBER_RE.match(text):
        number = float(text)
        if number.is_integer() and "e" not in text.lower() and "." not in text:
            return int(number)
        return number
    match = _DATE_RE.match(text)
    if match:
        try:
            return _dt.date(*(int(g) for g in match.groups()))
        except ValueError:
            return text
    return raw


@dataclass(slots=True)
class Cell:
    """One spreadsheet cell.

    Attributes
    ----------
    value:
        The current (computed, for formula cells) value.
    formula:
        The formula's AST (:class:`~repro.formula.nodes.FormulaNode`; bound
        when a workbook installed it), or ``None`` for plain-value cells.
    kind:
        Dynamic type of ``value``; kept in sync by :meth:`set_value`.
    region_id:
        Identifier of the display region (``DBTABLE``/``DBSQL`` spill) this
        cell belongs to, or ``None`` for free-form cells.  Used by the
        interface manager to route edits (paper §3, Interface Manager).
    meta:
        Free-form annotations; the dict is made on first use, since a
        sheet holds thousands of cells and almost none has any.
    """

    value: Any = None
    formula: Optional[Any] = None
    kind: CellKind = CellKind.EMPTY
    region_id: Optional[int] = None
    _meta: Optional[dict] = field(default=None, repr=False)

    @property
    def meta(self) -> dict:
        if self._meta is None:
            self._meta = {}
        return self._meta

    def __post_init__(self) -> None:
        if self.kind is CellKind.EMPTY and self.value is not None:
            self.kind = infer_cell_kind(self.value)

    # -- mutation --------------------------------------------------------

    def set_value(self, value: Any) -> None:
        """Set a computed/plain value, re-inferring the dynamic type."""
        self.value = value
        self.kind = infer_cell_kind(value)

    def set_input(self, raw: Any) -> None:
        """Apply raw user input: ``=...`` installs a formula, anything else
        is coerced and stored as a plain value."""
        if isinstance(raw, str) and raw.startswith("="):
            from repro.formula.parser import parse_formula  # cycle: formula imports core.address

            self.formula = parse_formula(raw[1:])
            # Value stays stale until the compute engine evaluates it.
        else:
            self.formula = None
            self.set_value(coerce_scalar(raw))

    def set_error(self, code: str) -> None:
        if code not in ERROR_LITERALS:
            code = "#VALUE!"
        self.value = code
        self.kind = CellKind.ERROR

    def clear(self) -> None:
        self.value = None
        self.formula = None
        self.kind = CellKind.EMPTY
        self.region_id = None
        self._meta = None

    # -- inspection --------------------------------------------------------

    @property
    def is_formula(self) -> bool:
        return self.formula is not None

    @property
    def is_empty(self) -> bool:
        return self.kind is CellKind.EMPTY and not self.is_formula

    def display(self) -> str:
        """The string a user would see in the grid."""
        if self.value is None:
            return ""
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, float) and self.value.is_integer():
            return str(int(self.value))
        return str(self.value)

    def copy(self) -> "Cell":
        return Cell(
            value=self.value,
            formula=self.formula,
            kind=self.kind,
            region_id=self.region_id,
            _meta=dict(self._meta) if self._meta else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_formula:
            return f"Cell(={self.formula.to_text()!r} -> {self.value!r})"
        return f"Cell({self.value!r})"
