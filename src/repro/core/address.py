"""Positional addressing: A1-style cell and range references.

The paper (§2.2, *Make Databases Interface Aware*) builds on positional
addressing — "an intuitive and effective way to refer to presented data".
This module is the single source of truth for spreadsheet coordinates used
everywhere else: by the formula language, by ``RANGEVALUE``/``RANGETABLE``
rewriting, by the interface storage manager and by the sync layer.

Coordinates are **0-based** internally (row 0 is the A1 row ``1``); the A1
rendering is 1-based, matching what a spreadsheet user sees.  Both absolute
(``$A$1``) and relative references are supported, along with relative
offsetting, which is what lets formulas be copied across cells while
"maintaining the relative references" (paper §2.2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Tuple

from repro.errors import AddressError

__all__ = [
    "MAX_ROWS",
    "MAX_COLS",
    "column_label",
    "column_index",
    "CellAddress",
    "RangeAddress",
    "KeyAddress",
    "KeyRange",
    "parse_reference",
]

#: Hard bounds, matching modern spreadsheet limits closely enough for tests.
MAX_ROWS = 2 ** 31
MAX_COLS = 2 ** 20

_CELL_RE = re.compile(
    r"^(?:(?P<sheet>(?:'[^']+')|(?:[A-Za-z_][A-Za-z0-9_]*))!)?"
    r"(?P<cabs>\$?)(?P<col>[A-Za-z]{1,7})(?P<rabs>\$?)(?P<row>[0-9]+)$"
)

_RANGE_SPLIT_RE = re.compile(r":(?![^']*'!)")


def column_label(index: int) -> str:
    """Convert a 0-based column index to its spreadsheet letters.

    >>> column_label(0)
    'A'
    >>> column_label(27)
    'AB'
    """
    if index < 0:
        raise AddressError(f"column index must be >= 0, got {index}")
    label = []
    index += 1  # bijective base-26
    while index > 0:
        index, rem = divmod(index - 1, 26)
        label.append(chr(ord("A") + rem))
    return "".join(reversed(label))


def column_index(label: str) -> int:
    """Convert spreadsheet column letters to a 0-based index.

    >>> column_index('A')
    0
    >>> column_index('AB')
    27
    """
    if not label or not label.isalpha():
        raise AddressError(f"invalid column label {label!r}")
    index = 0
    for ch in label.upper():
        index = index * 26 + (ord(ch) - ord("A") + 1)
    return index - 1


def _strip_sheet_quotes(sheet: Optional[str]) -> Optional[str]:
    if sheet and sheet.startswith("'") and sheet.endswith("'"):
        return sheet[1:-1]
    return sheet


@dataclass(frozen=True, order=True)
class CellAddress:
    """A single cell reference: ``(row, col)`` plus optional sheet name and
    absolute flags.

    Ordering is row-major, which gives the natural top-to-bottom,
    left-to-right reading order used by range iteration and by the interface
    storage manager's proximity blocking.
    """

    row: int
    col: int
    sheet: Optional[str] = None
    row_absolute: bool = False
    col_absolute: bool = False

    def __post_init__(self) -> None:
        if self.row < 0 or self.row >= MAX_ROWS:
            raise AddressError(f"row {self.row} out of bounds")
        if self.col < 0 or self.col >= MAX_COLS:
            raise AddressError(f"col {self.col} out of bounds")

    # -- construction -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "CellAddress":
        """Parse an A1-style reference such as ``B3``, ``$C$7`` or
        ``Sheet2!A1``."""
        match = _CELL_RE.match(text.strip())
        if not match:
            raise AddressError(f"invalid cell reference {text!r}")
        return cls(
            row=int(match.group("row")) - 1,
            col=column_index(match.group("col")),
            sheet=_strip_sheet_quotes(match.group("sheet")),
            row_absolute=match.group("rabs") == "$",
            col_absolute=match.group("cabs") == "$",
        )

    # -- rendering -----------------------------------------------------

    def to_a1(self, include_sheet: bool = True) -> str:
        """Render back to A1 notation, preserving ``$`` flags."""
        col_part = ("$" if self.col_absolute else "") + column_label(self.col)
        row_part = ("$" if self.row_absolute else "") + str(self.row + 1)
        body = col_part + row_part
        if include_sheet and self.sheet is not None:
            sheet = self.sheet
            if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", sheet):
                sheet = f"'{sheet}'"
            return f"{sheet}!{body}"
        return body

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_a1()

    # -- arithmetic ------------------------------------------------------

    def offset(self, d_row: int, d_col: int) -> "CellAddress":
        """Shift by a relative delta, respecting absolute flags.

        This implements relative-reference copying: an absolute coordinate
        does not move, a relative one does.  Raises :class:`AddressError` if
        the shift would leave the sheet (the spreadsheet ``#REF!`` case).
        """
        new_row = self.row if self.row_absolute else self.row + d_row
        new_col = self.col if self.col_absolute else self.col + d_col
        if new_row < 0 or new_col < 0:
            raise AddressError(
                f"offset of {self.to_a1()} by ({d_row},{d_col}) leaves the sheet"
            )
        return replace(self, row=new_row, col=new_col)

    def translate(self, d_row: int, d_col: int) -> "CellAddress":
        """Shift unconditionally (ignores the absolute flags).  Used when a
        whole region moves, e.g. a ``DBTABLE`` re-anchoring."""
        new_row = self.row + d_row
        new_col = self.col + d_col
        if new_row < 0 or new_col < 0:
            raise AddressError(
                f"translate of {self.to_a1()} by ({d_row},{d_col}) leaves the sheet"
            )
        return replace(self, row=new_row, col=new_col)

    def with_sheet(self, sheet: Optional[str]) -> "CellAddress":
        return replace(self, sheet=sheet)

    def anchor(self) -> Tuple[int, int]:
        """The bare coordinate pair, dropping sheet and flags."""
        return (self.row, self.col)


@dataclass(frozen=True)
class RangeAddress:
    """A rectangular range, normalised so ``start`` is top-left and ``end``
    bottom-right (inclusive on both ends, like A1 ranges)."""

    start: CellAddress
    end: CellAddress

    def __post_init__(self) -> None:
        if self.start.sheet != self.end.sheet and self.end.sheet is not None:
            raise AddressError("range endpoints must be on the same sheet")
        if self.start.row > self.end.row or self.start.col > self.end.col:
            # Normalise: spreadsheet users may type D10:A1.
            top = min(self.start.row, self.end.row)
            left = min(self.start.col, self.end.col)
            bottom = max(self.start.row, self.end.row)
            right = max(self.start.col, self.end.col)
            object.__setattr__(self, "start", replace(self.start, row=top, col=left))
            object.__setattr__(self, "end", replace(self.end, row=bottom, col=right))

    # -- construction -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "RangeAddress":
        """Parse ``A1:D100``, ``Sheet2!A1:B2`` or a single cell ``B3`` (a
        1x1 range)."""
        text = text.strip()
        if ":" in text:
            left_text, right_text = text.split(":", 1)
            start = CellAddress.parse(left_text)
            end = CellAddress.parse(right_text)
            if end.sheet is None and start.sheet is not None:
                end = end.with_sheet(start.sheet)
            return cls(start, end)
        cell = CellAddress.parse(text)
        return cls(cell, cell)

    @classmethod
    def from_dimensions(
        cls,
        top: int,
        left: int,
        n_rows: int,
        n_cols: int,
        sheet: Optional[str] = None,
    ) -> "RangeAddress":
        if n_rows <= 0 or n_cols <= 0:
            raise AddressError("range dimensions must be positive")
        return cls(
            CellAddress(top, left, sheet=sheet),
            CellAddress(top + n_rows - 1, left + n_cols - 1, sheet=sheet),
        )

    # -- geometry ------------------------------------------------------

    @property
    def sheet(self) -> Optional[str]:
        return self.start.sheet

    @property
    def n_rows(self) -> int:
        return self.end.row - self.start.row + 1

    @property
    def n_cols(self) -> int:
        return self.end.col - self.start.col + 1

    @property
    def size(self) -> int:
        return self.n_rows * self.n_cols

    def is_single_cell(self) -> bool:
        return self.size == 1

    def contains(self, address: CellAddress) -> bool:
        if self.sheet is not None and address.sheet is not None and address.sheet != self.sheet:
            return False
        return (
            self.start.row <= address.row <= self.end.row
            and self.start.col <= address.col <= self.end.col
        )

    def contains_range(self, other: "RangeAddress") -> bool:
        return self.contains(other.start) and self.contains(other.end)

    def intersects(self, other: "RangeAddress") -> bool:
        if (
            self.sheet is not None
            and other.sheet is not None
            and self.sheet != other.sheet
        ):
            return False
        return not (
            other.start.row > self.end.row
            or other.end.row < self.start.row
            or other.start.col > self.end.col
            or other.end.col < self.start.col
        )

    def intersection(self, other: "RangeAddress") -> Optional["RangeAddress"]:
        if not self.intersects(other):
            return None
        top = max(self.start.row, other.start.row)
        left = max(self.start.col, other.start.col)
        bottom = min(self.end.row, other.end.row)
        right = min(self.end.col, other.end.col)
        return RangeAddress(
            CellAddress(top, left, sheet=self.sheet),
            CellAddress(bottom, right, sheet=self.sheet),
        )

    def union_bounding_box(self, other: "RangeAddress") -> "RangeAddress":
        top = min(self.start.row, other.start.row)
        left = min(self.start.col, other.start.col)
        bottom = max(self.end.row, other.end.row)
        right = max(self.end.col, other.end.col)
        return RangeAddress(
            CellAddress(top, left, sheet=self.sheet),
            CellAddress(bottom, right, sheet=self.sheet),
        )

    def expand(self, d_rows: int, d_cols: int) -> "RangeAddress":
        """Grow (or shrink, with negative deltas) the bottom-right corner."""
        return RangeAddress(
            self.start,
            replace(self.end, row=self.end.row + d_rows, col=self.end.col + d_cols),
        )

    def translate(self, d_row: int, d_col: int) -> "RangeAddress":
        return RangeAddress(
            self.start.translate(d_row, d_col), self.end.translate(d_row, d_col)
        )

    # -- iteration -----------------------------------------------------

    def cells(self) -> Iterator[CellAddress]:
        """All member cells in row-major order."""
        sheet = self.sheet
        for row in range(self.start.row, self.end.row + 1):
            for col in range(self.start.col, self.end.col + 1):
                yield CellAddress(row, col, sheet=sheet)

    def rows(self) -> Iterator["RangeAddress"]:
        """Each row of the range as its own 1×n_cols range."""
        for row in range(self.start.row, self.end.row + 1):
            yield RangeAddress(
                CellAddress(row, self.start.col, sheet=self.sheet),
                CellAddress(row, self.end.col, sheet=self.sheet),
            )

    def columns(self) -> Iterator["RangeAddress"]:
        for col in range(self.start.col, self.end.col + 1):
            yield RangeAddress(
                CellAddress(self.start.row, col, sheet=self.sheet),
                CellAddress(self.end.row, col, sheet=self.sheet),
            )

    def cell_at(self, row_offset: int, col_offset: int) -> CellAddress:
        """Cell at a 0-based offset from the range's top-left corner."""
        if not (0 <= row_offset < self.n_rows and 0 <= col_offset < self.n_cols):
            raise AddressError(
                f"offset ({row_offset},{col_offset}) outside {self.to_a1()}"
            )
        return CellAddress(
            self.start.row + row_offset, self.start.col + col_offset, sheet=self.sheet
        )

    # -- rendering -----------------------------------------------------

    def to_a1(self, include_sheet: bool = True) -> str:
        if self.is_single_cell():
            return self.start.to_a1(include_sheet)
        start = self.start.to_a1(include_sheet)
        end = self.end.to_a1(include_sheet=False)
        return f"{start}:{end}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_a1()

    def __iter__(self) -> Iterator[CellAddress]:
        return self.cells()


class KeyAddress(CellAddress):
    """A reference bound to a spliced sheet: ``row``/``col`` are the
    positional mapper's stable keys, not positions.  Keys are neither
    bounded by the A1 limits nor ordered like the positions they map to,
    so nothing is validated; the sheet name and ``$`` flags ride along for
    rendering.  Only the workbook makes these (``Workbook._install``)."""

    def __post_init__(self) -> None:
        pass


class KeyRange(RangeAddress):
    """A range as a pair of bound corners.  Its rows and columns are
    whatever the mapper currently places between the corner keys, so the
    range grows, shrinks and moves with structural edits; the corners are
    not normalised because key order is not position order."""

    def __post_init__(self) -> None:
        pass


def parse_reference(text: str):
    """Parse either a cell or a range; returns :class:`CellAddress` or
    :class:`RangeAddress` accordingly."""
    text = text.strip()
    if ":" in text:
        return RangeAddress.parse(text)
    return CellAddress.parse(text)
