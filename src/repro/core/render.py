"""ASCII rendering of sheet windows.

The paper's front-end is Excel; ours is programmatic, and this module is
the human-facing view: render any viewport of a sheet as a fixed-width
grid, with row numbers and column letters, the way the screenshots in
Figure 2 look.  Used by the CLI (:mod:`repro.cli`) and handy in tests and
notebooks.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.address import CellAddress, RangeAddress, column_label
from repro.core.workbook import Workbook

__all__ = ["render_window", "render_range"]

_MAX_WIDTH = 14


def _clip(text: str, width: int) -> str:
    if len(text) <= width:
        return text.rjust(width)
    return text[: width - 1] + "…"


def render_window(
    workbook: Workbook,
    sheet_name: str,
    top: int = 0,
    left: int = 0,
    n_rows: int = 10,
    n_cols: int = 6,
    col_width: Optional[int] = None,
) -> str:
    """Render a rectangular window of a sheet as an ASCII grid."""
    sheet = workbook.sheet(sheet_name)
    grid: List[List[str]] = []
    for row in range(top, top + n_rows):
        rendered_row = []
        for col in range(left, left + n_cols):
            workbook.get(sheet_name, CellAddress(row, col))  # ensure fresh
            cell = sheet.cell_at(row, col)
            rendered_row.append(cell.display() if cell is not None else "")
        grid.append(rendered_row)

    width = col_width or min(
        max([6] + [len(value) for row in grid for value in row]), _MAX_WIDTH
    )
    row_label_width = len(str(top + n_rows))
    header = " " * (row_label_width + 1) + " ".join(
        column_label(left + c).center(width) for c in range(n_cols)
    )
    separator = " " * (row_label_width + 1) + " ".join("-" * width for _ in range(n_cols))
    lines = [header, separator]
    for offset, rendered_row in enumerate(grid):
        label = str(top + offset + 1).rjust(row_label_width)
        lines.append(
            label + " " + " ".join(_clip(value, width) for value in rendered_row)
        )
    return "\n".join(lines)


def render_range(workbook: Workbook, sheet_name: str, ref: str, **kwargs) -> str:
    """Render an A1-style range (``"A1:D10"``)."""
    reference = RangeAddress.parse(ref)
    return render_window(
        workbook,
        sheet_name,
        top=reference.start.row,
        left=reference.start.col,
        n_rows=reference.n_rows,
        n_cols=reference.n_cols,
        **kwargs,
    )
