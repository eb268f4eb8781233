"""The infinite grid of {0,1,2}-strings.

Row 0 lists the zero-one strings in binary counting order; each later row
is obtained cell by cell from the row above via the base-3/2 add-2 rewrite.
Every canonical {0,1,2}-string appears in exactly one cell, and the base-3
values of row i are exactly the i-th greedy 3-free row.

The string <-> cell bijection runs through the halfZ nesting (see
fractal): each digit of a string picks one cell of a 3 x 2 block, so a
string reaches its cell in one step per digit, and zooming a cell out to
the origin reads its digits back.  This module owns that block numbering
(_coord_of steps down, _zoom steps up; fractal only calls them).  Both
directions take time linear in the string length and keep no state, so
the grid is the plain functions cell, row_of and window; the add-2 column
rule is not used here and stays an independent check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .radix import BASE_3_2, evaluate, is_canonical


class MalformedStringError(ValueError):
    """Input is not a canonical {0,1,2}-string."""


class GridCoord(NamedTuple):
    row: int
    col: int


def binary_string(j: int) -> str:
    """The j-th row-0 entry: j written in binary (j = 0 gives "0")."""
    if j < 0:
        raise ValueError(f"column index must be >= 0, got {j}")
    return format(j, "b")


def _check_ternary(w: str) -> None:
    if not w or any(ch not in "012" for ch in w):
        raise MalformedStringError(f"{w!r} is not a {{0,1,2}}-string")
    if not is_canonical(w):
        raise MalformedStringError(f"{w!r} has a leading zero")


def _coord_of(w: str, p: int = 0, q: int = 0) -> tuple[int, int]:
    """(row, col) reached from the prefix cell (p, q) by appending w, one digit per step.

    Number the six cells of the 3 x 2 block at (3a, 2b) row by row,
    k = 2 * (row % 3) + col % 2.  The upper halfZ anchored at (a, b) is
    k = 0, 1, 2 with its prefix at (2a, b); the lower one is k = 3, 4, 5
    with its prefix at (2a + 1, b).  So from prefix cell (p, q), digit d
    leads to cell k = 3 * (p % 2) + d of the block at (3 * (p // 2), 2q).
    The origin is its own prefix, so a whole string walks from there.
    """
    for ch in w:
        r, c = divmod(3 * (p & 1) + int(ch), 2)
        p = 3 * (p >> 1) + r
        q = 2 * q + c
    return p, q


def _zoom(i: int, j: int) -> tuple[int, int, int]:
    """Inverse of one _coord_of step: (prefix row, prefix col, last digit) of cell (i, j).

    Cell (i, j) is block cell k = 2 * (i % 3) + j % 2, its digit is k % 3,
    and its halfZ's prefix sits at (2 * (i // 3) + k // 3, j // 2).
    """
    a, r = divmod(i, 3)
    k = 2 * r + (j & 1)
    return 2 * a + k // 3, j >> 1, k % 3


def _string_at(i: int, j: int) -> str:
    """Inverse of _coord_of: the string in cell (i, j), for i, j >= 0.

    Zooms out to the origin, reading one digit per level.
    """
    digits = []
    while i or j:
        i, j, d = _zoom(i, j)
        digits.append("012"[d])
    return "".join(reversed(digits)) or "0"


def cell(i: int, j: int) -> str:
    """The string in cell (i, j), read digit by digit through the halfZ zoom."""
    if i < 0:
        raise ValueError(f"row index must be >= 0, got {i}")
    if j < 0:
        raise ValueError(f"column index must be >= 0, got {j}")
    return _string_at(i, j)


def main_suffix(w: str) -> str:
    """Suffix of w starting at its leftmost 2; "" when w has no 2.

    The main suffix determines the row: prepending any {0,1}-string to a
    cell's content leaves its row unchanged.
    """
    i = w.find("2")
    return "" if i < 0 else w[i:]


def row_of(w: str) -> int:
    """Row index of the unique cell containing the canonical string w.

    One halfZ descent step per digit, so linear in len(w).
    """
    _check_ternary(w)
    return _coord_of(w)[0]


def value_fraction(w: str) -> Fraction:
    """Exact base-3/2 value of a grid string."""
    _check_ternary(w)
    return evaluate(w, BASE_3_2)


@dataclass(frozen=True)
class GridWindow:
    """A finite top-left window of the grid."""

    rows: int
    cols: int
    cells: tuple[tuple[str, ...], ...]

    def to_csv(self) -> str:
        return "\n".join(",".join(r) for r in self.cells) + "\n"

    def to_json(self) -> str:
        return json.dumps([list(r) for r in self.cells], separators=(",", ":"))

    def to_text(self) -> str:
        widths = [max(len(self.cells[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        lines = []
        for r in self.cells:
            lines.append("  ".join(s.rjust(widths[j]) for j, s in enumerate(r)))
        return "\n".join(lines) + "\n"


def window(rows: int, cols: int) -> GridWindow:
    """Materialize the rows x cols top-left window."""
    if rows < 1 or cols < 1:
        raise ValueError("window must have at least one row and one column")
    return GridWindow(
        rows=rows,
        cols=cols,
        cells=tuple(tuple(cell(i, j) for j in range(cols)) for i in range(rows)),
    )
