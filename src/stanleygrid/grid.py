"""The infinite grid of {0,1,2}-strings.

Row 0 lists the zero-one strings in binary counting order; each later row
is obtained cell by cell from the row above via the base-3/2 add-2 rewrite.
Every canonical {0,1,2}-string appears in exactly one cell, and the base-3
values of row i are exactly the i-th greedy 3-free row.

The string <-> cell bijection runs through the halfZ nesting (see
fractal): each digit of a string picks one cell of a 3 x 2 block, and
zooming a cell out to the origin reads its digits back.  Since zooming
out maps the grid onto itself, m digits pick one cell of a 3^m x 2^m
block.  So a walk down reads K digits per step through _DOWN, the first
block padded with leading zeros, which keep the origin, and cell zooms
out K levels per step through _UP, which is _DOWN read backwards.  This
module owns that block numbering: _step, the one-digit step, is its only
definition; both tables are built from it at import, and _zoom is its
inverse.  fractal's halfZs and row values only call them.
Both directions take time linear in the string length and keep no state,
so the grid is the plain functions cell, row_of and window; the add-2
column rule is not used here and stays an independent check.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple


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


def _is_ternary(w: str) -> bool:
    """w is a non-empty {0,1,2}-string (strip stops at the first other character)."""
    return bool(w) and not w.strip("012")


_CANONICAL = re.compile("0|[12][012]*")


def _check_ternary(w: str) -> None:
    """Raise MalformedStringError unless w is a canonical {0,1,2}-string.

    One match decides; a string that fails it is looked at again only to
    say which rule it breaks.
    """
    if _CANONICAL.fullmatch(w):
        return
    if not _is_ternary(w):
        raise MalformedStringError(f"{w!r} is not a {{0,1,2}}-string")
    raise MalformedStringError(f"{w!r} has a leading zero")


K = 3                  # levels per table step: 3^K x 2^K blocks
_ROWS = 3**K
_COL_MASK = 2**K - 1


def _step(p: int, q: int, d: int) -> tuple[int, int]:
    """The cell that digit d, appended to the string at prefix cell (p, q), leads to.

    Number the six cells of the 3 x 2 block at (3a, 2b) row by row,
    k = 2 * (row % 3) + col % 2.  The upper halfZ anchored at (a, b) is
    k = 0, 1, 2 with its prefix at (2a, b); the lower one is k = 3, 4, 5
    with its prefix at (2a + 1, b).  So from prefix cell (p, q), digit d
    leads to cell k = 3 * (p % 2) + d of the block at (3 * (p // 2), 2q).
    """
    r, c = divmod(3 * (p & 1) + d, 2)
    return 3 * (p >> 1) + r, 2 * q + c


def _coord_of(w: str) -> tuple[int, int]:
    """(row, col) of the string w: where one _step per digit leads from the origin.

    w is padded with leading zeros to whole K-digit blocks (they keep the
    origin, as _step(0, 0, 0) is (0, 0)), and each block takes one _DOWN step.
    """
    w = "0" * (-len(w) % K) + w
    p = q = 0
    for i in range(0, len(w), K):
        r, c = _DOWN[p & _COL_MASK][w[i:i + K]]
        p = _ROWS * (p >> K) + r
        q = (q << K) + c
    return p, q


def _zoom(i: int, j: int) -> tuple[int, int, int]:
    """Inverse of _step: (prefix row, prefix col, last digit) of cell (i, j).

    Cell (i, j) is block cell k = 2 * (i % 3) + j % 2, its digit is k % 3,
    and its halfZ's prefix sits at (2 * (i // 3) + k // 3, j // 2).
    """
    a, r = divmod(i, 3)
    k = 2 * r + (j & 1)
    return 2 * a + k // 3, j >> 1, k % 3


def _walks(p: int) -> dict[str, tuple[int, int]]:
    """Each K-digit string -> the cell (L, B) it leads to from prefix cell (p, 0).

    Walks the strings as a tree, one _step per digit.
    """
    ends = {"": (p, 0)}
    for _ in range(K):
        ends = {w + "012"[d]: _step(*end, d) for w, end in ends.items() for d in range(3)}
    return ends


# _DOWN[p % 2^K][K digits] = (L, B): appending the digits to any prefix cell
# (p, q) leads to (3^K * (p >> K) + L, 2^K * q + B), for every p >= 0, not
# only p < 2^K, so _coord_of can chain the steps.  By induction on the
# steps: after t < K of them the row is 3^t * 2^(K-t) * (p >> K) plus the
# row the walk from (p % 2^K, 0) has reached, so it has that walk's parity,
# and the next step, p -> 3 * (p >> 1) + r, keeps the form with t+1.  The
# column doubles each step whatever the row, plus a bit that depends only
# on the row's parity and the digit.
_DOWN = tuple(map(_walks, range(2**K)))


def _inverse(down: tuple[dict[str, tuple[int, int]], ...]) -> tuple[tuple[tuple[int, str], ...], ...]:
    """up[L][B] = (F, digits) wherever down[F][digits] = (L, B)."""
    up = [[(0, "")] * 2**K for _ in range(_ROWS)]
    for f, ends in enumerate(down):
        for digits, (r, c) in ends.items():
            up[r][c] = f, digits
    return tuple(map(tuple, up))


# _UP[i % 3^K][j % 2^K] = (F, digits): zooming cell (i, j) out K levels
# leads to (2^K * (i // 3^K) + F, j >> K) and reads `digits`.  It is _DOWN
# read backwards, so it holds for every (i, j) by the same induction.
_UP = _inverse(_DOWN)


def cell(i: int, j: int) -> str:
    """The string in cell (i, j): the inverse of _coord_of.

    Zooms out to the origin K levels per step through _UP, reading K
    digits each time.  The origin zooms onto itself with digit 0, so the
    digits the last step reads past the origin are leading zeros; they are
    stripped, which is safe because no cell but the origin holds a string
    that starts with 0.
    """
    if i < 0:
        raise ValueError(f"row index must be >= 0, got {i}")
    if j < 0:
        raise ValueError(f"column index must be >= 0, got {j}")
    chunks = []
    while i or j:
        a, r = divmod(i, _ROWS)
        f, digits = _UP[r][j & _COL_MASK]
        i = (a << K) + f
        j >>= K
        chunks.append(digits)
    return "".join(reversed(chunks)).lstrip("0") or "0"


def main_suffix(w: str) -> str:
    """Suffix of w starting at its leftmost 2; "" when w has no 2.

    The main suffix determines the row: prepending any {0,1}-string to a
    cell's content leaves its row unchanged.
    """
    i = w.find("2")
    return "" if i < 0 else w[i:]


def row_of(w: str) -> int:
    """Row index of the unique cell containing the canonical string w.

    One block descent step per K digits (see _coord_of), so linear in len(w).
    """
    _check_ternary(w)
    return _coord_of(w)[0]


class GridWindow(NamedTuple):
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
