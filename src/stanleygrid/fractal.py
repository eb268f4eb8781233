"""Self-similar structure of the grid.

The cells split into "halfZ" triples: an upper halfZ anchored at (a, b)
holds (3a, 2b), (3a, 2b+1), (3a+1, 2b); a lower one holds (3a+1, 2b+1),
(3a+2, 2b), (3a+2, 2b+1).  The three member strings of a halfZ agree
except in the last digit, and the shared prefix sits at a cell of the
grid itself: upper prefixes at (2a, b), lower at (2a+1, b).  Replacing
each halfZ by its prefix cell is therefore a zoom-out map under which the
grid is a fixed point, and iterating it nests the halfZs into arbitrarily
deep levels.  The block arithmetic behind both directions of that map is
owned by grid (_step steps down, _zoom steps up); descend and
zoom_coord here are one-line uses of it, and _row_values reads which rows
feed a row from _zoom.

Reading the grid along that nesting enumerates the canonical ternary
strings in counting order, one digit of (n)_3 per nesting level.  locate()
follows that nesting down to a string's coordinate in linear time; grid
collapses K levels into one step of a 3^K x 2^K block.  row_values_below
runs the same nesting on values, listing a row's base-3 values without
building its cells.  verify's fractal suite checks the two facts the
paper's column-0 argument rests on with locate and row_values_below:
decrementing a numeral drops its row by at most one, and cell (i, 0)
holds the smallest value of row i.  The first, the decrement lemma, it
also checks at every length, on grid's one-digit step: witness's
peculiar step relies on it.
"""

from __future__ import annotations

from typing import NamedTuple

from .grid import GridCoord, MalformedStringError, _check_ternary, _coord_of, _is_ternary, _step, _zoom, cell
from .radix import canonicalize


class WindowShapeError(ValueError):
    """A window cannot be zoomed because its shape is not 3r x 2c."""


class HalfZ(NamedTuple):
    """One halfZ triple: kind, anchor, nesting level, members, shared prefix."""

    kind: str                       # "upper" | "lower"
    anchor: tuple[int, int]
    level: int
    members: tuple[GridCoord, GridCoord, GridCoord]
    lcp: str

    @property
    def lcp_coord(self) -> GridCoord:
        return zoom_coord(*self.members[0])


def zoom_coord(i: int, j: int) -> GridCoord:
    """Coordinate of the shared-prefix cell of the level-0 halfZ holding (i, j)."""
    return GridCoord(*_zoom(i, j)[:2])


def descend(coord: GridCoord | tuple[int, int], d: int) -> GridCoord:
    """Inverse of zoom_coord: the d-th member of the halfZ whose prefix sits at coord.

    Appending digit d to the string at coord yields the string at the
    returned cell, which is how traversal and locate walk the nesting.
    """
    return GridCoord(*_step(*coord, d))


def halfz_of(i: int, j: int, level: int = 0) -> HalfZ:
    """The level-`level` halfZ containing cell (i, j).

    Zooming out `level` times maps the cell onto the grid again; the
    level-0 halfZ there describes the level-`level` one: its members are
    the prefix cells of the three level-(level-1) children.  Every cell
    reaches the origin, the only cell that zooms onto itself, within
    O(log(i + j)) zooms, so the walk stops there whatever `level` is.
    """
    if i < 0 or j < 0:
        raise ValueError(f"coordinates must be non-negative, got ({i}, {j})")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    p, q = i, j
    for _ in range(level):
        if p == q == 0:
            break
        p, q = zoom_coord(p, q)
    prefix = zoom_coord(p, q)        # upper prefixes sit on even rows, lower on odd
    members = tuple(descend(prefix, d) for d in range(3))
    return HalfZ(
        kind="upper" if prefix.row % 2 == 0 else "lower",
        anchor=(prefix.row // 2, prefix.col),
        level=level,
        members=members,  # type: ignore[arg-type]
        lcp=cell(*prefix),
    )


def zoom_out(window_cells: list[list[str]] | tuple[tuple[str, ...], ...]) -> list[list[str]]:
    """Collapse a 3r x 2c block of cells to the r x c grid of halfZ prefixes.

    Requires each halfZ in the block to be complete; the result equals the
    top-left r x c window of the grid itself (the fixed-point property).
    """
    rows = len(window_cells)
    cols = len(window_cells[0]) if rows else 0
    if rows == 0 or rows % 3 or cols == 0 or cols % 2:
        raise WindowShapeError(f"window is {rows} x {cols}, need 3r x 2c")
    if any(len(r) != cols for r in window_cells):
        raise WindowShapeError("ragged window")
    out = [[""] * (cols // 2) for _ in range(rows // 3 * 2)]
    for a in range(rows // 3):
        for b in range(cols // 2):
            upper = window_cells[3 * a][2 * b]
            lower = window_cells[3 * a + 2][2 * b]
            # prefix = member string minus its last digit, canonicalized
            out[2 * a][b] = canonicalize(upper[:-1])
            out[2 * a + 1][b] = canonicalize(lower[:-1])
    return out


def locate(w: str) -> GridCoord:
    """Coordinate of the canonical string w, by halfZ descent from the origin.

    Starting from the origin (whose halfZ chain is a fixed point), digit
    d picks the d-th member of the current cell's halfZ.  K levels of that
    nesting make one 3^K x 2^K block, so grid._coord_of descends K digits
    per step, the first block padded with leading zeros, which keep the
    origin; grid.cell is the inverse.
    """
    _check_ternary(w)
    return GridCoord(*_coord_of(w))


def ternary_successor(w: str) -> tuple[str, int]:
    """((n+1)_3 from (n)_3, carry depth = number of trailing 2s)."""
    if not _is_ternary(w):
        raise MalformedStringError(f"{w!r} is not a {{0,1,2}}-string")
    stripped = w.rstrip("2")
    depth = len(w) - len(stripped)
    if not stripped:
        return "1" + "0" * depth, depth
    bumped = stripped[:-1] + "12"[int(stripped[-1])]
    return canonicalize(bumped + "0" * depth), depth


def traversal(count: int) -> list[tuple[str, GridCoord]]:
    """First `count` cells of the halfZ nesting walk, as (string, coordinate).

    The walk is purely geometric and goes level by level: starting from
    the origin (whose halfZ chain is a fixed point), each level replaces
    every cell by the three members of the halfZ whose prefix sits there,
    until a level holds at least `count` cells.  For count >= 1 that is
    fewer than 3 * count cells, and exactly `count` when it is a power of
    3.  The strings read off the visited cells are the ternary numerals in
    counting order.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    cells = [GridCoord(0, 0)]
    while len(cells) < count:
        cells = [descend(c, d) for c in cells for d in range(3)]
    return [(cell(*c), c) for c in cells[:count]]


# ---------------------------------------------------------------------------
# row contents by value, without materializing cells

_Memo = dict[tuple[int, int], tuple[int, ...]]


def _row_values(row: int, length: int, memo: _Memo) -> tuple[int, ...]:
    """Sorted base-3 values of the length-`length` strings in grid row `row`.

    A string without its last digit d sits at its cell's prefix, which
    grid._zoom gives; only the column's parity moves the prefix row, so
    _zoom(row, 0) and _zoom(row, 1) are the two (prefix row, d) feeds of
    row `row`.  Running them forward builds the value sets without touching
    any cell; the length-1 strings are the digits fed from the origin's row 0.

    Two feeds would branch at every level without a memo; the caller's memo
    lives as long as that call.  A shorter string extends only if it is not
    "0" (that would create a leading zero), hence the `if v` filter.
    """
    key = (row, length)
    got = memo.get(key)
    if got is not None:
        return got
    feeds = _zoom(row, 0), _zoom(row, 1)
    if length == 1:
        vals = tuple(d for p, _, d in feeds if p == 0)
    else:
        vals = tuple(sorted([3 * v + d for p, _, d in feeds
                             for v in _row_values(p, length - 1, memo) if v]))
    memo[key] = vals
    return vals


def row_values_below(row: int, bound: int) -> list[int]:
    """Sorted base-3 values of row `row` cells that are < bound.

    Each length's values come sorted, and those of length L lie in
    [3^(L-1), 3^L) ("0" aside), so the lengths in turn list them in order.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if row < 0:
        raise ValueError(f"row must be >= 0, got {row}")
    memo: _Memo = {}
    out: list[int] = []
    length = 1
    # "0" is worth 0, so length 1 is always read; any other length-L string is worth >= 3^(L-1)
    while length == 1 or 3 ** (length - 1) < bound:
        out.extend(v for v in _row_values(row, length, memo) if v < bound)
        length += 1
    return out

