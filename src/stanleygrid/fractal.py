"""Self-similar structure of the grid.

The cells split into "halfZ" triples: an upper halfZ anchored at (a, b)
holds (3a, 2b), (3a, 2b+1), (3a+1, 2b); a lower one holds (3a+1, 2b+1),
(3a+2, 2b), (3a+2, 2b+1).  The three member strings of a halfZ agree
except in the last digit, and the shared prefix sits at a cell of the
grid itself: upper prefixes at (2a, b), lower at (2a+1, b).  Replacing
each halfZ by its prefix cell is therefore a zoom-out map under which the
grid is a fixed point, and iterating it nests the halfZs into arbitrarily
deep levels.  The block arithmetic behind both directions of that map is
owned by grid (_coord_of steps down, _zoom steps up); descend and
zoom_coord here are one-line uses of it.

Reading the grid along that nesting enumerates the canonical ternary
strings in counting order, one digit of (n)_3 per nesting level, which is
what locate() exploits to find a string's coordinate in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import GridCoord, MalformedStringError, _check_ternary, _coord_of, _is_ternary, _zoom, cell
from .radix import canonicalize


class WindowShapeError(ValueError):
    """A window cannot be zoomed because its shape is not 3r x 2c."""


@dataclass(frozen=True)
class HalfZ:
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
    return GridCoord(*_coord_of("012"[d], *coord))


def halfz_of(i: int, j: int, level: int = 0) -> HalfZ:
    """The level-`level` halfZ containing cell (i, j).

    Zooming out `level` times maps the cell onto the grid again; the
    level-0 halfZ there describes the level-`level` one: its members are
    the prefix cells of the three level-(level-1) children.
    """
    if i < 0 or j < 0:
        raise ValueError(f"coordinates must be non-negative, got ({i}, {j})")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    p, q = i, j
    for _ in range(level):
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
    """Coordinate of the canonical string w, one halfZ descent step per digit.

    Starting from the origin (whose halfZ chain is a fixed point), digit
    d picks the d-th member of the current cell's halfZ; grid.cell is the
    inverse.
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

    The walk is purely geometric: expand the level-m origin halfZ (m just
    large enough that 3^(m+1) >= count) member by member, recursing into
    each child's triple.  The strings read off the visited cells are the
    ternary numerals in counting order.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return []
    m = 0
    while 3 ** (m + 1) < count:
        m += 1
    out: list[tuple[str, GridCoord]] = []
    _walk(m, GridCoord(0, 0), count, out)
    return out


def _walk(level: int, coord: GridCoord, count: int, out: list[tuple[str, GridCoord]]) -> None:
    """Append the cells of the level-`level` halfZ at `coord` to `out`, up to `count` in all."""
    if len(out) >= count:
        return
    for d in range(3):
        child = descend(coord, d)
        if level == 0:
            if len(out) < count:
                out.append((cell(*child), child))
        else:
            _walk(level - 1, child, count, out)


# ---------------------------------------------------------------------------
# row contents by value, without materializing cells

_Memo = dict[tuple[int, int], tuple[int, ...]]


def _row_values(row: int, length: int, memo: _Memo) -> tuple[int, ...]:
    """Sorted base-3 values of the length-`length` strings in grid row `row`.

    Stripping the last digit maps row 3a into row 2a (digits 0/1), row
    3a+1 into row 2a (digit 2) or 2a+1 (digit 0), and row 3a+2 into row
    2a+1 (digits 1/2); running that recursion forward builds the value
    sets without touching any cell.

    Row 3a+1 draws on two rows one digit shorter, so without a memo the
    recursion would branch at every level; the caller's memo lives as long
    as that call.  A shorter string extends only if it is not "0" (that
    would create a leading zero), the one string worth 0, hence the `if v`
    filters.
    """
    if row < 0 or length < 1:
        return ()
    key = (row, length)
    got = memo.get(key)
    if got is not None:
        return got
    if length == 1:
        vals = (0, 1) if row == 0 else ((2,) if row == 1 else ())
    else:
        a, r = divmod(row, 3)
        if r == 0:
            base = _row_values(2 * a, length - 1, memo)
            vals = tuple(sorted(3 * v + d for v in base if v for d in (0, 1)))
        elif r == 1:
            hi = _row_values(2 * a, length - 1, memo)
            lo = _row_values(2 * a + 1, length - 1, memo)
            vals = tuple(sorted([3 * v + 2 for v in hi if v] + [3 * v for v in lo if v]))
        else:
            base = _row_values(2 * a + 1, length - 1, memo)
            vals = tuple(sorted(3 * v + d for v in base if v for d in (1, 2)))
    memo[key] = vals
    return vals


def row_values_below(row: int, bound: int) -> list[int]:
    """Sorted base-3 values of row `row` cells that are < bound."""
    memo: _Memo = {}
    out: list[int] = []
    length = 1
    # "0" is worth 0, so length 1 is always read; any other length-L string is worth >= 3^(L-1)
    while length == 1 or 3 ** (length - 1) < bound:
        out.extend(v for v in _row_values(row, length, memo) if v < bound)
        length += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# structural checks

@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    checked: int
    counterexample: dict | None = None


def check_minus1(limit: int) -> CheckReport:
    """Decrementing a base-3 numeral drops its grid row by at most one.

    Checks row_of((v-1)_3) >= row_of((v)_3) - 1 for 1 <= v < limit,
    rows taken from the descent map.
    """
    prev = "0"
    prev_row = 0
    checked = 0
    for v in range(1, limit):
        cur, _ = ternary_successor(prev)
        cur_row = locate(cur).row
        checked += 1
        if prev_row < cur_row - 1:
            return CheckReport(
                name="minus1",
                passed=False,
                checked=checked,
                counterexample={"v": v, "row_v": cur_row, "row_v_minus_1": prev_row},
            )
        prev, prev_row = cur, cur_row
    return CheckReport(name="minus1", passed=True, checked=checked)


def check_zero_column(rows: int) -> CheckReport:
    """Column 0 is strictly increasing in base-3 value and minimal in its row.

    Minimality: the values of row i up to the column entry's value v must
    start with v itself.
    """
    prev_val = -1
    checked = 0
    for i in range(rows):
        v = int(cell(i, 0), 3)
        checked += 1
        if v <= prev_val:
            return CheckReport(
                name="zero_column",
                passed=False,
                checked=checked,
                counterexample={"row": i, "value": v, "prev": prev_val, "reason": "not increasing"},
            )
        below = row_values_below(i, v + 1)
        if below[:1] != [v]:
            return CheckReport(
                name="zero_column",
                passed=False,
                checked=checked,
                counterexample={"row": i, "value": v, "row_min": below[0] if below else None,
                                "reason": "not minimal"},
            )
        prev_val = v
    return CheckReport(name="zero_column", passed=True, checked=checked)
