"""Draw the nested halfZ structure over a grid window (SVG or ASCII).

Level 0 connects the three cells of each halfZ; level m connects the
centroids of its three level-(m-1) children.  Only halfZs lying entirely
inside the requested window are drawn, so the picture never shows dangling
segments.
"""

from __future__ import annotations

from collections.abc import Iterator

from .fractal import descend
from .grid import GridCoord, cell

LEVEL_COLORS = ["#000000", "#cc2222", "#1a9922", "#ee8800", "#7733cc", "#886633"]


def _enumerate_halfzs(level: int, rows: int, cols: int) -> list[GridCoord]:
    """Prefix coordinates of all level-`level` halfZs fully inside rows x cols.

    A child's row grows with its parent's row and with its digit, so digit 2
    at every step reaches a halfZ's deepest row; every cell (p, q) has a
    child in column 2q + 1, so the last column, (q + 1) * 2^(level+1) - 1, is
    below cols iff q < cols >> (level + 1).  A level-(m+1) halfZ is three
    level-m ones: once empty, the list stays empty at every deeper level.
    """
    out = []
    for p in range(rows):
        deepest = GridCoord(p, 0)
        for _ in range(level + 1):
            deepest = descend(deepest, 2)
        if deepest.row >= rows:
            break                       # and for every larger p
        out += [GridCoord(p, q) for q in range(cols >> (level + 1))]
    return out


def _center(coord: GridCoord, level: int) -> tuple[float, float]:
    """Centroid in (row, col) units of the level-`level` halfZ with prefix cell coord.

    At level -1 that is the cell coord itself.
    """
    cs = [coord]
    for _ in range(level + 1):
        cs = [descend(c, d) for c in cs for d in range(3)]
    return (sum(c.row for c in cs) / len(cs), sum(c.col for c in cs) / len(cs))


def _segment_points(coord: GridCoord, level: int) -> list[tuple[float, float]]:
    """The three points a level-`level` halfZ's two segments connect: its children's centroids."""
    return [_center(descend(coord, d), level - 1) for d in range(3)]


def _check_size(levels: int, rows: int, cols: int) -> None:
    if levels < 1 or rows < 1 or cols < 1:
        raise ValueError("levels, rows and cols must all be >= 1")


def _drawn(levels: int, rows: int, cols: int) -> Iterator[tuple[int, list[tuple[float, float]]]]:
    """(m, its segments' three points) for each level-m halfZ inside the window, m < levels."""
    for m in range(levels):
        coords = _enumerate_halfzs(m, rows, cols)
        if not coords:
            return
        for coord in coords:
            yield m, _segment_points(coord, m)


def render_svg(levels: int, rows: int, cols: int) -> str:
    """SVG drawing: one dot per cell, polylines for levels 0 .. levels-1."""
    _check_size(levels, rows, cols)
    step, margin = 36, 24
    width = margin * 2 + (cols - 1) * step
    height = margin * 2 + (rows - 1) * step

    def xy(r: float, c: float) -> tuple[float, float]:
        return margin + c * step, margin + r * step

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for m, pts in _drawn(levels, rows, cols):
        color = LEVEL_COLORS[m % len(LEVEL_COLORS)]
        stroke = 1.2 + 0.7 * m
        path = " ".join("{:.2f},{:.2f}".format(*xy(r, c)) for r, c in pts)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke:.1f}" stroke-linecap="round"/>'
        )
    for i in range(rows):
        for j in range(cols):
            x, y = xy(i, j)
            s = cell(i, j)
            parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#333"><title>{s}</title></circle>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_ascii(levels: int, rows: int, cols: int) -> str:
    """Character rendering: 'o' per cell, '-'/'/'/'\\' for level 0, digits above."""
    _check_size(levels, rows, cols)
    H, W = (rows - 1) * 2 + 1, (cols - 1) * 4 + 1
    canvas = [[" "] * W for _ in range(H)]

    def plot(rr: int, cc: int, ch: str) -> None:
        if 0 <= rr < H and 0 <= cc < W and canvas[rr][cc] != "o":
            canvas[rr][cc] = ch

    def line(r1: float, c1: float, r2: float, c2: float, ch: str | None) -> None:
        y1, x1 = r1 * 2, c1 * 4
        y2, x2 = r2 * 2, c2 * 4
        steps = max(abs(y2 - y1), abs(x2 - x1))
        n = max(int(round(steps)), 1)
        if ch is None:
            if abs(y2 - y1) < 1e-9:
                ch = "-"
            elif abs(x2 - x1) < 1e-9:
                ch = "|"
            elif (y2 - y1) * (x2 - x1) > 0:
                ch = "\\"
            else:
                ch = "/"
        for t in range(1, n):
            plot(round(y1 + (y2 - y1) * t / n), round(x1 + (x2 - x1) * t / n), ch)

    for m, pts in _drawn(levels, rows, cols):
        ch = None if m == 0 else str(m)
        line(*pts[0], *pts[1], ch)
        line(*pts[1], *pts[2], ch)
    for i in range(rows):
        for j in range(cols):
            canvas[2 * i][4 * j] = "o"
    return "\n".join("".join(r).rstrip() for r in canvas) + "\n"
