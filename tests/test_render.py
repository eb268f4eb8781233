"""Pictures of the halfZ levels.

The reference for which halfZs are drawn is the enumeration the bounding
box replaced: list every cell of each candidate halfZ and keep those whose
cells all lie inside the window.  It lists 3^(level+1) cells per candidate,
so it only runs at low levels.
"""

import time

import pytest

from stanleygrid.fractal import descend
from stanleygrid.grid import GridCoord
from stanleygrid.render import _enumerate_halfzs, render_ascii, render_svg


def _enumerate_halfzs_by_cells(level, rows, cols):
    out = []
    for p in range(rows):
        for q in range(cols):
            cells = [GridCoord(p, q)]
            for _ in range(level + 1):
                cells = [descend(c, d) for c in cells for d in range(3)]
            if all(c.row < rows and c.col < cols for c in cells):
                out.append(GridCoord(p, q))
    return out


@pytest.mark.parametrize("rows, cols", [(18, 16), (6, 8), (1, 1), (3, 2), (10, 3), (2, 30), (27, 32)])
def test_halfzs_inside_match_enumeration(rows, cols):
    for level in range(5):
        assert _enumerate_halfzs(level, rows, cols) == _enumerate_halfzs_by_cells(level, rows, cols)


def test_deep_levels_finish_fast_and_add_nothing():
    # No level-4 halfZ fits in the default 18 x 16 window, so deeper levels draw nothing.
    assert _enumerate_halfzs(3, 18, 16) and not _enumerate_halfzs(4, 18, 16)
    t0 = time.perf_counter()
    ascii_deep = render_ascii(40, 18, 16)
    svg_deep = render_svg(40, 18, 16)
    assert time.perf_counter() - t0 < 1.0
    assert ascii_deep == render_ascii(4, 18, 16)
    assert svg_deep == render_svg(4, 18, 16)
