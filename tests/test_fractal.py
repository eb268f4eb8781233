"""Nested halfZ structure, zoom-out, counting traversal.

The references for descend and zoom_coord are the upper/lower case split
they replaced, written out from the halfZ definition: an upper halfZ
anchored at (a, b) holds (3a, 2b), (3a, 2b+1), (3a+1, 2b) with its prefix
at (2a, b), a lower one (3a+1, 2b+1), (3a+2, 2b), (3a+2, 2b+1) with its
prefix at (2a+1, b).
"""

import time
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stanleygrid.fractal import (
    WindowShapeError,
    _row_values,
    descend,
    halfz_of,
    locate,
    row_values_below,
    ternary_successor,
    traversal,
    zoom_coord,
    zoom_out,
)
from stanleygrid.greedy import sieve_row
from stanleygrid.grid import GridCoord, MalformedStringError, cell, row_of, window
from stanleygrid.radix import BASE_3, represent


def _zoom_coord_by_case(i, j):
    r = i % 3
    if r == 0 or (r == 1 and j % 2 == 0):
        return GridCoord(2 * (i // 3), j // 2)       # upper
    return GridCoord(2 * (i // 3) + 1, j // 2)       # lower


def _descend_by_case(coord, d):
    p, q = coord
    a = p // 2
    if p % 2 == 0:  # upper halfZ anchored (a, q)
        return (GridCoord(3 * a, 2 * q), GridCoord(3 * a, 2 * q + 1), GridCoord(3 * a + 1, 2 * q))[d]
    return (GridCoord(3 * a + 1, 2 * q + 1), GridCoord(3 * a + 2, 2 * q), GridCoord(3 * a + 2, 2 * q + 1))[d]


def test_block_steps_match_the_case_split():
    for i in range(300):
        for j in range(300):
            assert zoom_coord(i, j) == _zoom_coord_by_case(i, j), (i, j)
            for d in range(3):
                c = descend((i, j), d)
                assert c == _descend_by_case((i, j), d), (i, j, d)
                assert zoom_coord(*c) == (i, j)


@given(st.integers(0, 10**12), st.integers(0, 10**12), st.sampled_from((0, 1, 2)))
@example(0, 0, 0)
@example(10**12, 10**12, 2)
@example(3**25 - 1, 2**39 - 1, 1)
def test_block_steps_match_the_case_split_at_depth(i, j, d):
    assert zoom_coord(i, j) == _zoom_coord_by_case(i, j)
    c = descend(GridCoord(i, j), d)
    assert c == _descend_by_case((i, j), d)
    assert zoom_coord(*c) == (i, j)


def test_halfz_of_matches_the_case_split():
    for level in range(4):
        for i in range(60):
            for j in range(40):
                p, q = i, j
                for _ in range(level):
                    p, q = _zoom_coord_by_case(p, q)
                prefix = _zoom_coord_by_case(p, q)
                upper = p % 3 == 0 or (p % 3 == 1 and q % 2 == 0)
                anchor = (prefix.row // 2, prefix.col)
                hz = halfz_of(i, j, level)
                assert hz.kind == ("upper" if upper else "lower")
                assert hz.anchor == anchor and hz.level == level
                assert hz.members == tuple(_descend_by_case(prefix, d) for d in range(3))
                assert hz.lcp == cell(*prefix)
                a, b = anchor
                assert hz.lcp_coord == (GridCoord(2 * a, b) if upper else GridCoord(2 * a + 1, b))


def test_halfz_membership_examples():
    hz = halfz_of(0, 0)
    assert hz.kind == "upper"
    assert hz.anchor == (0, 0)
    assert tuple(map(tuple, hz.members)) == ((0, 0), (0, 1), (1, 0))
    assert hz.lcp == "0"

    hz = halfz_of(2, 1)
    assert hz.kind == "lower"
    assert hz.anchor == (0, 0)
    assert tuple(map(tuple, hz.members)) == ((1, 1), (2, 0), (2, 1))
    assert hz.lcp == "2"

    hz = halfz_of(4, 2)
    assert hz.kind == "upper"
    assert hz.anchor == (1, 1)
    assert tuple(map(tuple, hz.members)) == ((3, 2), (3, 3), (4, 2))
    assert hz.lcp == "22"


def test_members_share_all_but_last_digit():
    for i in range(12):
        for j in range(16):
            hz = halfz_of(i, j)
            strings = [cell(*m) for m in hz.members]
            stems = {s[:-1].lstrip("0") or "0" for s in strings}
            assert stems == {hz.lcp}
            assert cell(*hz.lcp_coord) == hz.lcp


def test_zoom_coord_inverts_membership():
    for i in range(30):
        for j in range(30):
            hz = halfz_of(i, j)
            assert tuple(zoom_coord(i, j)) == tuple(hz.lcp_coord)


def test_zoom_out_fixed_point():
    win = window(6, 8)
    small = zoom_out(win.cells)
    target = window(4, 4)
    assert [list(r) for r in target.cells] == small


def test_zoom_out_twice():
    big = window(18, 16)
    twice = zoom_out(zoom_out(big.cells))
    assert [list(r) for r in window(8, 4).cells] == twice


def test_zoom_out_shape_errors():
    with pytest.raises(WindowShapeError):
        zoom_out([["0", "1"], ["2", "20"]])
    with pytest.raises(WindowShapeError):
        zoom_out([["0"], ["2"], ["21"]])


def test_locate_examples():
    assert tuple(locate("0")) == (0, 0)
    assert tuple(locate("1")) == (0, 1)
    assert tuple(locate("2")) == (1, 0)
    assert tuple(locate("212")) == (4, 0)
    assert tuple(locate("222")) == (4, 2)


def test_locate_agrees_with_cells():
    for n in range(3**5):
        w = represent(n, BASE_3)
        i, j = locate(w)
        assert cell(i, j) == w
        assert row_of(w) == i


def test_locate_rejects_malformed():
    with pytest.raises(MalformedStringError):
        locate("021")
    with pytest.raises(MalformedStringError):
        locate("3")


def test_ternary_successor():
    assert ternary_successor("0") == ("1", 0)
    assert ternary_successor("1") == ("2", 0)
    assert ternary_successor("2") == ("10", 1)
    assert ternary_successor("12") == ("20", 1)
    assert ternary_successor("122") == ("200", 2)
    assert ternary_successor("222") == ("1000", 3)
    assert ternary_successor("21") == ("22", 0)


def test_traversal_first_nine_coordinates():
    walk = traversal(9)
    coords = [tuple(c) for _, c in walk]
    assert coords == [(0, 0), (0, 1), (1, 0), (0, 2), (0, 3), (1, 2),
                      (1, 1), (2, 0), (2, 1)]
    assert [s for s, _ in walk] == [represent(n, BASE_3) for n in range(9)]


def walk_reference(count):
    """The recursive depth-first walk that traversal replaced: expand the level-m
    origin halfZ (m just large enough that 3^(m+1) >= count) member by member,
    recursing into each child's triple."""
    if count == 0:
        return []
    m = 0
    while 3 ** (m + 1) < count:
        m += 1
    out = []

    def walk(level, coord):
        if len(out) >= count:
            return
        for d in range(3):
            child = descend(coord, d)
            if level == 0:
                if len(out) < count:
                    out.append((cell(*child), child))
            else:
                walk(level - 1, child)
    walk(m, GridCoord(0, 0))
    return out


@pytest.mark.parametrize("counts", [range(301), [3**9, 3**9 + 1]], ids=["0-300", "3^9"])
def test_traversal_matches_the_recursive_walk(counts):
    for n in counts:
        assert traversal(n) == walk_reference(n), n


def test_traversal_counts_in_ternary():
    walk = traversal(81)
    for n, (s, coord) in enumerate(walk):
        assert s == represent(n, BASE_3)
        assert tuple(locate(s)) == tuple(coord)


def test_traversal_of_27_stays_in_corner():
    walk = traversal(27)
    assert max(c.row for _, c in walk) == 4
    assert max(c.col for _, c in walk) == 7


def test_traversal_carry_depth_matches_shared_level():
    walk = traversal(3**5)
    for n in range(1, len(walk)):
        prev_s, prev_c = walk[n - 1]
        _, cur_c = walk[n]
        depth = len(prev_s) - len(prev_s.rstrip("2"))
        a, b = tuple(prev_c), tuple(cur_c)
        for _ in range(depth):
            a = tuple(zoom_coord(*a))
            b = tuple(zoom_coord(*b))
        assert a != b
        assert tuple(zoom_coord(*a)) == tuple(zoom_coord(*b))


def test_row_values_by_length():
    assert _row_values(0, 1, {}) == (0, 1)
    assert _row_values(1, 1, {}) == (2,)
    assert _row_values(2, 1, {}) == ()
    assert _row_values(0, 2, {}) == (3, 4)
    assert _row_values(1, 2, {}) == (5, 6)


def test_row_values_keep_nothing_after_returning():
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for r in range(90):
            row_values_below(r, 3**12)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 2**20, f"{(after - before) / 2**20:.1f} MiB kept"


def test_row_values_below():
    assert row_values_below(0, 1) == [0]
    # one digit: "0", "1" in row 0, "2" in row 1, none in row 2; two digits: 3, 4 and 5, 6
    assert row_values_below(2, 3) == []
    assert row_values_below(0, 9) == [0, 1, 3, 4]
    assert row_values_below(1, 9) == [2, 5, 6]
    assert row_values_below(0, 41) == [0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 30, 31, 36, 37, 39, 40]
    assert row_values_below(1, 84) == [2, 5, 6, 11, 14, 15, 18, 29, 32, 33, 38, 41, 42, 45, 54, 83]
    assert row_values_below(2, 22) == [7, 8, 16, 17, 19, 20]
    assert row_values_below(3, 22) == [21]


@pytest.mark.parametrize("row,bound,message", [
    (-1, 10, "row must be >= 0, got -1"),
    (0, 0, "bound must be >= 1, got 0"),
    (0, -5, "bound must be >= 1, got -5"),
], ids=["negative-row", "zero-bound", "negative-bound"])
def test_row_values_below_rejects_what_the_sieve_rejects(row, bound, message):
    with pytest.raises(ValueError):
        sieve_row(bound, row)
    with pytest.raises(ValueError) as exc:
        row_values_below(row, bound)
    assert str(exc.value) == message


@given(st.integers(0, 3**12 - 1))
def test_row_values_below_agrees_with_row_of(v):
    # row_values_below lists every value of a row below its bound, so the
    # sample stays below the value cap; row_of reads v's numeral directly
    row = row_of(represent(v, BASE_3))
    values = row_values_below(row, v + 1)
    assert values[-1] == v
    assert all(row_of(represent(u, BASE_3)) == row for u in values[-8:])


def test_level_one_halfz_groups_three_prefixes():
    hz1 = halfz_of(3, 2, level=1)
    assert hz1.level == 1
    # its members are the prefix cells of three level-0 halfZs
    child = halfz_of(3, 2, level=0)
    assert tuple(child.lcp_coord) in {tuple(m) for m in hz1.members}


def test_halfz_of_stops_zooming_at_the_origin():
    # (5, 7) reaches the origin within a few zooms, and the origin zooms onto itself
    t0 = time.perf_counter()
    hz = halfz_of(5, 7, level=10**12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    assert hz == halfz_of(5, 7, level=60)._replace(level=10**12)
