"""The grid <-> string bijection against independent computations.

The reference for row_of is the column scan it replaced: every column
whose binary seed is no longer than the main suffix is walked with add_two.
It takes time exponential in the main suffix, so it is only run on short
strings.  The block tables that walk K digits per step are checked against
one-digit walks in both directions.
"""

import itertools
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stanleygrid import grid
from stanleygrid.fractal import locate
from stanleygrid.grid import binary_string, cell, main_suffix, row_of
from stanleygrid.radix import BASE_3_2, add_two, evaluate


def _row_of_by_column_scan(w: str) -> int:
    s = main_suffix(w)
    if not s:
        return 0
    target = evaluate(s, BASE_3_2)
    L = len(s)
    j = 0
    while len(binary_string(j)) <= L:
        b = binary_string(j)
        diff = target - evaluate(b, BASE_3_2)
        if diff >= 0 and diff.denominator == 1 and diff.numerator % 2 == 0:
            i = diff.numerator // 2
            cur = b
            step = 0
            while step < i and len(cur) <= L:
                cur = add_two(cur)
                step += 1
            if step == i and cur == s:
                return i
        j += 1
    raise AssertionError(f"{w!r} not found in any column")


def _canonical(max_len: int):
    yield "0"
    for length in range(1, max_len + 1):
        for lead in "12":
            for rest in itertools.product("012", repeat=length - 1):
                yield lead + "".join(rest)


def test_row_of_matches_column_scan_upto_len8():
    checked = 0
    for w in _canonical(8):
        assert row_of(w) == _row_of_by_column_scan(w), w
        checked += 1
    assert checked == 3**8


canonical = st.builds(
    lambda lead, rest: lead + rest,
    st.sampled_from("12"),
    st.text(alphabet="012", max_size=79),
)


@given(canonical)
@example("0")
@example("1")
@example("2")
@example("2" * 80)
@example("1" + "0" * 79)
@example("11102010220102110110011000")
def test_cell_inverts_locate(w):
    assert cell(*locate(w)) == w


@given(st.integers(0, 10**9 - 1), st.integers(0, 10**9 - 1))
@example(0, 0)
@example(10**9 - 1, 10**9 - 1)
@example(10**9 - 1, 0)
@example(0, 10**9 - 1)
def test_locate_inverts_cell(i, j):
    assert tuple(locate(cell(i, j))) == (i, j)


@given(st.integers(0, 10**12), st.integers(0, 10**12))
@example(0, 0)
@example(10**12, 10**12)
@example(3**20 - 1, 2**30 - 1)
def test_columns_follow_add_two_at_depth(i, j):
    assert cell(i + 1, j) == add_two(cell(i, j))


@given(canonical, st.text(alphabet="01", max_size=40))
@example("2", "")
@example("2120", "1010")
def test_binary_prefix_keeps_row_at_depth(w, y):
    assert row_of("1" + y + w) == row_of(w)


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1)])
def test_cell_rejects_negative_coordinates(i, j):
    with pytest.raises(ValueError):
        cell(i, j)


def test_deep_lookups_finish_fast():
    w = "2" + "0120211021" * 19 + "210012102"
    assert len(w) == 200
    t0 = time.perf_counter()
    row = row_of(w)
    assert time.perf_counter() - t0 < 1.0
    assert cell(row, locate(w).col) == w

    t0 = time.perf_counter()
    s = cell(10**6, 10**6)
    assert time.perf_counter() - t0 < 1.0
    assert locate(s) == (10**6, 10**6)


def _one_digit_step(p, q, d):
    """Digit d appended to prefix cell (p, q) lands in cell k = 3 * (p % 2) + d,
    numbered row by row, of the 3 x 2 block at (3 * (p // 2), 2q)."""
    k = 3 * (p % 2) + d
    return 3 * (p // 2) + k // 2, 2 * q + k % 2


def test_coord_of_matches_one_digit_walks_from_the_origin():
    # lengths 0..2K+1 give every count len(w) % K of leading digits before zero,
    # one and two whole blocks
    level = {"": (0, 0)}
    checked = 0
    for _ in range(2 * grid.K + 2):
        for w, end in level.items():
            assert grid._coord_of(w) == end, w
            checked += 1
        level = {w + "012"[d]: _one_digit_step(*end, d) for w, end in level.items() for d in range(3)}
    assert checked == sum(3**n for n in range(2 * grid.K + 2))


def test_down_steps_are_k_one_digit_steps_from_every_prefix_cell():
    # _coord_of chains the steps, so each must hold from every prefix cell (p, q),
    # not only from (p % 2^K, 0); p < 2^(K+2) gives each table row four values of p >> K
    K = grid.K
    assert len(grid._DOWN) == 2**K
    checked = 0
    for p, q in itertools.product(range(2 ** (K + 2)), range(4)):
        for digits in itertools.product(range(3), repeat=K):
            end = p, q
            for d in digits:
                end = _one_digit_step(*end, d)
            r, c = grid._DOWN[p % 2**K]["".join("012"[d] for d in digits)]
            assert (3**K * (p >> K) + r, 2**K * q + c) == end, (p, q, digits)
            checked += 1
    assert checked == 2 ** (K + 2) * 4 * 3**K


def test_cell_matches_one_level_zooms_over_two_blocks():
    def zoom_one_level(i, j):
        digits = []
        while i or j:
            i, j, d = grid._zoom(i, j)
            digits.append("012"[d])
        return "".join(reversed(digits)) or "0"

    for i in range(3 ** (2 * grid.K)):
        for j in range(2 ** (2 * grid.K)):
            assert cell(i, j) == zoom_one_level(i, j), (i, j)
