"""The grid of {0,1,2}-strings and row lookup."""

import itertools
import json

import pytest

from stanleygrid.grid import (
    GridCoord,
    MalformedStringError,
    binary_string,
    cell,
    main_suffix,
    row_of,
    value_fraction,
    window,
)
from stanleygrid.radix import add_two

CORNER = [
    ["0", "1", "10", "11", "100", "101"],
    ["2", "20", "12", "200", "102", "120"],
    ["21", "22", "201", "202", "121", "122"],
    ["210", "211", "220", "221", "2010", "2011"],
]


def test_corner_matches_known_matrix():
    assert [[cell(i, j) for j in range(6)] for i in range(4)] == CORNER


def test_individual_cells():
    assert cell(0, 0) == "0"
    assert cell(4, 0) == "212"
    assert cell(4, 2) == "222"
    assert cell(1, 2) == "12"


def test_row_zero_counts_in_binary():
    for j in range(64):
        assert cell(0, j) == binary_string(j) == format(j, "b")


def test_columns_are_add_two_chains():
    for j in range(24):
        for i in range(24):
            assert cell(i + 1, j) == add_two(cell(i, j))


def test_main_suffix():
    assert main_suffix("1201") == "201"
    assert main_suffix("110") == ""
    assert main_suffix("2") == "2"
    assert main_suffix("1112") == "2"


def test_row_of_examples():
    assert row_of("0") == 0
    assert row_of("110") == 0
    assert row_of("2") == 1
    assert row_of("20") == 1
    assert row_of("21") == 2
    assert row_of("212") == 4
    assert row_of("2120") == 6
    assert row_of("11101010110101110101200000") == 1


def test_row_of_matches_cells():
    for i in range(16):
        for j in range(16):
            assert row_of(cell(i, j)) == i


def test_row_of_rejects_malformed():
    for bad in ("01", "3", "", "1a", "021"):
        with pytest.raises(MalformedStringError):
            row_of(bad)


def test_binary_prefix_keeps_row():
    for w in ("2", "212", "220", "2011"):
        base = row_of(w)
        for y in ("1", "11", "10", "101"):
            assert row_of(y + w) == base


def test_every_short_string_in_one_cell():
    win = window(46, 64)
    seen = {}
    for i in range(win.rows):
        for j in range(win.cols):
            s = win.cells[i][j]
            assert s not in seen, f"{s} at {seen[s]} and ({i},{j})"
            seen[s] = (i, j)
    for length in range(1, 5):
        for lead in ("12" if length > 1 else "012"):
            for rest in itertools.product("012", repeat=length - 1):
                s = lead + "".join(rest)
                assert s in seen, s
                i, j = seen[s]
                assert row_of(s) == i


def test_value_fraction():
    from fractions import Fraction
    assert value_fraction("212021") == 31
    assert value_fraction("11") == Fraction(5, 2)


def test_window_serialization():
    win = window(2, 3)
    assert win.to_csv() == "0,1,10\n2,20,12\n"
    assert json.loads(win.to_json()) == [["0", "1", "10"], ["2", "20", "12"]]
    text = win.to_text()
    assert "20" in text and text.endswith("\n")


def test_window_validation():
    with pytest.raises(ValueError):
        window(0, 3)


def test_coord_type():
    c = GridCoord(3, 4)
    assert c.row == 3 and c.col == 4
    assert tuple(c) == (3, 4)


def test_suite_grid_judges_each_check_on_its_own(monkeypatch):
    from stanleygrid import radix, verify

    monkeypatch.setattr(radix, "add_two", lambda w: w + "0")
    results = {r.name: r.passed for r in verify.suite_grid()}
    assert results["columns-follow-add-two"] is False
    assert results["strings-upto-len6-unique"] is True
