"""The grid of {0,1,2}-strings and row lookup."""

import itertools
import json

import pytest

from stanleygrid import grid
from stanleygrid.grid import (
    GridCoord,
    MalformedStringError,
    binary_string,
    cell,
    main_suffix,
    row_of,
    window,
)
from stanleygrid.radix import add_two, canonicalize

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


def _two_step_check(w):
    """The check as two tests: a {0,1,2}-string first, then no leading zero."""
    if not w or w.strip("012"):
        raise MalformedStringError(f"{w!r} is not a {{0,1,2}}-string")
    if w != canonicalize(w):
        raise MalformedStringError(f"{w!r} has a leading zero")


def _verdict(check, w):
    try:
        check(w)
    except MalformedStringError as e:
        return str(e)
    return None


def test_check_ternary_agrees_with_the_two_step_check():
    short = ["".join(t) for n in range(6) for t in itertools.product("012a", repeat=n)]
    long = ["2" + "10" * 2499 + "1", "0" + "12" * 2499 + "1", "1" * 4999 + "a", "a" + "2" * 4999]
    assert len(short) == sum(4**n for n in range(6)) and {len(w) for w in long} == {5000}
    verdicts = [_verdict(grid._check_ternary, w) for w in short + long]
    assert verdicts == [_verdict(_two_step_check, w) for w in short + long]
    # "", "0", "1", "2", "a": rejected, accepted, accepted, accepted, rejected
    assert verdicts[:5] == ["'' is not a {0,1,2}-string", None, None, None,
                            "'a' is not a {0,1,2}-string"]
    assert verdicts[-3:-1] == [f"{long[1]!r} has a leading zero",
                               f"{long[2]!r} is not a {{0,1,2}}-string"]
    # "0", the short strings led by 1 or 2, and long[0]
    assert verdicts.count(None) == 1 + sum(2 * 3 ** (n - 1) for n in range(1, 6)) + 1


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
    from stanleygrid import checks, radix

    monkeypatch.setattr(radix, "add_two", lambda w: w + "0")
    results = {r.name: r.passed for r in checks.suite_grid()}
    assert results["columns-follow-add-two"] is False
    assert results["strings-upto-len6-unique"] is True
