"""Witness pairs explaining greedy exclusions."""

import json

import pytest

from stanleygrid.fractal import locate, ternary_successor
from stanleygrid.greedy import build_partition
from stanleygrid.grid import row_of
from stanleygrid.witness import (
    ConstructionError,
    NotApplicableError,
    decompose,
    witness,
    witness_oracle,
)

X26 = "11102010220102110110011000"


@pytest.fixture(scope="module")
def part243():
    return build_partition(3**5)


def test_decompose_known_example():
    assert decompose(X26) == ("111020102201021101", "10011", "000")


def test_decompose_small():
    assert decompose("2100") == ("", "21", "00")
    assert decompose("212") == ("21", "2", "")
    assert decompose("2011") == ("", "2011", "")
    assert decompose("1201011") == ("120", "1011", "")


def test_decompose_reassembles():
    import itertools
    for length in range(1, 7):
        for lead in "12":
            for rest in itertools.product("012", repeat=length - 1):
                w = lead + "".join(rest)
                if locate(w).row < 2:
                    continue
                p1, p2, p3 = decompose(w)
                assert p1 + p2 + p3 == w
                assert set(p3) <= {"0"}


def test_row0_pairs():
    p = witness("212", 0)[0]
    assert (p.c, p.d) == ("10", "111")
    assert p.values == (3, 13, 23)
    p = witness("2", 0)[0]
    assert (p.c, p.d) == ("0", "1")
    p = witness("20", 0)[0]
    assert (p.c, p.d) == ("0", "10")


def test_row1_known_example():
    pair = witness(X26, 1)[0]
    assert pair.d == "11101010110101110101200000"
    c3, d3, x3 = pair.values
    assert d3 - c3 == x3 - d3
    assert row_of(pair.c) == 1 and row_of(pair.d) == 1
    # the construction fixes the pair completely
    assert pair.c == "11100010000100110100012000"


def test_row1_middle_segment_difference():
    # [x2] - [b2] = [b2] - [a2] = [0 1^(j+k)] for the 2 0^j 1^k shapes
    pair = witness("2011", 1)[0]
    assert (pair.c, pair.d) == ("1012", "1200")
    assert pair.values == (32, 45, 58)
    pair = witness("211", 1)[0]
    assert (pair.c, pair.d) == ("112", "200")
    pair = witness("210011", 1)[0]
    assert (pair.c, pair.d) == ("12", "101200")  # middle segments 00012 and 01200


def test_simple_witnesses():
    pair, trace = witness("212", 1)
    assert (pair.c, pair.d) == ("12", "112")
    assert trace == ["row1-case0"]

    pair, trace = witness("212", 3)
    assert (pair.c, pair.d) == ("210", "211")
    assert trace == ["append-0mod3", "degenerate"]

    pair, trace = witness("212", 0)
    assert (pair.c, pair.d) == ("10", "111")
    assert trace == ["row0"]


def test_witness_rejects_impossible():
    with pytest.raises(NotApplicableError):
        witness("1", 0)
    with pytest.raises(NotApplicableError):
        witness("2", 1)
    with pytest.raises(NotApplicableError):
        witness("212", 4)   # x sits in row 4 itself
    with pytest.raises(NotApplicableError):
        witness("212", -1)
    with pytest.raises(NotApplicableError):
        witness("20", 1)[0]


def test_witness_sweep_all_rows(part243):
    limit = part243.bound
    s = "0"
    strings = []
    for _ in range(limit):
        strings.append(s)
        s, _ = ternary_successor(s)
    for n in range(limit):
        w = strings[n]
        top = part243.row_index(n)
        for j in range(top):
            pair, trace = witness(w, j)
            c3, d3, x3 = pair.values
            assert d3 - c3 == x3 - d3 and c3 < d3 < x3 == n
            assert row_of(pair.c) == j and row_of(pair.d) == j
            if c3 < limit:
                assert part243.row_index(c3) == j
            if d3 < limit:
                assert part243.row_index(d3) == j
            assert len(trace) <= len(w) + 1


def test_oracle_agrees(part243):
    for n in (7, 21, 23, 64, 100, 200):
        w_n = _to3(n)
        top = part243.row_index(n)
        for j in range(top):
            got = witness_oracle(w_n, j, part243)
            assert got is not None
            c3, d3, x3 = got.values
            assert d3 - c3 == x3 - d3 and c3 < d3
            assert part243.row_index(c3) == j and part243.row_index(d3) == j


def _to3(n):
    from stanleygrid.radix import BASE_3, represent
    return represent(n, BASE_3)


def test_oracle_not_applicable(part243):
    with pytest.raises(NotApplicableError):
        witness_oracle("1", 0, part243)


def test_json_record():
    pair, trace = witness("212", 1)
    doc = json.loads(pair.to_json(trace))
    assert list(doc) == ["x", "j", "c", "d", "values_base3", "trace"]
    assert doc["x"] == "212" and doc["j"] == 1
    assert doc["values_base3"] == [5, 14, 23]
    assert doc["trace"] == ["row1-case0"]


def test_trace_tags_cover_the_three_shift_branches(part243):
    seen = set()
    s = "0"
    for n in range(part243.bound):
        w = s
        s, _ = ternary_successor(s)
        for j in range(part243.row_index(n)):
            _, trace = witness(w, j)
            seen.update(trace)
    assert {"simplest", "iterative", "peculiar", "row0", "degenerate"} <= seen


@pytest.mark.xfail(raises=RecursionError, strict=True,
                   reason="witness recurses once per level; 1000 digits pass the default limit")
def test_witness_of_a_1000_digit_string():
    x = "21" * 500
    row = locate(x).row
    pair, _ = witness(x, row // 2)
    c3, d3, x3 = pair.values
    assert d3 - c3 == x3 - d3 and c3 < d3 < x3
    assert row_of(pair.c) == row_of(pair.d) == row // 2
