"""Witness pairs explaining greedy exclusions."""

import collections
import itertools
import json
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import witness_oracle
from stanleygrid import grid
from stanleygrid import witness as witness_module
from stanleygrid.fractal import locate, ternary_successor
from stanleygrid.greedy import build_partition
from stanleygrid.grid import row_of
from stanleygrid.radix import BASE_3, canonicalize, represent
from stanleygrid.witness import (
    TAG_APPEND_EVEN,
    TAG_APPEND_ODD,
    TAG_DEGENERATE,
    TAG_ITERATIVE,
    TAG_KEEP0,
    TAG_KEEP2,
    TAG_PECULIAR,
    TAG_SIMPLEST,
    TAGS,
    NotApplicableError,
    decompose,
    witness,
)

X26 = "11102010220102110110011000"

# 20-160-digit canonical strings for the property tests
LONG_STRINGS = st.builds(lambda lead, rest: lead + rest, st.sampled_from("12"),
                         st.text(alphabet="012", min_size=19, max_size=159))


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
    assert trace == ["keep-2", "append-0mod3", "append-0mod3", "degenerate"]

    pair, trace = witness("212", 3)
    assert (pair.c, pair.d) == ("210", "211")
    assert trace == ["append-0mod3", "degenerate"]

    pair, trace = witness("212", 0)
    assert (pair.c, pair.d) == ("10", "111")
    assert trace == ["append-0mod3", "append-0mod3", "append-0mod3", "degenerate"]


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


@pytest.mark.parametrize("x, j, span", [("2001", 1, 2), ("20001", 1, 3), ("21001", 1, 2)])
def test_peculiar_steps_that_rewalk_several_digits(monkeypatch, part243, x, j, span):
    # the prefix loses 1 at the peculiar step, "20" -> "12", "200" -> "122" or
    # "210" -> "202", so the loop zooms out past `span` digits and steps down
    # through the new ones
    zooms = []

    def counting_zoom(i, k):
        zooms.append((i, k))
        return grid._zoom(i, k)
    monkeypatch.setattr(witness_module, "_zoom", counting_zoom)
    pair, trace = witness(x, j)
    assert trace.count(TAG_PECULIAR) == 1 and len(zooms) == span
    assert (pair.c, pair.d, trace) == _by_recursion(x, j)
    c3, d3, x3 = pair.values
    assert c3 < d3 < x3 and d3 - c3 == x3 - d3
    # the sieve puts both in row j, where the oracle finds the pair with the least d
    assert part243.row_index(c3) == part243.row_index(d3) == j
    assert witness_oracle(x, j, part243).values[1] <= d3


def test_json_record():
    pair, trace = witness("212", 1)
    doc = json.loads(pair.to_json(trace))
    assert list(doc) == ["x", "j", "c", "d", "values_base3", "trace"]
    assert doc["x"] == "212" and doc["j"] == 1
    assert doc["values_base3"] == [5, 14, 23]
    assert doc["trace"] == ["keep-2", "append-0mod3", "append-0mod3", "degenerate"]


def test_trace_tags_cover_the_three_shift_branches(part243):
    seen = set()
    s = "0"
    for n in range(part243.bound):
        w = s
        s, _ = ternary_successor(s)
        for j in range(part243.row_index(n)):
            _, trace = witness(w, j)
            seen.update(trace)
    assert {"simplest", "iterative", "peculiar", "degenerate"} <= seen


def test_tags_are_the_step_tags_and_degenerate():
    emitted = {step[0] for step in witness_module._STEPS.values()} - {None}
    assert TAGS == emitted | {TAG_DEGENERATE}


def test_fused_steps_are_the_step_table_read_through_the_zoom():
    steps, zoom = witness_module._STEPS, grid._zoom
    shapes = (witness_module._STANDARD, witness_module._SHIFTED)
    keys = list(itertools.product(range(2), range(3), range(3), range(2)))  # s, t % 3, p % 3, q % 2
    rebuilt = {}
    for s, r, k, b in keys:
        offset, _, e = zoom(k, b)
        tag, shape, bit, c_digit, d_digit = steps[shapes[s], r, "012"[e]]
        rebuilt[18 * s + 6 * r + 2 * k + b] = (tag, 18 * shapes.index(shape), bit,
                                               c_digit + d_digit, offset)
    assert witness_module._FUSED == tuple(rebuilt[i] for i in range(36))
    # the loop's step p' = 2 * (p // 3) + offset, q' = q >> 1 is the zoom of (p, q)
    for p, q in itertools.product(range(30), range(16)):
        offset = rebuilt[2 * (p % 3) + q % 2][-1]
        assert (2 * (p // 3) + offset, q >> 1) == zoom(p, q)[:2]
    # the six (p % 3, q % 2) cells strip each digit twice
    reached = collections.Counter((shapes[s], r, "012"[zoom(k, b)[2]]) for s, r, k, b in keys)
    assert reached == dict.fromkeys(steps, 2)


def test_witness_of_a_1000_digit_string():
    x = "21" * 500
    row = locate(x).row
    pair, _ = witness(x, row // 2)
    c3, d3, x3 = pair.values
    assert d3 - c3 == x3 - d3 and c3 < d3 < x3
    assert row_of(pair.c) == row_of(pair.d) == row // 2


# ---------------------------------------------------------------------------
# reference: the digit recursion the step-table loop replaced, one call per
# stripped digit and one locate per standard level; its depth is the length
# of x, so it only runs on strings of a few hundred digits at most


def _standard(x: str, t: int, trace: list[str]) -> tuple[str, str]:
    """Solve [d] - [c] = [x] - [d] with c, d in row t; needs row(x) >= t."""
    rx = locate(x).row
    if rx == t:
        trace.append(TAG_DEGENERATE)
        return x, x
    if rx < t:
        raise AssertionError(f"row({x}) = {rx} < target {t}; trace {trace}")
    a, r = divmod(t, 3)
    last = x[-1]
    stem = canonicalize(x[:-1])
    if r == 0:
        trace.append(TAG_APPEND_EVEN)
        c1, d1 = _standard(stem, 2 * a, trace)
        cd, dd = {"0": ("0", "0"), "1": ("1", "1"), "2": ("0", "1")}[last]
    elif r == 2:
        trace.append(TAG_APPEND_ODD)
        c1, d1 = _standard(stem, 2 * a + 1, trace)
        cd, dd = {"0": ("2", "1"), "1": ("1", "1"), "2": ("2", "2")}[last]
    elif last == "0":
        trace.append(TAG_KEEP0)
        c1, d1 = _standard(stem, 2 * a + 1, trace)
        cd = dd = "0"
    elif last == "2":
        trace.append(TAG_KEEP2)
        c1, d1 = _standard(stem, 2 * a, trace)
        cd = dd = "2"
    else:
        # row 3a+1 target, x ends in 1: switch to the shifted equation
        c1, d1 = _shifted(stem, 2 * a, trace)
        cd, dd = "2", "0"
    return canonicalize(c1 + cd), canonicalize(d1 + dd)


def _shifted(y: str, t: int, trace: list[str]) -> tuple[str, str]:
    """Solve [d] - [c] = [y] + 1 - [d] with c in row t, d in row t+1."""
    g, r = divmod(t, 3)
    last = y[-1]
    stem = canonicalize(y[:-1])
    if r == 0:
        if last == "0":
            trace.append(TAG_PECULIAR)
            c1, d1 = _standard(represent(int(stem, 3) - 1, BASE_3), 2 * g, trace)
            cd, dd = "0", "2"
        elif last == "1":
            trace.append(TAG_ITERATIVE)
            c1, d1 = _shifted(stem, 2 * g, trace)
            cd, dd = "1", "0"
        else:
            trace.append(TAG_SIMPLEST)
            c1, d1 = _standard(stem, 2 * g, trace)
            cd, dd = "1", "2"
    elif r == 1:
        if last == "0":
            trace.append(TAG_PECULIAR)
            c1, d1 = _standard(represent(int(stem, 3) - 1, BASE_3), 2 * g + 1, trace)
            cd, dd = "0", "2"
        elif last == "1":
            trace.append(TAG_SIMPLEST)
            c1, d1 = _standard(stem, 2 * g + 1, trace)
            cd, dd = "0", "1"
        else:
            trace.append(TAG_ITERATIVE)
            c1, d1 = _shifted(stem, 2 * g, trace)
            cd, dd = "2", "1"
    else:
        trace.append(TAG_ITERATIVE)
        c1, d1 = _shifted(stem, 2 * g + 1, trace)
        cd, dd = {"0": ("2", "0"), "1": ("1", "0"), "2": ("2", "1")}[last]
    return canonicalize(c1 + cd), canonicalize(d1 + dd)


def _by_recursion(x: str, j: int) -> tuple[str, str, list[str]]:
    trace: list[str] = []
    c, d = _standard(x, j, trace)
    return c, d, trace


def _by_loop(x: str, j: int) -> tuple[str, str, list[str]]:
    pair, trace = witness(x, j)
    return pair.c, pair.d, trace


def test_loop_matches_recursion_on_every_exclusion_below_3_to_6():
    checked = 0
    peculiar = 0
    for length in range(1, 7):
        for digits in itertools.product("012", repeat=length):
            x = "".join(digits)
            if x[0] == "0":
                continue
            for j in range(locate(x).row):
                got = _by_loop(x, j)
                assert got == _by_recursion(x, j), (x, j)
                peculiar += TAG_PECULIAR in got[2]
                checked += 1
    assert checked == 4457
    assert peculiar > 0


@settings(max_examples=100)
@given(LONG_STRINGS, st.data())
def test_loop_matches_recursion_on_long_strings(x, data):
    row = locate(x).row
    assume(row > 0)  # a {0,1}-string sits in row 0 and has no exclusion to explain
    j = data.draw(st.integers(0, row - 1), label="target row")
    c, d, trace = _by_loop(x, j)
    assert (c, d, trace) == _by_recursion(x, j)
    c3, d3, x3 = int(c, 3), int(d, 3), int(x, 3)
    assert c3 < d3 < x3 and d3 - c3 == x3 - d3
    assert row_of(c) == row_of(d) == j


# ---------------------------------------------------------------------------
# reference: direct digit rewrites for target rows 0 and 1; the loop reaches
# these rows through the step table alone and must give the same pairs


def _row0_pair(x: str) -> tuple[str, str]:
    """Row-0 witnesses: turn the 2s of x into all-0s and all-1s."""
    return canonicalize(x.replace("2", "0")), x.replace("2", "1")


def _row1_pair(x: str) -> tuple[str, str]:
    """Row-1 witnesses: rewrite x1 as for row 0 and the middle segment x2 by its shape."""
    x1, x2, x3 = decompose(x)
    j = len(x2.rstrip("1")) - 1      # the 0s after x2's first digit
    k = len(x2) - 1 - j              # the trailing 1s
    if x2 == "2":
        a2 = b2 = "2"
    elif x2[0] == "2":               # 2 0^j 1^k, j >= 0
        a2 = "1" + "0" * j + "1" * (k - 1) + "2"
        b2 = "1" * j + "2" + "0" * k
    else:                            # 1 0^j 1^k
        a2 = "0" * (j + 1) + "1" * (k - 1) + "2"
        b2 = "0" + "1" * (j - 1) + "2" + "0" * k
    return (canonicalize(x1.replace("2", "0") + a2 + x3),
            canonicalize(x1.replace("2", "1") + b2 + x3))


def _direct_rewrites_agree(x: str) -> int:
    """Compare the loop with the direct rewrites on each target row 0, 1 below x's row."""
    targets = ((0, _row0_pair), (1, _row1_pair))[: locate(x).row]
    for t, direct in targets:
        pair, _ = witness(x, t)
        assert (pair.c, pair.d) == direct(x), (x, t)
    return len(targets)


def test_loop_matches_direct_rewrites_up_to_8_digits():
    checked = sum(_direct_rewrites_agree(lead + "".join(rest))
                  for length in range(1, 9) for lead in "12"
                  for rest in itertools.product("012", repeat=length - 1))
    assert checked == 12355


@settings(max_examples=100)
@given(LONG_STRINGS)
def test_loop_matches_direct_rewrites_on_long_strings(x):
    assume(locate(x).row > 0)  # a {0,1}-string sits in row 0 and has no exclusion to explain
    _direct_rewrites_agree(x)


def test_witness_locates_only_x(monkeypatch):
    located = []

    def counting_locate(w):
        located.append(w)
        return locate(w)

    monkeypatch.setattr(witness_module, "locate", counting_locate)
    x = "21" * 100
    for j in (0, 1, 2, 50, locate(x).row - 1):
        located.clear()
        pair, _ = witness(x, j)
        assert located == [x]


def test_witness_of_a_4000_digit_string_within_a_second():
    x = "21" * 2000
    row = locate(x).row
    start = time.perf_counter()
    pair, trace = witness(x, row // 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    assert len(trace) > 1000


def test_witness_past_the_int_string_digit_limit():
    # int(s, 3) refuses strings of more than 4300 digits by default
    x = "21" * 2500
    pair, _ = witness(x, 0)
    c3, d3, x3 = pair.values
    assert c3 < d3 < x3 and d3 - c3 == x3 - d3
    horner = 0
    for ch in x:
        horner = 3 * horner + int(ch)
    assert x3 == horner
