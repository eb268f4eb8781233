"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line; sweep sizes and time budgets
are pinned inside the tests.  All comparisons are exact integer or
Fraction arithmetic.
"""

import itertools
import subprocess
import sys
import time

import pytest

from conftest import witness_oracle
from stanleygrid import fractal, greedy, grid, radix, verify
from stanleygrid.witness import witness


def _report(ok: bool, label: str) -> None:
    print(("PASS" if ok else "FAIL") + f" - {label}", flush=True)
    assert ok, label


@pytest.fixture(scope="module")
def part_3_9():
    return greedy.build_partition(3**9)


@pytest.fixture(scope="module")
def part_3_7():
    return greedy.build_partition(3**7)


def test_criterion_1_small_conversions():
    expected = ["0", "1", "2", "20", "21", "22", "210", "211", "212",
                "2100", "2101", "2102", "2120"]
    radix.represent(12)  # warm
    t0 = time.perf_counter()
    got = [radix.represent(n) for n in range(13)]
    elapsed = time.perf_counter() - t0
    ok = got == expected and elapsed < 0.001
    _report(ok, f"criterion 1: base-3/2 strings of 0..12 in {elapsed * 1e6:.0f}us")


def test_criterion_2_carry_rule_exhaustive():
    t0 = time.perf_counter()
    count = 0
    ok = radix.evaluate(radix.add_two("0")) == radix.evaluate("0") + 2
    count += 1
    for length in range(1, 13):
        for lead in "12":
            for rest in itertools.product("012", repeat=length - 1):
                w = lead + "".join(rest)
                if radix.evaluate(radix.add_two(w)) != radix.evaluate(w) + 2:
                    ok = False
                    break
                count += 1
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and count == 3**12 and elapsed < 30
    _report(ok, f"criterion 2: add-two = +2 on all {count} strings of length <= 12 in {elapsed:.1f}s")


def test_criterion_3_row_prefixes_and_cross(part_3_9):
    t0 = time.perf_counter()
    row0 = list(part_3_9.row(0)[:16])
    row1 = list(part_3_9.row(1)[:16])
    cross = greedy.cross_sequence(part_3_9, 10)
    elapsed = time.perf_counter() - t0
    ok = (
        row0 == [0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 30, 31, 36, 37, 39, 40]
        and row1 == [2, 5, 6, 11, 14, 15, 18, 29, 32, 33, 38, 41, 42, 45, 54, 83]
        and cross == [0, 2, 7, 21, 23, 64, 69, 71, 193, 207]
        and elapsed < 5
    )
    _report(ok, f"criterion 3: row and cross prefixes at bound 3^9 in {elapsed:.1f}s")


def test_criterion_4_rows_equal_grid_value_sets(part_3_7):
    t0 = time.perf_counter()
    bound = 3**7
    ok = True
    for i in range(13):
        sieved = set(part_3_7.row(i))
        via_grid = set(fractal.row_values_below(i, bound))
        if sieved != via_grid:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    _report(ok, f"criterion 4: rows 0..12 match grid value sets below 3^7 in {elapsed:.1f}s")


def test_criterion_5_first_terms_down_column_zero():
    t0 = time.perf_counter()
    bound = greedy.first_term_bound(200)
    part = greedy.build_partition(bound)
    ok = True
    for i in range(200):
        s = grid.cell(i, 0)
        if int(s, 3) != part.row(i)[0] or s != radix.represent(2 * i):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    _report(ok, f"criterion 5: column 0 lists first terms for 200 rows (bound {bound}) in {elapsed:.1f}s")


def test_criterion_6_halfz_partition_zoom_traversal():
    t0 = time.perf_counter()
    ok = True
    for i in range(30):
        for j in range(64):
            hz = fractal.halfz_of(i, j)
            if (i, j) not in {tuple(m) for m in hz.members}:
                ok = False
            strings = [grid.cell(*m) for m in hz.members]
            if {radix.canonicalize(s[:-1]) for s in strings} != {hz.lcp}:
                ok = False
    win = grid.window(30, 64)
    if fractal.zoom_out(win.cells) != [list(r) for r in grid.window(20, 32).cells]:
        ok = False
    walk = fractal.traversal(3**9)
    s = "0"
    for n, (w, coord) in enumerate(walk):
        if w != s or tuple(fractal.locate(w)) != tuple(coord):
            ok = False
            break
        s, _ = fractal.ternary_successor(s)
    elapsed = time.perf_counter() - t0
    ok = ok and len(walk) == 3**9 and elapsed < 60
    _report(ok, f"criterion 6: halfZ partition, zoom fixed point, 3^9-cell traversal in {elapsed:.1f}s")


def test_criterion_7_structure_checks():
    t0 = time.perf_counter()
    report = verify.run_suite("fractal", max_value=3**9, max_rows=200)
    elapsed = time.perf_counter() - t0
    got = {r.name: (r.passed, r.detail, r.checked) for r in report.results}
    ok = (
        got["decrement-drops-at-most-one-row"] == (True, "", 3**9 - 1)
        and got["column-0-minimal-and-increasing"] == (True, "", 200)
        and elapsed < 60
    )
    _report(ok, f"criterion 7: decrement and column-minimum checks, no counterexamples, in {elapsed:.1f}s")


def test_criterion_8_witness_construction(part_3_7):
    t0 = time.perf_counter()
    limit = 3**7
    ok = True
    sweep_bad = ""
    s = "0"
    strings = []
    for _ in range(limit):
        strings.append(s)
        s, _ = fractal.ternary_successor(s)
    for n in range(limit):
        w = strings[n]
        for j in range(part_3_7.row_index(n)):
            pair, _ = witness(w, j)
            c3, d3, x3 = pair.values
            if d3 - c3 != x3 - d3 or not (c3 < d3 < x3):
                sweep_bad = f"bad pair for ({w}, {j})"
            elif grid.row_of(pair.c) != j or grid.row_of(pair.d) != j:
                sweep_bad = f"pair for ({w}, {j}) not in row {j}"
            elif witness_oracle(w, j, part_3_7) is None:
                sweep_bad = f"oracle finds nothing for ({w}, {j})"
            if sweep_bad:
                break
        if sweep_bad:
            break
    ok = ok and not sweep_bad

    # The published worked example misprints the smaller witness a as
    # 11100010000100110100002000: with it, 2*[b]_3 - ([a]_3 + [x]_3) = 81 = 3^4,
    # so a, b, x is no progression. The witness a is fixed by b and x,
    # a = 2*[b]_3 - [x]_3 written in base 3, which is the string pinned below.
    # It agrees with the construction's own rule: decompose(x) gives
    # ("111020102201021101", "10011", "000"), the shape 1 0^j 1^k with
    # j = k = 2, whose middle segment is a2 = 0^(j+1) 1^(k-1) 2 = 00012 (the
    # misprint has 00002 there).
    x = "11102010220102110110011000"
    b = "11101010110101110101200000"
    a = "11100010000100110100012000"
    a_derived = a == radix.represent(2 * int(b, 3) - int(x, 3), radix.BASE_3)
    ab_in_row1 = fractal.locate(a).row == 1 and fractal.locate(b).row == 1
    pair, _ = witness(x, 1)
    b_exact = pair.d == b
    a_exact = pair.c == a
    elapsed = time.perf_counter() - t0
    ok = ok and a_derived and ab_in_row1 and b_exact and a_exact and elapsed < 300
    _report(ok, (
        f"criterion 8: 26-digit example byte-exact (a={a_exact}, b={b_exact}), "
        f"a = 2b - x in base 3 ({a_derived}), a and b in row 1 ({ab_in_row1}), "
        f"full witness sweep below 3^7 clean ({not sweep_bad}), in {elapsed:.1f}s"
    ))


def test_criterion_9_verification_is_deterministic():
    cmd = [sys.executable, "-m", "stanleygrid.cli", "verify", "--suite", "all"]
    r1 = subprocess.run(cmd, capture_output=True, timeout=1200)
    r2 = subprocess.run(cmd, capture_output=True, timeout=1200)
    ok = (
        r1.returncode == 0
        and r2.returncode == 0
        and r1.stdout == r2.stdout
        and len(r1.stdout) > 0
    )
    _report(ok, "criterion 9: two full verification runs produce byte-identical reports")
