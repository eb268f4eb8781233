"""The verify report: every check's name, order and count, and what a failing check says."""

import bisect
import dataclasses
import itertools
import re

import pytest

from stanleygrid import cli, fractal, greedy, grid, radix, refdata, verify, witness

SMALL_REPORT = """\
ok   base32-prefix-vs-A024629 (checked 13)
ok   round-trip-three-bases (checked 6561)
ok   carry-rule-lengths<=7 (checked 2187)
ok   leading-zeros-are-neutral (checked 286)
ok   rejects-bad-digits (checked 1)
ok   rows-partition-the-range (checked 2187)
ok   rows-are-3free (checked 106887)
ok   skips-are-forced (checked 20611)
ok   row0-prefix-vs-A005836 (checked 16)
ok   row1-prefix-vs-A323398 (checked 16)
ok   row0-is-the-no-2-set (checked 2187)
ok   row1-is-the-single-2-set (checked 2187)
ok   cross-prefix-vs-A265316 (checked 10)
ok   top-left-corner (checked 24)
ok   columns-follow-add-two (checked 1920)
ok   strings-upto-len6-unique (checked 729)
ok   binary-prefixes-keep-the-row (checked 768)
ok   main-suffix-determines-the-row (checked 640)
ok   rows-are-3free-by-value (checked 26208)
ok   window-serialization (checked 2)
ok   cells-partition-into-halfzs (checked 1920)
ok   zoom-out-fixed-point (checked 13440)
ok   zoom-rejects-bad-shapes (checked 1)
ok   prefix-loses-one-digit-per-level (checked 576)
ok   traversal-counts-in-ternary (checked 2187)
ok   decrement-drops-at-most-one-row (checked 2186)
ok   column-0-minimal-and-increasing (checked 20)
ok   26-digit-example (checked 1)
ok   all-exclusions-have-witnesses (checked 20611)
ok   decompose-reassembles (checked 602)
ok   rejects-impossible-targets (checked 3)
ok   witness-steps-follow-the-digit-rules (checked 18)
ok   bundled-bfiles-load (checked 4)
ok   bfile-parser (checked 2)
ok   first-terms-read-down-column-0 (checked 20)
ok   rows-equal-grid-value-sets (checked 27)
suite all: PASS (36/36 checks)
"""


def test_small_bound_report_is_pinned(capsys):
    code = cli.main(["verify", "--suite", "all", "--max-value", "2187", "--max-rows", "20"])
    assert code == 0
    assert capsys.readouterr().out == SMALL_REPORT


def test_timings_give_one_stderr_line_per_check(capsys):
    code = cli.main(["verify", "--suite", "all", "--max-value", "2187", "--max-rows", "20",
                     "--timings"])
    out, err = capsys.readouterr()
    assert code == 0 and out == SMALL_REPORT
    checks = [ln.split()[1] for ln in out.splitlines()[:-1]]
    lines = err.splitlines()
    assert len(checks) == 36 and len(lines) == 37
    times = [re.fullmatch(rf"check {re.escape(name)} took (\d+\.\d{{3}})s", ln)
             for name, ln in zip(checks, lines)]
    assert all(times), lines
    total = re.fullmatch(r"suite all took (\d+\.\d{2})s", lines[-1])
    assert total
    # work shared by several checks is charged to the first of them, so the lines add up
    assert abs(sum(float(m[1]) for m in times) - float(total[1])) < 0.05


def wrong_on(args, value):
    """A mutant maker: the mutant returns `value` for `args`, the real result elsewhere."""
    return lambda real: lambda *a: value if a == args else real(*a)


def moved(part, n, row):
    """`part` with n taken out of its row and put into `row`, rows kept increasing."""
    rows = [list(r) for r in part.rows]
    rows[part.row_index(n)].remove(n)
    bisect.insort(rows[row], n)
    assignment = part._assignment.copy()
    assignment[n] = row
    return greedy.GreedyPartition(part.bound, tuple(map(tuple, rows)), assignment)


def sieve_moving(n, row):
    """A mutant maker for build_partition: n is sieved into `row`."""
    return lambda real: lambda limit: moved(real(limit), n, row)


# (suite, module, function, its mutant maker, the check that must catch it,
#  the number of cases that check runs up to and including the wrong one)
MUTANTS = [
    # "0", 2 one-digit and 6 two-digit strings come first; "122" is the 9th three-digit one
    ("radix", radix, "add_two", wrong_on(("122",), "122"), "carry-rule-lengths<=7", 18),
    # 2187 cases per base; base 5/3 comes third
    ("radix", radix, "represent", wrong_on((100, radix.RationalBase(5, 3)), "1"),
     "round-trip-three-bases", 2 * 2187 + 101),
    # the pairs of rows 0 and 1 (128 and 127 values) come first; row 2 starts 7, 8, 16,
    # so with 25 sieved into it its second pair ends an AP
    ("greedy", greedy, "build_partition", sieve_moving(25, 2), "rows-are-3free",
     128 * 127 // 2 + 127 * 126 // 2 + 2),
    # 16 belongs to row 2; the values below it skip 10 rows in all
    ("greedy", greedy, "build_partition", sieve_moving(16, 3), "skips-are-forced", 10 + 2 + 1),
    # "1" + cell(3, 0): rows 0-2 give 3 * 16 * 4 cases before it
    ("grid", grid, "row_of", wrong_on(("1210",), 0), "binary-prefixes-keep-the-row", 193),
    # row 0 starts "0", "1", "10": worth 0, 1, 2, its first pair ends an AP
    ("grid", radix, "evaluate", wrong_on(("10",), 2), "rows-are-3free-by-value", 1),
    # "1210" is 48 in base 3, entry 48 of the walk
    ("fractal", fractal, "locate", wrong_on(("1210",), grid.GridCoord(0, 0)),
     "traversal-counts-in-ternary", 49),
    # "21", "22", "121", "122" are the strings below row 2 that come first
    ("witness", witness, "decompose", wrong_on(("201",), ("2", "0", "0")),
     "decompose-reassembles", 5),
    # A024629 is the second bundled sequence; its b-file starts at index 0
    ("refdata", refdata, "bundled",
     wrong_on(("A024629",), dataclasses.replace(refdata.bundled("A024629"), offset=1)),
     "bundled-bfiles-load", 2),
    ("theorem1", grid, "cell", wrong_on((5, 0), "0"), "first-terms-read-down-column-0", 6),
    ("theorem2", fractal, "row_values_below", wrong_on((4, 2187), []),
     "rows-equal-grid-value-sets", 5),
]


@pytest.mark.parametrize("suite,module,fn,mutant,check,checked", MUTANTS,
                         # a suite's later mutants add the check they trip to its name
                         ids=[m[0] if m[0] not in {e[0] for e in MUTANTS[:i]} else f"{m[0]}-{m[4]}"
                              for i, m in enumerate(MUTANTS)])
def test_failures_name_a_counterexample(monkeypatch, suite, module, fn, mutant, check, checked):
    monkeypatch.setattr(module, fn, mutant(getattr(module, fn)))
    report = verify.run_suite(suite, max_value=2187, max_rows=20)
    failed = {r.name: r for r in report.results if not r.passed}
    assert check in failed
    assert all(r.detail for r in failed.values()), failed
    assert failed[check].checked == checked


# (standard, 2, "0") is the 7th step and may also be the peculiar step below, the
# larger of the two it allows; (shifted, 1, "1") is the 14th, and appending "2" to d
# there keeps the row of d but not the progression
@pytest.mark.parametrize("key,step,checked,why", [
    ((witness._STANDARD, 2, "0"), (witness.TAG_PECULIAR, witness._STANDARD, 1, "1", "2"), 7,
     "is not the smallest allowed (0, 0, 1, 2, 1)"),
    ((witness._SHIFTED, 1, "1"), (witness.TAG_SIMPLEST, witness._STANDARD, 1, "0", "2"), 14,
     "breaks a digit rule"),
], ids=["not-the-smallest", "breaks-a-rule"])
def test_witness_steps_check_names_the_wrong_step(monkeypatch, key, step, checked, why):
    assert verify._witness_steps().checked == 18
    monkeypatch.setitem(witness._STEPS, key, step)
    got = verify._witness_steps()
    assert (got.passed, got.checked) == (False, checked)
    assert got.detail == f"step {key} -> {step} {why}"


# ---------------------------------------------------------------------------
# The per-case scans that the numpy checks replaced, kept as their reference.
# Each yields "" for a case that holds and its counterexample otherwise.

def carry_faults(carry_length):
    def fault(w):
        w2 = radix.add_two(w)
        v1, e1 = radix.scaled_value(w)
        v2, e2 = radix.scaled_value(w2)
        # values v1/2^e1 + 2 == v2/2^e2 with e2 in {e1, e1+1}
        if e2 == e1:
            ok = v2 == v1 + 2 ** (e1 + 1)
        else:
            ok = e2 == e1 + 1 and v2 == 2 * v1 + 2 ** (e1 + 2)
        return "" if ok and radix.is_canonical(w2) else f"add_two({w}) = {w2}"
    return map(fault, verify._strings(carry_length))


def round_trip_faults(count):
    for base in (radix.BASE_3_2, radix.BASE_3, radix.RationalBase(5, 3)):
        for n in range(count):
            w = radix.represent(n, base)
            ok = radix.evaluate(w, base) == n and radix.is_canonical(w)
            yield "" if ok else f"{n} in base {base} is {w}"


def ap_faults(part):
    row_sets = [set(r) for r in part.rows]
    return (f"AP {a}, {b}, {2 * b - a}" if 2 * b - a in members else ""
            for terms, members in zip(part.rows, row_sets)
            for a, b in itertools.combinations(terms, 2))


def skip_faults(part):
    row_sets = [set(r) for r in part.rows]
    for n in range(part.bound):
        for j in range(part.row_index(n)):
            row = part.rows[j]
            members = row_sets[j]
            lo = bisect.bisect_left(row, (n + 1) // 2)   # need 2b >= n
            hi = bisect.bisect_left(row, n)
            found = any((2 * row[t] - n) in members for t in range(hi - 1, lo - 1, -1))
            yield "" if found else f"n={n} skipped row {j} without a witness"


def per_case(cases):
    """(passed, checked, detail) of a scan that stops at its first counterexample."""
    checked = 0
    for fault in cases:
        checked += 1
        if fault:
            return False, checked, fault
    return True, checked, ""


def outcome(result):
    return result.passed, result.checked, result.detail


def assert_row_checks_match(part):
    ap, skips = verify._row_checks(part)
    assert (ap.name, skips.name) == ("rows-are-3free", "skips-are-forced")
    assert outcome(ap) == per_case(ap_faults(part))
    assert outcome(skips) == per_case(skip_faults(part))


def test_numpy_checks_match_the_per_case_scans_at_the_small_bound():
    assert outcome(verify._carry_rule(7)) == per_case(carry_faults(7)) == (True, 2187, "")
    assert outcome(verify._round_trip(2187)) == per_case(round_trip_faults(2187))
    assert_row_checks_match(greedy.build_partition(2187))


# 19683 strings of at most 9 digits make five blocks of 4096: "2122" is in the
# first, "120000000" (index 10935) in the third and "222222222" is the last string
@pytest.mark.parametrize("w,checked", [("2122", 72), ("120000000", 10936), ("222222222", 19683)])
def test_carry_rule_matches_the_per_case_scan_under_a_mutant(monkeypatch, w, checked):
    monkeypatch.setattr(radix, "add_two", wrong_on((w,), w)(radix.add_two))
    got = outcome(verify._carry_rule(9))
    assert got == per_case(carry_faults(9)) == (False, checked, f"add_two({w}) = {w}")


def test_round_trip_matches_the_per_case_scan_under_a_mutant(monkeypatch):
    base = radix.RationalBase(5, 3)
    monkeypatch.setattr(radix, "represent", wrong_on((99999, base), "1")(radix.represent))
    got = outcome(verify._round_trip(100_000))
    assert got == per_case(round_trip_faults(100_000)) == (False, 300_000, "99999 in base 5/3 is 1")


@pytest.mark.parametrize("n,row", [(16, 1), (16, 3), (1502, 0), (2186, 9)],
                         ids=["16-to-earlier", "16-to-later", "1502-to-row-0", "2186-to-row-9"])
def test_row_checks_match_the_per_case_scans_on_a_moved_value(n, row):
    part = greedy.build_partition(2187)
    assert part.row_index(n) != row
    assert_row_checks_match(moved(part, n, row))
