"""The verify report: every check's name, order and count, and what a failing check says."""

import bisect
import collections
import itertools
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from stanleygrid import checks, cli, fractal, greedy, grid, radix, refdata, verify, witness

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
ok   decrement-lemma-at-every-length (checked 28)
ok   column-0-minimal-and-increasing (checked 20)
ok   26-digit-example (checked 1)
ok   all-exclusions-have-witnesses (checked 20611)
ok   decompose-reassembles (checked 602)
ok   rejects-impossible-targets (checked 3)
ok   witness-steps-follow-the-digit-rules (checked 18)
ok   witness-loop-ends-in-the-target-row (checked 198)
ok   bundled-bfiles-load (checked 4)
ok   bfile-parser (checked 2)
ok   first-terms-read-down-column-0 (checked 20)
ok   rows-equal-grid-value-sets (checked 28)
suite all: PASS (38/38 checks)
"""


SMALL = ["--max-value", "2187", "--max-rows", "20"]


def test_small_bound_report_is_pinned(capsys):
    code = cli.main(["verify", "--suite", "all", *SMALL])
    assert code == 0
    assert capsys.readouterr().out == SMALL_REPORT
    # a passing run leaves no worker behind
    assert not multiprocessing.active_children()


def test_timings_give_one_stderr_line_per_check(capsys):
    code = cli.main(["verify", "--suite", "all", *SMALL, "--timings"])
    out, err = capsys.readouterr()
    assert code == 0 and out == SMALL_REPORT
    checks = [ln.split()[1] for ln in out.splitlines()[:-1]]
    lines = err.splitlines()
    suites = verify.SUITES[:-1]
    assert len(checks) == 38 and len(lines) == 38 + len(suites) + 1
    times = [re.fullmatch(rf"check {re.escape(name)} took (\d+\.\d{{3}})s", ln)
             for name, ln in zip(checks, lines)]
    assert all(times), lines
    total = re.fullmatch(r"suite all took (\d+\.\d{2})s in (\d+) process(es)?", lines[-1])
    assert total and (total[3] is None) == (total[2] == "1")
    # one line per suite, in suite order: when it ran, from the run's start, and where
    spans = [re.fullmatch(rf"suite {name} ran (\d+\.\d{{2}})-(\d+\.\d{{2}})s in process (\d+)", ln)
             for name, ln in zip(suites, lines[38:-1])]
    assert all(spans), lines
    for m in spans:
        assert 0 <= float(m[1]) <= float(m[2]) <= float(total[1])
        assert 1 <= int(m[3]) <= int(total[2])
    # Work shared by checks of a suite is charged to the first of them, so each
    # suite's checks add up to its time.  The suites run side by side in n
    # processes, so the checks add up to between the wall total (less the cost
    # of starting the workers) and n times it; 0.02 s covers the rounding of
    # the printed figures.
    wall, n, spent = float(total[1]), int(total[2]), sum(float(m[1]) for m in times)
    assert n * wall + 0.02 >= spent >= wall - 0.05
    # stdout was SMALL_REPORT, as without --timings, and --json prints the same either way
    reports = []
    for flags in ([], ["--timings"]):
        assert cli.main(["verify", "--suite", "all", *SMALL, "--json", *flags]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def wrong_on(args, value):
    """A mutant maker: the mutant returns `value` for `args`, the real result elsewhere."""
    return lambda real: lambda *a: value if a == args else real(*a)


def moved(part, n, row):
    """`part` with n taken out of its row and put into `row`; row -1 leaves n in none."""
    assignment = part._assignment.copy()
    assignment[n] = row
    return greedy.GreedyPartition(part.bound, assignment)


def sieve_moving(n, row):
    """A mutant maker for build_partition: n is sieved into `row`."""
    return lambda real: lambda limit: moved(real(limit), n, row)


def dropping(n):
    """A mutant maker for build_partition: n is left out of its row."""
    return lambda real: lambda limit: moved(real(limit), n, -1)


def swapping(i, k):
    """A mutant maker for a list-valued function: entries i and k trade places."""
    def swap(out):
        out[i], out[k] = out[k], out[i]
        return out
    return lambda real: lambda *a: swap(real(*a))


def sieving_upto(last):
    """A mutant maker for build_partition: rows 0..last are sieved and no more, so the
    values of later rows are in no row."""
    return lambda real: lambda limit: greedy.GreedyPartition(limit, greedy._assign(limit, last))


def replacing(key, value):
    """A mutant maker for a dict: `key` maps to `value`."""
    return lambda real: {**real, key: value}


def reversing_members(i, j):
    """A mutant maker for halfz_of: the halfZ of cell (i, j) lists its members in reverse."""
    def reverse(hz):
        return hz._replace(members=hz.members[::-1])
    return lambda real: lambda *a: reverse(real(*a)) if a == (i, j) else real(*a)


def zoom_swapping_0_and_2(real):
    """A mutant of the one-level zoom: rows 3a+1 read digit 0 as 2 and 2 as 0."""
    def zoom(i, j):
        p, q, d = real(i, j)
        return p, q, 2 - d if i % 3 == 1 else d
    return zoom


SHORT_SIEVE = sieving_upto(2)
X26 = "11102010220102110110011000"
A005836 = refdata.bundled("A005836")
BFILE = "# comment\n\n0 5\n1 7\n"

# (suite, module, function, its mutant maker, the check that must catch it,
#  the number of cases that check runs up to and including the wrong one, what it says)
MUTANTS = [
    # "0", 2 one-digit and 6 two-digit strings come first; "122" is the 9th three-digit one
    ("radix", radix, "add_two", wrong_on(("122",), "122"), "carry-rule-lengths<=7", 18,
     "add_two(122) = 122"),
    # 2187 cases per base; base 5/3 comes third
    ("radix", radix, "represent", wrong_on((100, radix.RationalBase(5, 3)), "1"),
     "round-trip-three-bases", 2 * 2187 + 101, "100 in base 5/3 is 1"),
    # 5 is "22" in base 3/2; the reference check counts all 13 bundled terms
    ("radix", radix, "represent", wrong_on((5,), "21"), "base32-prefix-vs-A024629", 13,
     "the base-3/2 numeral of 5 is 21, A024629 has 22"),
    # "000" pads the first numeral, "0"
    ("radix", radix, "evaluate", wrong_on(("000",), Fraction(1)), "leading-zeros-are-neutral", 1,
     "000 != 0"),
    # "13" holds a 3, which base 3/2 has no digit for
    ("radix", radix, "add_two", wrong_on(("13",), "10"), "rejects-bad-digits", 1,
     "add_two('13') returned '10' and raised no InvalidDigitError"),
    # a result longer than the 8 digits the check reads is not well-formed
    ("radix", radix, "add_two", wrong_on(("122",), "1220000000"), "carry-rule-lengths<=7", 18,
     "add_two(122) = 1220000000"),
    # the pairs of rows 0 and 1 (128 and 127 values) come first; row 2 starts 7, 8, 16,
    # so with 25 sieved into it its second pair ends an AP
    ("greedy", greedy, "build_partition", sieve_moving(25, 2), "rows-are-3free",
     128 * 127 // 2 + 127 * 126 // 2 + 2, "AP 7, 16, 25"),
    # 16 belongs to row 2; the values below it skip 10 rows in all
    ("greedy", greedy, "build_partition", sieve_moving(16, 3), "skips-are-forced", 10 + 2 + 1,
     "n=16 skipped row 2 without a witness"),
    # 2186, the last value below 2187, belongs to row 26
    ("greedy", greedy, "build_partition", dropping(2186), "rows-partition-the-range", 2187,
     "2186 is in no row"),
    # 13 is 111 in base 3, the 8th term of row 0; 16 terms of each reference lie below 2187
    ("greedy", greedy, "build_partition", sieve_moving(13, 1), "row0-prefix-vs-A005836", 16,
     "row 0 term 7 is 27, A005836 has 13"),
    ("greedy", greedy, "build_partition", sieve_moving(13, 1), "row1-prefix-vs-A323398", 16,
     "row 1 term 4 is 13, A323398 has 14"),
    ("greedy", greedy, "build_partition", sieve_moving(13, 1), "row0-is-the-no-2-set", 2187,
     "row 0 term 7 is 27, the no-2 set has 13"),
    ("greedy", greedy, "build_partition", sieve_moving(13, 1), "row1-is-the-single-2-set", 2187,
     "row 1 term 4 is 13, the single-2 set has 14"),
    # 7 opens row 2, which the cross sequence reads; 10 terms of A265316 lie below 2187
    ("greedy", greedy, "build_partition", sieve_moving(7, 3), "cross-prefix-vs-A265316", 10,
     "cross term 2 is 8, A265316 has 7"),
    # a sieve that opens rows 0-2 only: 21, the first term of row 3, is the first value
    # in no row, and the cross sequence ends early
    ("greedy", greedy, "build_partition", SHORT_SIEVE, "rows-partition-the-range", 2187,
     "21 is in no row"),
    ("greedy", greedy, "build_partition", SHORT_SIEVE, "cross-prefix-vs-A265316", 10,
     "cross term 3 is none, A265316 has 21"),
    # "1" + cell(3, 0): rows 0-2 give 3 * 16 * 4 cases before it
    ("grid", grid, "row_of", wrong_on(("1210",), 0), "binary-prefixes-keep-the-row", 193,
     "1+cell(3, 0) leaves row 3"),
    # row 0 starts "0", "1", "10": worth 0, 1, 2, its first pair ends an AP
    ("grid", radix, "evaluate", wrong_on(("10",), 2), "rows-are-3free-by-value", 1,
     "row 0: AP ending 2"),
    # row 0 holds "0", "1", "10", ...: with "0" worth 275/64 its values sorted run 1, 3/2,
    # 9/4, 5/2, 13/4, 27/8, 15/4, 275/64, and the 7th pair, 1 and 275/64, ends an AP at
    # "100000"; "11" (5/2) sits left of "100" (9/4), so a check that reads pairs in window
    # order misses it
    ("grid", radix, "evaluate", wrong_on(("0",), Fraction(275, 64)), "rows-are-3free-by-value", 7,
     "row 0: AP ending 243/32"),
    # "121" at cell (2, 4) is the 17th of the 24 corner cells
    ("grid", grid, "cell", wrong_on((2, 4), "112"), "top-left-corner", 17,
     "cell(2, 4) is 112, not 121"),
    # cell (40, 60) lies only in the 46 x 64 window; "0" there repeats the origin's string
    ("grid", grid, "cell", wrong_on((40, 60), "0"), "strings-upto-len6-unique", 729,
     "0 sits at [(0, 0), (40, 60)], locate says (0, 0)"),
    # "202" is cell (2, 3), after the 2 x 32 cells of rows 0 and 1
    ("grid", grid, "main_suffix", wrong_on(("202",), "20"), "main-suffix-determines-the-row", 68,
     "main suffix '20' of cell(2, 3) is not in row 2"),
    # cell (1, 4) is "102", in the window's CSV row 1; the JSON row 3 comes second
    ("grid", grid, "cell", wrong_on((1, 4), "1020"), "window-serialization", 2,
     "CSV row 1 parses as ['2', '20', '12', '200', '1020', '120'], "
     "not ['2', '20', '12', '200', '102', '120']"),
    # each column is its top and 29 cells below; cell (10, 20) is the 11th case of column 20
    ("grid", grid, "cell", wrong_on((10, 20), "0"), "columns-follow-add-two", 20 * 30 + 11,
     "cell(10, 20) is 0, not 220002"),
    # "1210" is 48 in base 3, entry 48 of the walk
    ("fractal", fractal, "locate", wrong_on(("1210",), grid.GridCoord(0, 0)),
     "traversal-counts-in-ternary", 49,
     "entry 48: locate(1210) != walk coordinate GridCoord(row=3, col=8)"),
    # "10" is 3 in base 3; "2", worth 2, sits in row 1
    ("fractal", fractal, "locate", wrong_on(("10",), grid.GridCoord(3, 0)),
     "decrement-drops-at-most-one-row", 3, "3 (10) sits in row 3, 2 in row 1"),
    # column 0 of row 5 is "2101", worth 64; rows 0-4 come first
    ("fractal", fractal, "row_values_below", wrong_on((5, 65), [60, 64]),
     "column-0-minimal-and-increasing", 6, "row 5 holds [60, 64] up to its column-0 64"),
    # rows 1 and 2 of the zoomed 30 x 64 window trade places; it is the first of two windows
    ("fractal", fractal, "zoom_out", swapping(1, 2), "zoom-out-fixed-point", 30 * 64,
     "zoom_out of the 30 x 64 window differs from the 20 x 32 window "
     "first in row 1, column 0: '21', not '2'"),
    # a 2 x 2 window is not 3r x 2c
    ("fractal", fractal, "zoom_out", wrong_on(([["0", "1"], ["2", "20"]],), [["0"]]),
     "zoom-rejects-bad-shapes", 1,
     "zoom_out of a 2 x 2 window returned [['0']] and raised no WindowShapeError"),
    # cell (4, 5) is in the lower halfZ anchored at (1, 2), cell (4, 4) in the upper one;
    # rows 0-3 give 4 * 64 cases before it
    ("fractal", fractal, "halfz_of", wrong_on((4, 5), fractal.halfz_of(4, 4)),
     "cells-partition-into-halfzs", 4 * 64 + 6, "cell (4,5) missing from its own halfZ"),
    # the same halfZ, its members in the wrong order: the other members list them right
    ("fractal", fractal, "halfz_of", reversing_members(4, 5), "cells-partition-into-halfzs",
     4 * 64 + 6, "members of (4,5) disagree about their triple"),
    # a level-2 halfZ for level 1: level 0 runs 18 x 8 cases, then (9, 8) at level 1
    ("fractal", fractal, "halfz_of", wrong_on((9, 8, 1), fractal.halfz_of(9, 8, 2)),
     "prefix-loses-one-digit-per-level", 18 * 8 + 1, "level-1 prefix of (9,8): 22 vs 22200"),
    # counting from "1" to "2" carries nothing, so "1" and "2" share a level-0 halfZ; from
    # "2" to "10" it carries once, so they share only a level-1 halfZ
    ("fractal", fractal, "ternary_successor", wrong_on(("1",), ("2", 1)),
     "traversal-counts-in-ternary", 3, "entry 2: shares a level-0 halfZ with its predecessor"),
    ("fractal", fractal, "ternary_successor", wrong_on(("2",), ("10", 0)),
     "traversal-counts-in-ternary", 4, "entry 3: not in one level-0 halfZ"),
    # digit 2 after an odd row leads to digit 0's cell, one row up: from an even prefix
    # row, P 2 lands a row below P 1, and then P 2 0 two rows below P 1 2.  Only the
    # lemma reads _step at call time; the grid's tables were built from the real one
    ("fractal", grid, "_step", wrong_on((1, 0, 2), (1, 1)), "decrement-lemma-at-every-length",
     7, "x = P 2 0^1, x - 1 = P 1 2^1, P in an even row: row(x - 1) - row(x) may be -2"),
    # "21", "22", "121", "122" are the strings below row 2 that come first
    ("witness", witness, "decompose", wrong_on(("201",), ("2", "0", "0")),
     "decompose-reassembles", 5, "decompose(201) = ('2', '0', '0')"),
    # witness() does not split x, so only the 26-digit example's parse goes wrong
    ("witness", witness, "decompose", wrong_on((X26,), (X26, "", "")), "26-digit-example", 1,
     f"decompose gave {(X26, '', '')}"),
    # "1" sits in row 0, the first impossible target tried
    ("witness", witness, "witness", wrong_on(("1", 0), witness.witness("2", 0)),
     "rejects-impossible-targets", 1,
     f"witness(1, 0) returned {witness.witness('2', 0)!r} and raised no NotApplicableError"),
    # 0, 4 ("11") and 8 ("22") are an AP, but in row 0; 2, 5, 6 sit in row 1 and 7, 8 in
    # row 2, so (22, 1) is the 7th exclusion
    ("witness", witness, "witness",
     wrong_on(("22", 1), (witness.WitnessPair("22", 1, "0", "11"), [witness.TAG_DEGENERATE])),
     "all-exclusions-have-witnesses", 7, "witness(22, 1): pair not in row 1"),
    # 2, 6, 8 is no AP
    ("witness", witness, "witness",
     wrong_on(("22", 1), (witness.WitnessPair("22", 1, "2", "20"), [witness.TAG_DEGENERATE])),
     "all-exclusions-have-witnesses", 7, "witness(22, 1) gave 2, 20"),
    # 5, 6, 7 is the AP in row 1 that pushes 7 to row 2, the 4th exclusion once 5 or 6 is
    # sieved into row 0 (0, 3, 6 pushes 6 to row 1, 1, 4, 7 pushes 7 past row 0)
    ("witness", greedy, "build_partition", sieve_moving(5, 0), "all-exclusions-have-witnesses",
     4, "witness(21, 1): 5 not sieved into row 1"),
    ("witness", greedy, "build_partition", sieve_moving(6, 0), "all-exclusions-have-witnesses",
     4, "witness(21, 1): 6 not sieved into row 1"),
    # "2" is the first exclusion: 0, 1, 2 in row 0
    ("witness", witness, "witness",
     wrong_on(("2", 0), (witness.witness("2", 0)[0], ["no-such-tag"])),
     "all-exclusions-have-witnesses", 1, "unknown trace tag in ['no-such-tag']"),
    # 4 ("11") sits in grid row 0, so no witness explains a row-1 sieve; 2 ("2"), the only
    # exclusion before it, comes first
    ("witness", greedy, "build_partition", sieve_moving(4, 1), "all-exclusions-have-witnesses",
     2, "4 = (11)_3 sieved into row 1, past its grid row 0"),
    # (standard, 2, "0") is the 7th step; a peculiar step is allowed there, but is not the
    # smallest step allowed
    ("witness", witness, "_STEPS",
     replacing((witness._STANDARD, 2, "0"),
               (witness.TAG_PECULIAR, witness._STANDARD, 1, "1", "2")),
     "witness-steps-follow-the-digit-rules", 7,
     "step ('standard', 2, '0') -> ('peculiar', 'standard', 1, '1', '2') "
     "is not the smallest allowed (0, 0, 1, 2, 1)"),
    # a row-3a target over a stripped 0 moves to row 2a + 1, not 2a.  From g = 1 with
    # c > d so far, (p % 3, q % 2) = (1, 1) strips that 0 and the loop stops in the target
    # row, c > d: the 4th case, after the three signs at (1, 0)
    ("witness", witness, "_STEPS",
     replacing((witness._STANDARD, 0, "0"),
               (witness.TAG_APPEND_EVEN, witness._STANDARD, 1, "0", "0")),
     "witness-loop-ends-in-the-target-row", 4,
     "step ('standard', 0, '0') -> ('append-0mod3', 'standard', 1, '0', '0') "
     "from g = 1, sign -1 leaves h = -1"),
    # A024629 is the second bundled sequence; its b-file starts at index 0
    ("refdata", refdata, "bundled",
     wrong_on(("A024629",), refdata.ReferenceSequence("A024629", 1, refdata.bundled("A024629").terms)),
     "bundled-bfiles-load", 2, "A024629: empty or not starting at offset 1"),
    # a line of three fields is the second of the parser's two cases
    ("refdata", refdata, "parse_bfile", wrong_on(("0 1 2\n",), ((0, 1),)), "bfile-parser", 2,
     "parse_bfile('0 1 2\\n') returned ((0, 1),) and raised no BFileFormatError"),
    # A005836 is the first bundled sequence; its third index is left out
    ("refdata", refdata, "bundled",
     wrong_on(("A005836",), refdata.ReferenceSequence("A005836", A005836.offset,
                                                      A005836.terms[:2] + A005836.terms[3:])),
     "bundled-bfiles-load", 1, "A005836: non-contiguous indices"),
    ("refdata", refdata, "parse_bfile", wrong_on((BFILE,), ((0, 5),)), "bfile-parser", 1,
     "a b-file with a comment and a blank line parses as ((0, 5),), not ((0, 5), (1, 7))"),
    ("theorem1", grid, "cell", wrong_on((5, 0), "0"), "first-terms-read-down-column-0", 6,
     "row 5: sieve starts 64, column 0 reads 0"),
    ("theorem1", greedy, "build_partition", SHORT_SIEVE, "first-terms-read-down-column-0", 4,
     "row 3 never opened below 1740"),
    # column 0 of row 5 is "2101", the base-3/2 numeral of 10
    ("theorem1", radix, "represent", wrong_on((10,), "21"), "first-terms-read-down-column-0", 6,
     "row 5: column 0 is 2101, (2i)_3/2 is 21"),
    ("theorem2", fractal, "row_values_below", wrong_on((4, 2187), []),
     "rows-equal-grid-value-sets", 5, "row 4: sieve [23, 26, 50, 53, 59]..., grid []..."),
    # the grid must leave row 3 empty below the bound, where the sieve opened no row 3
    ("theorem2", greedy, "build_partition", SHORT_SIEVE, "rows-equal-grid-value-sets", 4,
     "row 3: sieve []..., grid [21, 22, 24, 25, 48]..."),
    # row 1 then holds "0", worth 0, fed from row 0
    ("theorem2", fractal, "_zoom", zoom_swapping_0_and_2, "rows-equal-grid-value-sets", 2,
     "row 1: sieve [2, 5, 6, 11, 14]..., grid [0, 3, 9, 11, 12]..."),
]


def _mutant_ids():
    """A suite's first mutant is named for the suite, its later ones add the check they
    trip, and a check's later mutants add their number."""
    seen = collections.Counter()
    ids = []
    for i, m in enumerate(MUTANTS):
        name = m[0] if m[0] not in {e[0] for e in MUTANTS[:i]} else f"{m[0]}-{m[4]}"
        seen[name] += 1
        ids.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return ids


@pytest.mark.parametrize("suite,module,fn,mutant,check,checked,detail", MUTANTS,
                         ids=_mutant_ids())
def test_failures_name_a_counterexample(monkeypatch, suite, module, fn, mutant, check, checked,
                                        detail):
    monkeypatch.setattr(module, fn, mutant(getattr(module, fn)))
    report = verify.run_suite(suite, max_value=2187, max_rows=20)
    failed = {r.name: r for r in report.results if not r.passed}
    assert check in failed
    assert all(r.detail for r in failed.values()), failed
    assert (failed[check].checked, failed[check].detail) == (checked, detail)


def test_every_check_has_a_mutant():
    assert {ln.split()[1] for ln in SMALL_REPORT.splitlines()[:-1]} == {m[4] for m in MUTANTS}


def test_a_step_the_loop_check_refutes_also_fails_the_exclusion_check(monkeypatch):
    # witness() runs _FUSED, built from _STEPS at import, so rebuild it from the mutant
    # table: (20)_3 = 6 then comes out of the loop with c = d, as the loop check predicts
    key = (witness._STANDARD, 0, "0")
    monkeypatch.setitem(witness._STEPS, key, (witness.TAG_APPEND_EVEN, witness._STANDARD, 1, "0", "0"))
    fused = itertools.product(witness._SHAPES, range(3), range(3), range(2))
    monkeypatch.setattr(witness, "_FUSED", tuple(itertools.starmap(witness._fused_step, fused)))
    failed = {r.name: (r.checked, r.detail)
              for r in verify.run_suite("witness", max_value=2187).results if not r.passed}
    assert failed["all-exclusions-have-witnesses"] == (3, "witness(20, 0) gave 20, 20")
    assert "witness-loop-ends-in-the-target-row" in failed


def test_a_sieve_that_opens_too_few_rows_fails_every_check_that_reads_its_rows(
        monkeypatch, capsys):
    monkeypatch.setattr(greedy, "build_partition", SHORT_SIEVE(greedy.build_partition))
    code = cli.main(["verify", "--suite", "all", *SMALL])
    out, err = capsys.readouterr()
    assert (code, err) == (cli.EXIT_VERIFY_FAILED, "")
    assert [ln for ln in out.splitlines() if ln.startswith("FAIL")] == [
        f"FAIL {check} (checked {checked}) -- {detail}"
        for _, _, _, mutant, check, checked, detail in MUTANTS if mutant is SHORT_SIEVE]
    # the values that rows 0-2 hold skipped 379 rows in all; those of no row count none
    assert "ok   skips-are-forced (checked 379)" in out.splitlines()


def test_a_passing_json_report_has_no_details(capsys):
    code = cli.main(["verify", "--suite", "all", "--max-value", "2187", "--max-rows", "20",
                     "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"]
    assert [c["detail"] for c in doc["checks"]] == [""] * 38


@pytest.mark.parametrize("row", [m for m, name in zip(MUTANTS, _mutant_ids())
                                 if name in ("theorem1", "witness")], ids=lambda m: m[0])
def test_mutants_reach_the_worker_processes(monkeypatch, row):
    suite, module, fn, mutant, check, checked, detail = row
    monkeypatch.setattr(module, fn, mutant(getattr(module, fn)))
    together = verify.run_suite("all", max_value=2187, max_rows=20)
    # one worker per CPU, and a run that reports a failing check leaves none behind
    assert together.processes == min(len(os.sched_getaffinity(0)), len(checks._RUNNERS))
    assert not multiprocessing.active_children()
    alone = [r for s in verify.SUITES[:-1]
             for r in verify.run_suite(s, max_value=2187, max_rows=20).results]
    assert together.results == alone
    failed = {r.name: r for r in together.results if not r.passed}
    assert failed[check].checked == checked


def test_without_sched_getaffinity_one_worker_runs_per_cpu(monkeypatch, capsys):
    # CPython has os.sched_getaffinity on Linux only
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code = cli.main(["verify", "--suite", "all", *SMALL, "--timings"])
    out, err = capsys.readouterr()
    assert (code, out) == (0, SMALL_REPORT)
    assert err.endswith(" in 3 processes\n")


def test_without_fork_the_suites_run_in_this_process(monkeypatch, capsys):
    # as on Windows: no os.fork, so neither verify's pool nor the sieve can fork
    limit = greedy._TWO_PROCESSES_FROM
    with monkeypatch.context() as m:
        m.setattr(greedy, "_TWO_PROCESSES_FROM", limit + 1)
        alone = greedy.build_partition(limit)._assignment.tolist()
    monkeypatch.delattr(os, "fork")
    code = cli.main(["verify", "--suite", "all", *SMALL, "--timings"])
    out, err = capsys.readouterr()
    assert (code, out) == (0, SMALL_REPORT)
    assert err.endswith(" in 1 process\n")
    # a fork would raise AttributeError; the sieve fills every row in this process
    assert greedy.build_partition(limit)._assignment.tolist() == alone


EXCEPTIONS = [
    witness.NotApplicableError("x lies in row 0"),
    greedy.InsufficientRangeError("bound 10 too small", required_bound=27),
    verify.CapExceededError("--max-value is 10, beyond cap 5"),
    grid.MalformedStringError("'013' is not canonical"),
    radix.InvalidDigitError("digit 3 in '13'"),
    fractal.WindowShapeError("2 x 2 is not 3r x 2c"),
    refdata.BFileFormatError("line 1: '0 1 2'"),
]


@pytest.mark.parametrize("exc", EXCEPTIONS, ids=lambda e: type(e).__name__)
def test_exceptions_cross_a_process_boundary(exc):
    got = pickle.loads(pickle.dumps(exc))
    assert type(got) is type(exc)
    assert (str(got), vars(got)) == (str(exc), vars(exc))


def test_an_error_in_a_worker_exits_as_in_one_process(monkeypatch, capsys):
    def broken(max_value):
        raise greedy.InsufficientRangeError("bound 10 too small", required_bound=27)
    monkeypatch.setattr(checks, "suite_witness", broken)
    outcomes = []
    for suite in ("witness", "all"):
        code = cli.main(["verify", "--suite", suite, *SMALL])
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes == [(cli.EXIT_BOUND,
                         "error: bound 10 too small (a bound of 27 suffices)\n")] * 2
    # a run in which a suite raises leaves no worker behind
    with pytest.raises(greedy.InsufficientRangeError):
        verify.run_suite("all", max_value=2187, max_rows=20)
    assert not multiprocessing.active_children()


def test_output_buffered_before_the_workers_start_is_written_once():
    # stdout is a pipe, so the marker waits in the buffer when the workers fork
    script = ("import sys; from stanleygrid import cli; print('marker'); "
              "sys.exit(cli.main(['verify', '--suite', 'all', *sys.argv[1:]]))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    run = subprocess.run([sys.executable, "-c", script, *SMALL], capture_output=True,
                         text=True, timeout=120, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "marker\n" + SMALL_REPORT


def test_a_swapped_traversal_names_the_first_entry_out_of_order(monkeypatch):
    # "1202" and "1210" are entries 47 and 48 of the walk
    monkeypatch.setattr(fractal, "traversal", swapping(47, 48)(fractal.traversal))
    failed = [r for r in verify.run_suite("fractal", max_value=2187, max_rows=20).results
              if not r.passed]
    assert [outcome(r) for r in failed] == [(False, 48, "entry 47: visited 1210, counting says 1202")]
    assert failed[0].name == "traversal-counts-in-ternary"


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
    assert checks._witness_steps().checked == 18
    monkeypatch.setitem(witness._STEPS, key, step)
    got = checks._witness_steps()
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
        return "" if ok and w2 == radix.canonicalize(w2) else f"add_two({w}) = {w2}"
    return map(fault, checks._strings(carry_length))


def round_trip_faults(count):
    for base in (radix.BASE_3_2, radix.BASE_3, radix.RationalBase(5, 3)):
        for n in range(count):
            w = radix.represent(n, base)
            ok = radix.evaluate(w, base) == n and w == radix.canonicalize(w)
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
    ap, skips = checks._row_checks(part)
    assert (ap.name, skips.name) == ("rows-are-3free", "skips-are-forced")
    assert outcome(ap) == per_case(ap_faults(part))
    assert outcome(skips) == per_case(skip_faults(part))


def test_numpy_checks_match_the_per_case_scans_at_the_small_bound():
    assert outcome(checks._carry_rule(7)) == per_case(carry_faults(7)) == (True, 2187, "")
    assert outcome(checks._round_trip(2187)) == per_case(round_trip_faults(2187))
    assert_row_checks_match(greedy.build_partition(2187))


# 19683 strings of at most 9 digits make five blocks of 4096: "2122" is in the
# first, "120000000" (index 10935) in the third and "222222222" is the last string
@pytest.mark.parametrize("w,checked", [("2122", 72), ("120000000", 10936), ("222222222", 19683)])
def test_carry_rule_matches_the_per_case_scan_under_a_mutant(monkeypatch, w, checked):
    monkeypatch.setattr(radix, "add_two", wrong_on((w,), w)(radix.add_two))
    got = outcome(checks._carry_rule(9))
    assert got == per_case(carry_faults(9)) == (False, checked, f"add_two({w}) = {w}")


def test_round_trip_matches_the_per_case_scan_under_a_mutant(monkeypatch):
    base = radix.RationalBase(5, 3)
    monkeypatch.setattr(radix, "represent", wrong_on((99999, base), "1")(radix.represent))
    got = outcome(checks._round_trip(100_000))
    assert got == per_case(round_trip_faults(100_000)) == (False, 300_000, "99999 in base 5/3 is 1")


@pytest.mark.parametrize("n,row", [(16, 1), (16, 3), (1502, 0), (2186, 9)],
                         ids=["16-to-earlier", "16-to-later", "1502-to-row-0", "2186-to-row-9"])
def test_row_checks_match_the_per_case_scans_on_a_moved_value(n, row):
    part = greedy.build_partition(2187)
    assert part.row_index(n) != row
    assert_row_checks_match(moved(part, n, row))


# At 3^9 row 0 has 512 terms, 130,816 pairs, and the rows 3,874,455 pairs in all.
# 19682 (222222222 in base 3) moved into row 0 ends an AP with 0 and 9841, row 0's
# largest term, in its 511th pair; 19681 moved into row 1 is found past row 0's pairs.
@pytest.mark.parametrize("n,row,ap,skips", [
    (None, None, (True, 3874455, ""), (True, 429795, "")),
    (19682, 0, (False, 511, "AP 0, 9841, 19682"), None),
    (19681, 1, (False, 131829, "AP 5, 9843, 19681"),
     (False, 429736, "n=19682 skipped row 60 without a witness")),
], ids=["sieve", "19682-to-row-0", "19681-to-row-1"])
def test_row_checks_are_pinned_at_3_to_the_9(n, row, ap, skips):
    part = greedy.build_partition(3**9)
    got_ap, got_skips = checks._row_checks(part if n is None else moved(part, n, row))
    assert outcome(got_ap) == ap
    assert skips is None or outcome(got_skips) == skips


# a fresh interpreter, where importing the package has loaded neither numpy nor the
# checks; prints whether `module` is loaded before the run, then at the pool's start
FORK_SPY = """
import concurrent.futures, os, sys
from stanleygrid import verify
module = sys.argv[1]
os.sched_getaffinity = lambda pid: {0, 1}
real = concurrent.futures.ProcessPoolExecutor
loaded = []
def spy(*args, **kwargs):
    loaded.append(module in sys.modules)
    return real(*args, **kwargs)
concurrent.futures.ProcessPoolExecutor = spy
print(module in sys.modules)
report = verify.run_suite("all", *map(int, sys.argv[2:]))
print(loaded, report.processes, report.passed)
"""


def fork_spy(module):
    run = subprocess.run([sys.executable, "-c", FORK_SPY, module, "2187", "20"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_the_workers_fork_after_numpy_is_loaded():
    assert fork_spy("numpy") == ["False", "[True] 2 True"]


def test_the_workers_fork_after_the_checks_are_loaded():
    assert fork_spy("stanleygrid.checks") == ["False", "[True] 2 True"]


# a fresh interpreter: the OS threads of this process right after numpy's import, then
# at each fork of a two-process sieve and of verify's pool
THREADS_AT_FORK = """
import os
import numpy
threads = lambda: len(os.listdir("/proc/self/task"))
print(threads())
from stanleygrid import greedy, verify
fork, seen = os.fork, []
def spy():
    seen.append(threads())
    return fork()
os.fork = spy
greedy.build_partition(greedy._TWO_PROCESSES_FROM)
print(seen)
seen.clear()
assert verify.run_suite("all", max_value=3**7, max_rows=10).passed
print(seen)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(greedy._cpus()) < 2,
                    reason="needs /proc/self/task, fork and two usable CPUs")
def test_no_fork_sees_a_thread_numpy_did_not_start():
    # a fork copies only the calling thread; the sieve's child and verify's workers rely
    # on no other thread than numpy's own (OpenBLAS's, whose fork handlers it registers)
    run = subprocess.run([sys.executable, "-c", THREADS_AT_FORK], capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    after_numpy, sieve, pool = map(json.loads, run.stdout.splitlines())
    assert sieve and pool, "a path did not fork"
    assert max(sieve + pool) <= after_numpy, run.stdout


def test_verify_names_the_suites_the_checks_run():
    # argparse's choices read verify.SUITES; a suite added in one place only fails here
    assert verify.SUITES[:-1] == tuple(checks._RUNNERS) and verify.SUITES[-1] == "all"
