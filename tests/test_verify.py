"""The verify report: every check's name, order and count, and what a failing check says."""

import dataclasses

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
ok   extension-probe-matches-definition (checked 270)
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


def wrong_on(args, value):
    """A mutant maker: the mutant returns `value` for `args`, the real result elsewhere."""
    return lambda real: lambda *a: value if a == args else real(*a)


def flipped_at_40(real):
    return lambda prefix, n: (not real(prefix, n)) if n == 40 else real(prefix, n)


# (suite, module, function, its mutant maker, the check that must catch it,
#  the number of cases that check runs up to and including the wrong one)
MUTANTS = [
    # "0", 2 one-digit and 6 two-digit strings come first; "122" is the 9th three-digit one
    ("radix", radix, "add_two", wrong_on(("122",), "122"), "carry-rule-lengths<=7", 18),
    # row 0 is probed first, at n = 0, 1, ..., 40
    ("greedy", greedy, "is_ap_free_extension", flipped_at_40,
     "extension-probe-matches-definition", 41),
    # "1" + cell(3, 0): rows 0-2 give 3 * 16 * 4 cases before it
    ("grid", grid, "row_of", wrong_on(("1210",), 0), "binary-prefixes-keep-the-row", 193),
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
                         ids=[m[0] for m in MUTANTS])
def test_failures_name_a_counterexample(monkeypatch, suite, module, fn, mutant, check, checked):
    monkeypatch.setattr(module, fn, mutant(getattr(module, fn)))
    report = verify.run_suite(suite, max_value=2187, max_rows=20)
    failed = {r.name: r for r in report.results if not r.passed}
    assert check in failed
    assert all(r.detail for r in failed.values()), failed
    assert failed[check].checked == checked
