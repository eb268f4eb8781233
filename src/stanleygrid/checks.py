"""The checks behind `verify`: one list of CheckResults per suite.

Each suite re-checks one slice of the package against independent
computations: digit algebra against exact Fraction arithmetic, the sieve
against the grid, the grid against the fractal decomposition, witness
construction against the grid's and the sieve's rows and its step table
against the digit rules.  Each check carries its wall-clock duration,
which verify's report leaves out of its text and JSON.

The radix and greedy checks with millions of cases keep one call per case
to the code under test (`add_two`, `represent`) and take the sieve's rows
as they are, but compute the independent side with numpy: the value of a
digit string as one int64 matrix product over its padded digits, and every
third term 2b - a of a row's pairs as one array.  Strings go through
numpy one bounded block of 4096 at a time, so memory stays flat however
far the sweep reaches; a failing block reports the first counterexample in
the order of the per-case scan, and the same count of cases up to it.  The
greedy row checks take a whole row's pairs at once, in that order too,
as one square matrix per row: verify sieves below 3^9, where a row has at
most 512 terms, 130,816 pairs.  numpy is imported inside the functions
that use it, so importing this module does not load it.

verify.run_suite imports this module when it runs, so no other command
compiles it.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from . import fractal, greedy, grid, radix, refdata, witness

if TYPE_CHECKING:
    import numpy as np

_BLOCK = 4096                      # strings per numpy block


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    checked: int
    detail: str = ""
    duration_s: float = field(default=0.0, compare=False)


_last_lap = 0.0   # perf_counter() when the last check finished; each suite resets it


def _lap() -> float:
    """Seconds since the last check of this suite finished (or the suite
    started), charged to the check finishing now.

    Work shared by several checks of a suite (a sieve, say) is thus charged
    to the first check after it.  Charges stay within a suite, so they hold
    whichever process runs it: the checks of a suite sum to its time, and
    the checks of a run to the time its processes spent in suites.
    """
    global _last_lap
    now = time.perf_counter()
    spent, _last_lap = now - _last_lap, now
    return spent


def _result(name: str, passed: bool, checked: int, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), checked=checked, detail=detail,
                       duration_s=_lap())


def _scan(name: str, cases: Iterable[str]) -> CheckResult:
    """Run a many-case check: each case yields "" if it holds, else its counterexample.

    The scan stops at the first counterexample; `checked` counts the cases
    run, the failing one included.
    """
    return _scan_blocks(name, ((1, fault) for fault in cases))


def _scan_blocks(name: str, blocks: Iterable[tuple[int, str]]) -> CheckResult:
    """`_scan` over blocks of cases: each block yields (its case count, "") if
    all its cases hold, else (the cases up to its first counterexample, that one).
    """
    checked = 0
    for count, fault in blocks:
        checked += count
        if fault:
            return _result(name, False, checked, fault)
    return _result(name, True, checked)


def _block(ok: np.ndarray, fault) -> tuple[int, str]:
    """One block's (count, counterexample) from its mask of cases that hold;
    fault(i) describes case i."""
    import numpy as np

    bad = np.flatnonzero(~ok)
    if bad.size:
        return int(bad[0]) + 1, fault(int(bad[0]))
    return len(ok), ""


def _strings(max_len: int) -> Iterator[str]:
    """Every canonical string of at most max_len digits: "0" first, then shortest first."""
    yield "0"
    for length in range(1, max_len + 1):
        for lead in "12":
            for rest in itertools.product("012", repeat=length - 1):
                yield lead + "".join(rest)


def _rejects(exc: type[Exception], call: str, fn, *args) -> str:
    """"" if fn(*args) raises exc, else what the call (written `call`) returned instead."""
    try:
        got = fn(*args)
    except exc:
        return ""
    return f"{call} returned {got!r} and raised no {exc.__name__}"


# ---------------------------------------------------------------------------
# radix

def _digit_values(strings: list[str], p: int, q: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """V = [w]_{p/q} * q^(width-1) of each string as int64, and a mask of the well-formed ones.

    Left-padding a string with zeros to `width` keeps its value, so the
    padded digits form one byte matrix and V is one product with the
    weights q^i p^(width-1-i).  A string is well-formed if it is canonical,
    has at most `width` digits and every digit lies in 0..p-1.
    """
    import numpy as np

    weights = [q**i * p ** (width - 1 - i) for i in range(width)]
    assert (p - 1) * sum(weights) < 2**63, f"{width} digits in base {p}/{q} overflow int64"
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    fits = (lengths >= 1) & (lengths <= width)
    if not fits.all():
        strings = [s if 1 <= len(s) <= width else "" for s in strings]
    raw = "".join([s.rjust(width, "0") for s in strings]).encode("ascii", "replace")
    # bytes below "0" wrap to 208 and up, so no non-digit passes digits < p
    digits = np.frombuffer(raw, dtype=np.uint8).reshape(len(strings), width) - ord("0")
    lead = digits[np.arange(len(strings)), width - np.clip(lengths, 1, width)]
    ok = fits & (digits < p).all(axis=1) & ((lengths == 1) | (lead != 0))
    return digits.astype(np.int64) @ np.array(weights, dtype=np.int64), ok


def _blocks_of(items: Iterable) -> Iterator[list]:
    it = iter(items)
    while block := list(itertools.islice(it, _BLOCK)):
        yield block


def _carry_rule(carry_length: int) -> CheckResult:
    """add_two(w) is canonical and worth [w] + 2 for every string of at most carry_length digits.

    At width W = carry_length + 1 that is V(add_two(w)) = V(w) + 2^W.
    """
    width = carry_length + 1

    def blocks():
        for ws in _blocks_of(_strings(carry_length)):
            w2s = [radix.add_two(w) for w in ws]
            v, _ = _digit_values(ws, 3, 2, width)
            v2, ok = _digit_values(w2s, 3, 2, width)
            yield _block(ok & (v2 == v + 2**width), lambda i: f"add_two({ws[i]}) = {w2s[i]}")
    return _scan_blocks(f"carry-rule-lengths<={carry_length}", blocks())


def _round_trip(count: int) -> CheckResult:
    """represent(n, base) is canonical and worth n, for n < count in three bases.

    The value comes from the digits alone: V = n * q^(W-1), W the longest string of the block.
    """
    import numpy as np

    def blocks():
        for base in (radix.BASE_3_2, radix.BASE_3, radix.RationalBase(5, 3)):
            for ns in _blocks_of(range(count)):
                ws = [radix.represent(n, base) for n in ns]
                width = max(map(len, ws))
                v, ok = _digit_values(ws, base.p, base.q, width)
                want = np.array(ns, dtype=np.int64) * base.q ** (width - 1)
                yield _block(ok & (v == want), lambda i: f"{ns[i]} in base {base} is {ws[i]}")
    return _scan_blocks("round-trip-three-bases", blocks())


def suite_radix(max_value: int) -> list[CheckResult]:
    # sweep every string up to the length that covers max_value
    carry_length = 1
    while 3 ** (carry_length + 1) <= max_value and carry_length < 12:
        carry_length += 1
    out = []

    ref = refdata.bundled("A024629")
    got = [radix.represent(n) for n in range(len(ref))]
    want = [str(v) for v in ref.values]
    out.append(_terms_vs("base32-prefix-vs-A024629", "the base-3/2 numeral of", got, "A024629",
                         want, len(ref)))

    out.append(_round_trip(min(100_000, max_value)))
    out.append(_carry_rule(carry_length))

    out.append(_scan("leading-zeros-are-neutral", (
        "" if radix.evaluate("00" + w) == radix.evaluate(w) else f"00{w} != {w}"
        for w in map(radix.represent, range(0, 2000, 7)))))

    out.append(_scan("rejects-bad-digits", [
        _rejects(radix.InvalidDigitError, "add_two('13')", radix.add_two, "13")]))
    return out


# ---------------------------------------------------------------------------
# greedy

def _row_checks(part: greedy.GreedyPartition) -> list[CheckResult]:
    """rows-are-3free and skips-are-forced, in one pass over the sieve's rows.

    For row j, every pair a < b of its terms gives c = 2b - a (a row is read
    off the value -> row map in increasing order).  The row is 3-free if no c lies in
    row j, and every n that the sieve put in a later row must equal some c:
    n skipped row j only because a, b, n is an AP.
    A row's pairs go through numpy all at once: 2b - a for every a (down)
    and b (across) of the row, masked to the upper triangle, reads them
    row-major, in the order of itertools.combinations, the per-case order of
    the first check; the second check's per-case order is (n, j).  verify
    sieves below 3^9, where the largest row, row 0, has 512 terms: a 512 x
    512 matrix of 130,816 pairs.  Values stay below 2 * limit, so int32.
    """
    import numpy as np

    limit = part.bound
    owner = np.full(2 * limit, -1, dtype=np.int32)    # row of each value; every c < 2 * limit
    owner[:limit] = part._assignment
    later = np.maximum(owner[:limit], 0)               # rows each value skipped; 0 if in none
    pairs = 0
    ap_fault = ""
    skip = None                                        # first unforced (n, j) in (n, j) order
    for j in range(part.num_rows):
        t = np.array(part.row(j), dtype=np.int32)
        upper = np.triu(np.ones((len(t), len(t)), dtype=bool), 1)
        c = (2 * t - t[:, None])[upper]
        if not ap_fault:
            count, ap_fault = _block(owner[c] != j,
                                     lambda k: "AP {}, {}, {}".format(*t[np.argwhere(upper)[k]], c[k]))
            pairs += count
        hit = np.zeros(limit, dtype=bool)
        hit[c[c < limit]] = True
        unforced = np.flatnonzero((later > j) & ~hit)
        if unforced.size and (skip is None or unforced[0] < skip[0]):
            skip = int(unforced[0]), j

    out = [_result("rows-are-3free", not ap_fault, pairs, ap_fault)]
    if skip is None:
        out.append(_result("skips-are-forced", True, int(later.sum())))
    else:
        n, j = skip
        out.append(_result("skips-are-forced", False, int(later[:n].sum()) + j + 1,
                           f"n={n} skipped row {j} without a witness"))
    return out


def _terms_vs(name: str, what: str, got: Iterable, ref: str, want: list,
              checked: int) -> CheckResult:
    """`got` lists `want`; a failure names the first term where it parts from
    `ref`, as "{what} i is g, {ref} has w"."""
    terms = enumerate(itertools.zip_longest(got, want, fillvalue="none"))
    fault = next((f"{what} {i} is {g}, {ref} has {w}" for i, (g, w) in terms if g != w), "")
    return _result(name, not fault, checked, fault)


def suite_greedy(max_value: int) -> list[CheckResult]:
    out = []
    limit = min(3**9, max_value)
    part = greedy.build_partition(limit)

    rowless = next((n for n, j in enumerate(part._assignment.tolist()) if j < 0), None)
    fault = f"{rowless} is in no row" if rowless is not None else ""
    out.append(_result("rows-partition-the-range", not fault, limit, fault))

    out += _row_checks(part)

    # bundled terms below the sieve bound; the rows hold every such term
    ref0 = [v for v in refdata.bundled("A005836").values if v < limit]
    ref1 = [v for v in refdata.bundled("A323398").values if v < limit]
    ternary = [radix.represent(n, radix.BASE_3) for n in range(limit)]
    no2 = [n for n, s in enumerate(ternary) if "2" not in s]
    single2 = [n for n, s in enumerate(ternary) if s.count("2") == 1 and s.rstrip("0").endswith("2")]
    out.append(_terms_vs("row0-prefix-vs-A005836", "row 0 term", part.row(0)[: len(ref0)],
                         "A005836", ref0, len(ref0)))
    out.append(_terms_vs("row1-prefix-vs-A323398", "row 1 term", part.row(1)[: len(ref1)],
                         "A323398", ref1, len(ref1)))
    out.append(_terms_vs("row0-is-the-no-2-set", "row 0 term", part.row(0), "the no-2 set", no2,
                         limit))
    out.append(_terms_vs("row1-is-the-single-2-set", "row 1 term", part.row(1),
                         "the single-2 set", single2, limit))

    refx = [v for v in refdata.bundled("A265316").values if v < limit]
    got = greedy.cross_sequence(part, min(len(refx), part.num_rows))
    out.append(_terms_vs("cross-prefix-vs-A265316", "cross term", got, "A265316", refx,
                         len(refx)))
    return out


# ---------------------------------------------------------------------------
# grid

def suite_grid() -> list[CheckResult]:
    out = []
    win = grid.window(30, 64)

    corner = [
        ["0", "1", "10", "11", "100", "101"],
        ["2", "20", "12", "200", "102", "120"],
        ["21", "22", "201", "202", "121", "122"],
        ["210", "211", "220", "221", "2010", "2011"],
    ]
    out.append(_scan("top-left-corner", (
        "" if win.cells[i][j] == s else f"cell({i}, {j}) is {win.cells[i][j]}, not {s}"
        for i, row in enumerate(corner) for j, s in enumerate(row))))

    def columns():
        for j in range(win.cols):
            top = win.cells[0][j]
            yield "" if top == grid.binary_string(j) else f"column {j} starts {top}"
            for i in range(win.rows - 1):
                below = win.cells[i + 1][j]
                want = radix.add_two(win.cells[i][j])
                yield "" if below == want else f"cell({i + 1}, {j}) is {below}, not {want}"
    out.append(_scan("columns-follow-add-two", columns()))

    # every short canonical string appears exactly once, where locate says,
    # and no string appears twice
    where: dict[str, list[tuple[int, int]]] = {}
    for i, row in enumerate(grid.window(46, 64).cells):
        for j, s in enumerate(row):
            where.setdefault(s, []).append((i, j))
    short = list(_strings(6))
    fault = next((f"{s} sits at {where.get(s, [])}, locate says {tuple(fractal.locate(s))}"
                  for s in short if where.get(s) != [fractal.locate(s)]), "")
    fault = fault or next((f"{s} sits at {at}" for s, at in where.items() if len(at) > 1), "")
    out.append(_result("strings-upto-len6-unique", not fault, len(short), fault))

    def prefixed():
        for i in range(0, 12):
            for j in range(0, 16):
                w = grid.cell(i, j)
                for y in ("1", "10", "11", "110"):
                    yield "" if grid.row_of(y + w) == i else f"{y}+cell({i}, {j}) leaves row {i}"
    out.append(_scan("binary-prefixes-keep-the-row", prefixed()))

    def suffixes():
        for i in range(0, 20):
            for j in range(0, 32):
                s = grid.main_suffix(grid.cell(i, j))
                ok = grid.row_of(s) == i if s else i == 0
                yield "" if ok else f"main suffix {s!r} of cell({i}, {j}) is not in row {i}"
    out.append(_scan("main-suffix-determines-the-row", suffixes()))

    def by_value():
        for i in range(13):
            vals = sorted(radix.evaluate(w) for w in win.cells[i])
            vset = set(vals)
            for a, b in itertools.combinations(vals, 2):
                yield f"row {i}: AP ending {2 * b - a}" if 2 * b - a in vset else ""
    out.append(_scan("rows-are-3free-by-value", by_value()))

    w = grid.window(4, 6)
    csv_row = w.to_csv().splitlines()[1].split(",")
    json_row = json.loads(w.to_json())[3]
    fault = (f"CSV row 1 parses as {csv_row}, not {corner[1]}" if csv_row != corner[1]
             else f"JSON row 3 parses as {json_row}, not {corner[3]}" if json_row != corner[3]
             else "")
    out.append(_result("window-serialization", not fault, 2, fault))
    return out


# ---------------------------------------------------------------------------
# fractal

def _halfz_fault(i: int, j: int) -> str:
    """Cell (i, j) sits in its own halfZ, whose members share its prefix and its triple."""
    hz = fractal.halfz_of(i, j)
    if (i, j) not in hz.members:
        return f"cell ({i},{j}) missing from its own halfZ"
    prefixes = {radix.canonicalize(grid.cell(*m)[:-1]) for m in hz.members}
    if prefixes != {hz.lcp} or grid.cell(*hz.lcp_coord) != hz.lcp:
        return f"halfZ at ({i},{j}): prefix mismatch {prefixes} vs {hz.lcp}"
    if any(fractal.halfz_of(*m).members != hz.members for m in hz.members):
        return f"members of ({i},{j}) disagree about their triple"
    return ""


def _step_fault(n: int, s: str, coord: grid.GridCoord, count: str,
                prev: grid.GridCoord | None, depth: int) -> str:
    """Traversal entry n reads the ternary `count`, sits where locate says, and
    shares a level-`depth` halfZ, but no lower one, with the entry before it
    (`depth` is the carry depth of the step that counted up to it)."""
    if s != count:
        return f"entry {n}: visited {s}, counting says {count}"
    if fractal.locate(s) != coord:
        return f"entry {n}: locate({s}) != walk coordinate {coord}"
    if prev is None:
        return ""
    a = prev
    b = coord
    for _ in range(depth):
        a = fractal.zoom_coord(*a)
        b = fractal.zoom_coord(*b)
    if a == b:
        return f"entry {n}: shares a level-{depth - 1} halfZ with its predecessor"
    if fractal.zoom_coord(*a) != fractal.zoom_coord(*b):
        return f"entry {n}: not in one level-{depth} halfZ"
    return ""


def _window_fault(what: str, got: list[list[str]], want: grid.GridWindow) -> str:
    """"" if got holds the cells of the window `want`, else the first cell where they differ."""
    for i, (a, b) in enumerate(itertools.zip_longest(got, want.cells, fillvalue=())):
        for j, (x, y) in enumerate(itertools.zip_longest(a, b)):
            if x != y:
                return (f"{what} differs from the {want.rows} x {want.cols} window "
                        f"first in row {i}, column {j}: {x!r}, not {y!r}")
    return ""


def suite_fractal(max_value: int, max_rows: int) -> list[CheckResult]:
    out = []

    # partition into halfZ triples + anchor/prefix consistency
    out.append(_scan("cells-partition-into-halfzs",
                     (_halfz_fault(i, j) for i in range(30) for j in range(64))))

    # a 3r x 2c block of halfZs collapses onto the 2r x c top-left window;
    # each window zoomed counts its cells
    def fixed_points():
        once = fractal.zoom_out(grid.window(30, 64).cells)
        yield 30 * 64, _window_fault("zoom_out of the 30 x 64 window", once, grid.window(20, 32))
        twice = fractal.zoom_out(fractal.zoom_out(grid.window(90, 128).cells))
        yield 90 * 128, _window_fault("zoom_out twice of the 90 x 128 window", twice,
                                      grid.window(40, 32))
    out.append(_scan_blocks("zoom-out-fixed-point", fixed_points()))

    out.append(_scan("zoom-rejects-bad-shapes", [
        _rejects(fractal.WindowShapeError, "zoom_out of a 2 x 2 window", fractal.zoom_out,
                 [["0", "1"], ["2", "20"]])]))

    def prefix_lengths():
        for m in range(0, 4):
            for i in range(9, 27):
                for j in range(8, 16):
                    lcp = fractal.halfz_of(i, j, m).lcp
                    w = grid.cell(i, j)
                    wrong = lcp != "0" and len(w) - len(lcp) != m + 1
                    yield f"level-{m} prefix of ({i},{j}): {lcp} vs {w}" if wrong else ""
    out.append(_scan("prefix-loses-one-digit-per-level", prefix_lengths()))

    limit = min(3**9, max_value)

    def steps():
        count = "0"
        depth = 0
        prev = None
        for n, (s, coord) in enumerate(fractal.traversal(limit)):
            yield _step_fault(n, s, coord, count, prev, depth)
            prev = coord
            count, depth = fractal.ternary_successor(count)
    out.append(_scan("traversal-counts-in-ternary", steps()))

    def decrements():
        w, row = "0", 0
        for v in range(1, limit):
            w, _ = fractal.ternary_successor(w)
            prev, row = row, fractal.locate(w).row
            yield "" if prev >= row - 1 else f"{v} ({w}) sits in row {row}, {v - 1} in row {prev}"
    out.append(_scan("decrement-drops-at-most-one-row", decrements()))
    out.append(_decrement_lemma())

    def column_0():
        prev = -1
        for i in range(max_rows):
            v = int(grid.cell(i, 0), 3)
            if v <= prev:
                yield f"column 0 is worth {prev} in row {i - 1}, {v} in row {i}"
            else:
                below = fractal.row_values_below(i, v + 1)
                yield "" if below[:1] == [v] else f"row {i} holds {below[:5]} up to its column-0 {v}"
            prev = v
    out.append(_scan("column-0-minimal-and-increasing", column_0()))
    return out


def _decrement_lemma() -> CheckResult:
    """row(x - 1) >= row(x) - 1 for every numeral x > 0, read off grid._step.

    Write x = P e 0^k with e = 1 or 2, so x - 1 = P (e-1) 2^k, and walk both
    from P's cell.  Digit g takes row p to 3 (p // 2) + r(p % 2, g), with r
    read from _step in rows 0 and 1, so a step takes
    delta = row(x - 1) - row(x) to 3 (delta - b' + b) / 2 + r(b', g') - r(b, g),
    where b and b' are the parities of row(x) and row(x - 1).  The state is delta and b, which
    gives b'; the next b depends on a higher bit of the row, so both are
    tried, and the states reached cover every P.  The first step reads e
    against e - 1 from a prefix row of either parity, each later one 0
    against 2.  Each r lies in 0..2, so delta' >= 1.5 delta - 3.5 > delta
    once delta > 7: the walk stops expanding there.  `checked` counts the
    states reached.
    """
    def r(b: int, g: int) -> int:
        return grid._step(b, 0, g)[0]

    # (delta, b) -> (the prefix row's parity, e, k) of the first x that reaches it
    reached: dict[tuple[int, int], tuple[int, int, int]] = {}
    queue = [((r(b0, e - 1) - r(b0, e), b), (b0, e, 0))
             for b0 in (0, 1) for e in (1, 2) for b in (0, 1)]
    for state, (b0, e, k) in queue:            # the queue grows as it is read
        if state in reached:
            continue
        reached[state] = b0, e, k
        delta, b = state
        if delta < -1:
            return _result("decrement-lemma-at-every-length", False, len(reached),
                           f"x = P {e} 0^{k}, x - 1 = P {e - 1} 2^{k}, P in an "
                           f"{'odd' if b0 else 'even'} row: row(x - 1) - row(x) may be {delta}")
        if delta <= 7:
            b1 = (b + delta) & 1
            after = 3 * (delta - b1 + b) // 2 + r(b1, 2) - r(b, 0)
            queue += [((after, b2), (b0, e, k + 1)) for b2 in (0, 1)]
    return _result("decrement-lemma-at-every-length", True, len(reached))


# ---------------------------------------------------------------------------
# witness

def suite_witness(max_value: int) -> list[CheckResult]:
    out = []
    limit = min(3**7, max_value)
    part = greedy.build_partition(limit)

    x = "11102010220102110110011000"
    pair, trace = witness.witness(x, 1)
    parts = witness.decompose(x)
    b = "11101010110101110101200000"
    c3, d3, v3 = pair.values
    rows = grid.row_of(pair.c), grid.row_of(pair.d)
    fault = (f"decompose gave {parts}" if parts != ("111020102201021101", "10011", "000")
             else f"b is {pair.d}, not {b}" if pair.d != b
             else f"a = {pair.c}, b, x is not an AP" if not (d3 - c3 == v3 - d3 and c3 < d3)
             else f"a, b sit in rows {rows}, not 1" if rows != (1, 1) else "")
    out.append(_result("26-digit-example", not fault, 1, fault))

    # w = (n)_3; each witness must be an AP c < d < n in grid row j and in sieve row j
    def exclusion_fault(w: str, n: int, j: int) -> str:
        p, tr = witness.witness(w, j)
        c3, d3, _ = p.values
        if d3 - c3 != n - d3 or c3 >= d3:
            return f"witness({w}, {j}) gave {p.c}, {p.d}"
        if grid.row_of(p.c) != j or grid.row_of(p.d) != j:
            return f"witness({w}, {j}): pair not in row {j}"
        if part.row_index(c3) != j:
            return f"witness({w}, {j}): {c3} not sieved into row {j}"
        if part.row_index(d3) != j:
            return f"witness({w}, {j}): {d3} not sieved into row {j}"
        if set(tr) - witness.TAGS:
            return f"unknown trace tag in {tr}"
        return ""

    def exclusions():
        w = "0"
        for n in range(limit):
            row = part.row_index(n)
            # witnesses exist only for the rows above n's grid row: a sieve row past it fails
            if row > (got := grid.row_of(w)):
                yield f"{n} = ({w})_3 sieved into row {row}, past its grid row {got}"
            for j in range(row):
                yield exclusion_fault(w, n, j)
            w, _ = fractal.ternary_successor(w)
    out.append(_scan("all-exclusions-have-witnesses", exclusions()))

    out.append(_scan("decompose-reassembles", (
        "" if "".join(witness.decompose(w)) == w else f"decompose({w}) = {witness.decompose(w)}"
        for w in _strings(6) if fractal.locate(w).row >= 2)))

    out.append(_scan("rejects-impossible-targets", (
        _rejects(witness.NotApplicableError, f"witness({w}, {j})", witness.witness, w, j)
        for w, j in (("1", 0), ("2", 1), ("0", 0)))))

    out.append(_witness_steps())
    out.append(_witness_loop())
    return out


def _witness_steps() -> CheckResult:
    """Each witness._STEPS entry follows the digit rules, and no smaller step does.

    Write s, s' for the current and next shape (1 = shifted), pi = 1 for a
    peculiar step, e for the stripped digit and c_d, d_d for the digits
    appended to c and d.  The progression survives the step iff
    3 (s' - pi) + 2 d_d = c_d + e + s.  The rows, read from the grid: c' in
    row 2a + bit must give c in row 3a + r, and d' in row 2a + bit + s' must
    give d in row 3a + r + s.  a = 0 suffices, since one more a adds 2 to
    each prefix row and 3 to the row it gives.  Of the 72 tuples
    (pi, s', bit, c_d, d_d), the table must take the smallest allowed one,
    so it makes no free choice.
    """
    def fault(key, step) -> str:
        shape, r, e = key
        s = int(shape == witness._SHIFTED)

        def allowed(pi, s2, bit, c_d, d_d):
            return (3 * (s2 - pi) + 2 * d_d == c_d + int(e) + s
                    and fractal.descend(grid.GridCoord(bit, 0), c_d).row == r
                    and fractal.descend(grid.GridCoord(bit + s2, 0), d_d).row == r + s)

        tag, shape2, bit, c_d, d_d = step
        got = (int(tag == witness.TAG_PECULIAR), int(shape2 == witness._SHIFTED),
               bit, int(c_d), int(d_d))
        if not allowed(*got):
            return f"step {key} -> {step} breaks a digit rule"
        best = min(t for t in itertools.product((0, 1), (0, 1), (0, 1), range(3), range(3))
                   if allowed(*t))
        return "" if got == best else f"step {key} -> {step} is not the smallest allowed {best}"
    return _scan("witness-steps-follow-the-digit-rules",
                 itertools.starmap(fault, witness._STEPS.items()))


def _witness_loop() -> CheckResult:
    """witness._construct's loop ends with the prefix in the target row and c < d.

    Write p for the prefix's row, t for the target row, s = 1 while the
    shape is shifted, g = p - t - s, and sign for the sign of d_d - c_d at
    the latest step that appended unequal digits (0 before any).  The
    invariant is h = g - [s = 0 and sign <= 0] >= 0.  It holds on entry,
    where row(x) > j.  The loop exits at s = 0 and p <= t, so there h >= 0
    gives p = t and sign = +1: c < d, since the latest step appends the
    leading digits of the tails.  With witness-steps-follow-the-digit-rules
    that makes c < d < x an AP in row j.

    A step, read through grid._zoom and _STEPS as _FUSED is built, takes p
    to 2 (p // 3) + offset and t = 3a + r to 2a + bit; a peculiar step may
    lose one more row, by the decrement lemma.  One more a adds 2 to both
    rows, so a = 0 suffices, and adding 3 to g adds 2 to g', so g < 6
    covers every g.  The cases are every state the loop steps from (s = 1,
    or s = 0 and g > 0), with each column bit and sign.
    """
    shapes = witness._SHAPES

    def cases():
        for s, r, g in itertools.product((0, 1), range(3), range(6)):
            if not (s or g):                   # p = t: the loop has stopped
                continue
            for b in (0, 1):
                offset, _, e = grid._zoom((g + r + s) % 3, b)
                key = (shapes[s], r, "012"[e])
                tag, shape2, bit, c_d, d_d = step = witness._STEPS[key]
                s2 = shapes.index(shape2)
                g2 = 2 * ((g + r + s) // 3) + offset - bit - s2 - (tag == witness.TAG_PECULIAR)
                for sign in (-1, 0, 1):
                    sign2 = (d_d > c_d) - (d_d < c_d) or sign     # unequal digits set it
                    h2 = g2 - (not s2 and sign2 <= 0)
                    yield "" if h2 >= 0 else (f"step {key} -> {step} from g = {g}, "
                                              f"sign {sign} leaves h = {h2}")
    return _scan("witness-loop-ends-in-the-target-row", cases())


# ---------------------------------------------------------------------------
# refdata

def _bfile_fault(sid: str) -> str:
    seq = refdata.bundled(sid)
    if len(seq) == 0 or seq.terms[0][0] != seq.offset:
        return f"{sid}: empty or not starting at offset {seq.offset}"
    if [i for i, _ in seq.terms] != list(range(seq.offset, seq.offset + len(seq))):
        return f"{sid}: non-contiguous indices"
    return ""


def suite_refdata() -> list[CheckResult]:
    out = [_scan("bundled-bfiles-load", map(_bfile_fault, refdata.bundled_ids()))]

    def parser_cases():
        got = refdata.parse_bfile("# comment\n\n0 5\n1 7\n")
        yield ("" if got == ((0, 5), (1, 7))
               else f"a b-file with a comment and a blank line parses as {got}, not ((0, 5), (1, 7))")
        bad = "0 1 2\n"
        yield _rejects(refdata.BFileFormatError, f"parse_bfile({bad!r})", refdata.parse_bfile, bad)
    out.append(_scan("bfile-parser", parser_cases()))
    return out


# ---------------------------------------------------------------------------
# theorems at scale

def suite_theorem1(max_rows: int) -> list[CheckResult]:
    bound = greedy.first_term_bound(max_rows)     # run_suite has checked it against the cap
    part = greedy.build_partition(bound)

    def row_fault(i: int) -> str:
        s = grid.cell(i, 0)
        terms = part.row(i)
        if not terms:
            return f"row {i} never opened below {bound}"
        if int(s, 3) != terms[0]:
            return f"row {i}: sieve starts {terms[0]}, column 0 reads {s}"
        if s != radix.represent(2 * i):
            return f"row {i}: column 0 is {s}, (2i)_3/2 is {radix.represent(2 * i)}"
        return ""
    return [_scan("first-terms-read-down-column-0", map(row_fault, range(max_rows)))]


def suite_theorem2(max_value: int) -> list[CheckResult]:
    bound = min(3**10, max_value)
    part = greedy.build_partition(bound)

    def row_fault(i: int) -> str:
        sieved = list(part.row(i))
        from_grid = fractal.row_values_below(i, bound)
        same = sieved == from_grid
        return "" if same else f"row {i}: sieve {sieved[:5]}..., grid {from_grid[:5]}..."
    # the sieve's rows cover [0, bound), so the grid leaves row num_rows empty below it
    return [_scan("rows-equal-grid-value-sets", map(row_fault, range(part.num_rows + 1)))]


# ---------------------------------------------------------------------------
# suites by name

# Each runner looks its suite up when called, so a replaced `suite_*` attribute is used.
# verify.SUITES lists these names in this order, then "all".
_RUNNERS = {
    "radix": lambda mv, mr: suite_radix(mv),
    "greedy": lambda mv, mr: suite_greedy(mv),
    "grid": lambda mv, mr: suite_grid(),
    "fractal": lambda mv, mr: suite_fractal(mv, mr),
    "witness": lambda mv, mr: suite_witness(mv),
    "refdata": lambda mv, mr: suite_refdata(),
    "theorem1": lambda mv, mr: suite_theorem1(mr),
    "theorem2": lambda mv, mr: suite_theorem2(mv),
}

# theorem1's sieve is the largest single piece of work in `all`, so it starts first
_START_ORDER = ("theorem1", *(s for s in _RUNNERS if s != "theorem1"))


def _run(suite: str, mv: int, mr: int) -> tuple[list[CheckResult], int, float, float]:
    """One suite's results, the pid of the process that ran it, and the suite's
    start and end on perf_counter, a clock every process on the host reads alike."""
    _lap()                             # the suite's first check is charged from here
    start = _last_lap
    results = _RUNNERS[suite](mv, mr)
    return results, os.getpid(), start, time.perf_counter()
