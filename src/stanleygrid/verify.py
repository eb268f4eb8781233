"""Self-verification suites behind the `verify` CLI command.

Each suite re-checks one slice of the package against independent
computations: digit algebra against exact Fraction arithmetic, the sieve
against the grid, the grid against the fractal decomposition, witness
construction against a brute-force oracle.  Reports carry no timestamps
or timings, so repeated runs are byte-identical; wall-clock durations are
kept separately on the report object for callers that want them.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import time
from dataclasses import dataclass, field

from . import fractal, greedy, grid, radix, refdata, witness

DEFAULT_MAX_VALUE = 3**12          # 531441
DEFAULT_MAX_ROWS = 500
CAP_ENV_VAR = "STANLEY_GRID_CAP"

SUITES = (
    "radix",
    "greedy",
    "grid",
    "fractal",
    "witness",
    "refdata",
    "theorem1",
    "theorem2",
    "all",
)


class CapExceededError(RuntimeError):
    """A requested sweep size exceeds the configured safety cap."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    checked: int
    detail: str = ""


@dataclass
class VerificationReport:
    suite: str
    results: list[CheckResult] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            mark = "ok  " if r.passed else "FAIL"
            tail = f" -- {r.detail}" if (r.detail and not r.passed) else ""
            lines.append(f"{mark} {r.name} (checked {r.checked}){tail}")
        verdict = "PASS" if self.passed else "FAIL"
        n_ok = sum(1 for r in self.results if r.passed)
        lines.append(f"suite {self.suite}: {verdict} ({n_ok}/{len(self.results)} checks)")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "checked": r.checked, "detail": r.detail}
                for r in self.results
            ],
        }
        return json.dumps(doc, separators=(",", ":")) + "\n"


def resolve_caps() -> tuple[int, int]:
    """Current (max_value, max_rows) caps; STANLEY_GRID_CAP overrides.

    The env var is either "VALUE" or "VALUE,ROWS".
    """
    raw = os.environ.get(CAP_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_MAX_VALUE, DEFAULT_MAX_ROWS
    parts = raw.split(",")
    try:
        value = int(parts[0])
        rows = int(parts[1]) if len(parts) > 1 else DEFAULT_MAX_ROWS
    except ValueError:
        raise CapExceededError(f"cannot parse {CAP_ENV_VAR}={raw!r}; use VALUE or VALUE,ROWS")
    if value < 1 or rows < 1:
        raise CapExceededError(f"{CAP_ENV_VAR}={raw!r}: caps must be positive")
    return value, rows


def _check_caps(max_value: int, max_rows: int) -> None:
    cap_value, cap_rows = resolve_caps()
    if max_value > cap_value:
        raise CapExceededError(
            f"requested max_value {max_value} exceeds cap {cap_value} "
            f"(raise via {CAP_ENV_VAR})"
        )
    if max_rows > cap_rows:
        raise CapExceededError(
            f"requested max_rows {max_rows} exceeds cap {cap_rows} "
            f"(raise via {CAP_ENV_VAR})"
        )


def _result(name: str, passed: bool, checked: int, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), checked=checked, detail=detail)


# ---------------------------------------------------------------------------
# radix

def suite_radix(max_value: int) -> list[CheckResult]:
    # sweep every string up to the length that covers max_value
    carry_length = 1
    while 3 ** (carry_length + 1) <= max_value and carry_length < 12:
        carry_length += 1
    out = []

    ref = refdata.bundled("A024629")
    got = [radix.represent(n) for n in range(len(ref))]
    want = [str(v) for v in ref.values]
    out.append(_result("base32-prefix-vs-A024629", got == want, len(ref),
                       f"got {got[:5]}..."))

    rt_limit = min(100_000, max_value)
    bad = 0
    for base in (radix.BASE_3_2, radix.BASE_3, radix.RationalBase(5, 3)):
        for n in range(rt_limit):
            w = radix.represent(n, base)
            if radix.evaluate(w, base) != n or not radix.is_canonical(w):
                bad += 1
                break
    out.append(_result("round-trip-three-bases", bad == 0, 3 * rt_limit))

    checked = 0
    bad_carry = ""
    for length in range(1, carry_length + 1):
        for lead in "12":
            for rest in itertools.product("012", repeat=length - 1):
                w = lead + "".join(rest)
                w2 = radix.add_two(w)
                v1, e1 = radix.scaled_value(w)
                v2, e2 = radix.scaled_value(w2)
                # values v1/2^e1 + 2 == v2/2^e2 with e2 in {e1, e1+1}
                if e2 == e1:
                    ok = v2 == v1 + 2 ** (e1 + 1)
                else:
                    ok = e2 == e1 + 1 and v2 == 2 * v1 + 2 ** (e1 + 2)
                checked += 1
                if not (ok and radix.is_canonical(w2)):
                    bad_carry = f"add_two({w}) = {w2}"
                    break
            if bad_carry:
                break
        if bad_carry:
            break
    w2 = radix.add_two("0")
    checked += 1
    if w2 != "2":
        bad_carry = bad_carry or f"add_two(0) = {w2}"
    out.append(_result(f"carry-rule-lengths<={carry_length}", not bad_carry, checked, bad_carry))

    bad = 0
    for n in range(0, 2000, 7):
        w = radix.represent(n)
        if radix.evaluate("00" + w) != radix.evaluate(w):
            bad += 1
    out.append(_result("leading-zeros-are-neutral", bad == 0, len(range(0, 2000, 7))))

    try:
        radix.add_two("13")
        ok = False
    except radix.InvalidDigitError:
        ok = True
    out.append(_result("rejects-bad-digits", ok, 1))
    return out


# ---------------------------------------------------------------------------
# greedy

def _rows_are_3free(partition: greedy.GreedyPartition) -> tuple[bool, int, str]:
    checked = 0
    for terms in partition.rows:
        members = set(terms)
        for ai in range(len(terms)):
            a = terms[ai]
            for bi in range(ai + 1, len(terms)):
                b = terms[bi]
                checked += 1
                if 2 * b - a in members:
                    return False, checked, f"AP {a}, {b}, {2 * b - a}"
    return True, checked, ""


def suite_greedy(max_value: int) -> list[CheckResult]:
    out = []
    limit = min(3**9, max_value)
    part = greedy.build_partition(limit)

    sizes_ok = sum(len(r) for r in part.rows) == limit
    assign_ok = all(n in part.rows[part.row_index(n)] for n in range(0, limit, 211))
    out.append(_result("rows-partition-the-range", sizes_ok and assign_ok, limit))

    ok, checked, detail = _rows_are_3free(part)
    out.append(_result("rows-are-3free", ok, checked, detail))

    # greedy minimality: every skipped row must hold a completing pair
    bad = ""
    checked = 0
    row_sets = [set(r) for r in part.rows]
    for n in range(limit):
        top = part.row_index(n)
        for j in range(top):
            row = part.rows[j]
            members = row_sets[j]
            lo = bisect.bisect_left(row, (n + 1) // 2)   # need 2b >= n
            hi = bisect.bisect_left(row, n)
            found = any((2 * row[t] - n) in members for t in range(hi - 1, lo - 1, -1))
            checked += 1
            if not found:
                bad = f"n={n} skipped row {j} without a witness"
                break
        if bad:
            break
    out.append(_result("skips-are-forced", not bad, checked, bad))

    ref0 = refdata.bundled("A005836").values
    ref1 = refdata.bundled("A323398").values
    out.append(_result("row0-prefix-vs-A005836", list(part.row(0)[: len(ref0)]) == ref0, len(ref0)))
    out.append(_result("row1-prefix-vs-A323398", list(part.row(1)[: len(ref1)]) == ref1, len(ref1)))

    no2 = [n for n in range(limit) if "2" not in radix.represent(n, radix.BASE_3)]
    out.append(_result("row0-is-the-no-2-set", list(part.row(0)) == no2, limit))
    single2 = [
        n
        for n in range(limit)
        if (lambda s: s.count("2") == 1 and set(s[s.index("2") + 1 :]) <= {"0"})(
            radix.represent(n, radix.BASE_3)
        )
    ]
    out.append(_result("row1-is-the-single-2-set", list(part.row(1)) == single2, limit))

    refx = refdata.bundled("A265316").values
    got = greedy.cross_sequence(part, len(refx))
    out.append(_result("cross-prefix-vs-A265316", got == refx, len(refx), f"got {got}"))

    bad = 0
    for i in (0, 1, 2):
        sample = part.row(i)
        for n in range(90):
            prefix = [t for t in sample if t < n]
            lhs = greedy.is_ap_free_extension(prefix, n)
            # brute force over ordered pairs: n completes an AP iff n - b == b - a
            brute = not any(n - b == b - a for a in prefix for b in prefix if a < b)
            if lhs != brute:
                bad += 1
    out.append(_result("extension-probe-matches-definition", bad == 0, 3 * 90))
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
    got = [[win.cells[i][j] for j in range(6)] for i in range(4)]
    out.append(_result("top-left-corner", got == corner, 24))

    bad = 0
    for j in range(win.cols):
        if win.cells[0][j] != grid.binary_string(j):
            bad += 1
        for i in range(win.rows - 1):
            if win.cells[i + 1][j] != radix.add_two(win.cells[i][j]):
                bad += 1
    out.append(_result("columns-follow-add-two", bad == 0, win.rows * win.cols))

    # every short canonical string appears exactly once, where locate says
    big = grid.window(46, 64)
    seen: dict[str, tuple[int, int]] = {}
    bad = 0
    for i in range(big.rows):
        for j in range(big.cols):
            s = big.cells[i][j]
            if s in seen:
                bad += 1
            seen[s] = (i, j)
    short = ["0"]
    for length in range(1, 7):
        for lead in "12":
            for rest in itertools.product("012", repeat=length - 1):
                short.append(lead + "".join(rest))
    missing = [s for s in short if s not in seen]
    misplaced = [
        s for s in short if s in seen and tuple(fractal.locate(s)) != seen[s]
    ]
    out.append(_result(
        "strings-upto-len6-unique",
        not missing and not misplaced and bad == 0,
        len(short),
        f"missing {missing[:3]} misplaced {misplaced[:3]}",
    ))

    bad = 0
    checked = 0
    for i in range(0, 12):
        for j in range(0, 16):
            w = grid.cell(i, j)
            for y in ("1", "10", "11", "110"):
                checked += 1
                if grid.row_of(y + w) != i:
                    bad += 1
    out.append(_result("binary-prefixes-keep-the-row", bad == 0, checked))

    bad = 0
    checked = 0
    for i in range(0, 20):
        for j in range(0, 32):
            w = grid.cell(i, j)
            s = grid.main_suffix(w)
            checked += 1
            if s and grid.row_of(s) != i:
                bad += 1
            if not s and i != 0:
                bad += 1
    out.append(_result("main-suffix-determines-the-row", bad == 0, checked))

    bad = ""
    checked = 0
    for i in range(13):
        vals = [grid.value_fraction(win.cells[i][j]) for j in range(win.cols)]
        vset = set(vals)
        for a, b in itertools.combinations(vals, 2):
            checked += 1
            if a != b and 2 * b - a in vset and max(a, b) == b:
                bad = f"row {i}: AP ending {2 * b - a}"
                break
        if bad:
            break
    out.append(_result("rows-are-3free-by-value", not bad, checked, bad))

    w = grid.window(4, 6)
    csv_ok = w.to_csv().splitlines()[1].split(",") == corner[1]
    json_ok = json.loads(w.to_json())[3] == corner[3]
    out.append(_result("window-serialization", csv_ok and json_ok, 2))
    return out


# ---------------------------------------------------------------------------
# fractal

def suite_fractal(max_value: int, max_rows: int) -> list[CheckResult]:
    out = []

    # partition into halfZ triples + anchor/prefix consistency
    bad = ""
    checked = 0
    for i in range(30):
        for j in range(64):
            hz = fractal.halfz_of(i, j)
            checked += 1
            if (i, j) not in {tuple(m) for m in hz.members}:
                bad = f"cell ({i},{j}) missing from its own halfZ"
                break
            strings = [grid.cell(*m) for m in hz.members]
            prefixes = {radix.canonicalize(s[:-1]) for s in strings}
            if prefixes != {hz.lcp} or grid.cell(*hz.lcp_coord) != hz.lcp:
                bad = f"halfZ at ({i},{j}): prefix mismatch {prefixes} vs {hz.lcp}"
                break
            for m in hz.members:
                if fractal.halfz_of(*m).members != hz.members:
                    bad = f"members of ({i},{j}) disagree about their triple"
                    break
            if bad:
                break
        if bad:
            break
    out.append(_result("cells-partition-into-halfzs", not bad, checked, bad))

    # a 3r x 2c block of halfZs collapses onto the 2r x c top-left window
    win = grid.window(30, 64)
    once = fractal.zoom_out(win.cells)
    ok1 = [list(r) for r in grid.window(20, 32).cells] == once
    big = grid.window(90, 128)
    twice = fractal.zoom_out(fractal.zoom_out(big.cells))
    ok2 = [list(r) for r in grid.window(40, 32).cells] == twice
    out.append(_result("zoom-out-fixed-point", ok1 and ok2, 30 * 64 + 90 * 128))

    try:
        fractal.zoom_out([["0", "1"], ["2", "20"]])
        shape_ok = False
    except fractal.WindowShapeError:
        shape_ok = True
    out.append(_result("zoom-rejects-bad-shapes", shape_ok, 1))

    bad = ""
    checked = 0
    for m in range(0, 4):
        for i in range(9, 27):
            for j in range(8, 16):
                hz = fractal.halfz_of(i, j, level=m)
                checked += 1
                if hz.lcp != "0" and len(grid.cell(i, j)) - len(hz.lcp) != m + 1:
                    bad = f"level-{m} prefix of ({i},{j}): {hz.lcp} vs {grid.cell(i, j)}"
                    break
            if bad:
                break
        if bad:
            break
    out.append(_result("prefix-loses-one-digit-per-level", not bad, checked, bad))

    limit = min(3**9, max_value)
    walk = fractal.traversal(limit)
    bad = ""
    cur = "0"
    prev_coord = None
    for n, (s, coord) in enumerate(walk):
        if s != cur:
            bad = f"entry {n}: visited {s}, counting says {cur}"
            break
        if tuple(fractal.locate(s)) != tuple(coord):
            bad = f"entry {n}: locate({s}) != walk coordinate {coord}"
            break
        if n > 0:
            depth = len(prev_s) - len(prev_s.rstrip("2"))
            a = tuple(prev_coord)
            b = tuple(coord)
            for _ in range(depth):
                a = tuple(fractal.zoom_coord(*a))
                b = tuple(fractal.zoom_coord(*b))
            if a == b:
                bad = f"entry {n}: shares a level-{depth - 1} halfZ with its predecessor"
                break
            if tuple(fractal.zoom_coord(*a)) != tuple(fractal.zoom_coord(*b)):
                bad = f"entry {n}: not in one level-{depth} halfZ"
                break
        prev_s, prev_coord = s, coord
        cur, _ = fractal.ternary_successor(cur)
    out.append(_result("traversal-counts-in-ternary", not bad, len(walk), bad))

    rep = fractal.check_minus1(limit)
    out.append(_result("decrement-drops-at-most-one-row", rep.passed, rep.checked,
                       json.dumps(rep.counterexample) if rep.counterexample else ""))

    rows = min(200, max_rows)
    rep = fractal.check_zero_column(rows)
    out.append(_result("column-0-minimal-and-increasing", rep.passed, rep.checked,
                       json.dumps(rep.counterexample) if rep.counterexample else ""))
    return out


# ---------------------------------------------------------------------------
# witness

def suite_witness(max_value: int) -> list[CheckResult]:
    out = []
    limit = min(3**7, max_value)
    part = greedy.build_partition(limit)

    x = "11102010220102110110011000"
    pair, trace = witness.witness(x, 1)
    x1, x2, x3 = witness.decompose(x)
    parse_ok = (x1, x2, x3) == ("111020102201021101", "10011", "000")
    b_ok = pair.d == "11101010110101110101200000"
    c3, d3, v3 = pair.values
    ap_ok = d3 - c3 == v3 - d3 and c3 < d3
    rows_ok = grid.row_of(pair.c) == 1 and grid.row_of(pair.d) == 1
    out.append(_result(
        "26-digit-example",
        parse_ok and b_ok and ap_ok and rows_ok,
        1,
        f"parse={parse_ok} b={b_ok} ap={ap_ok} rows={rows_ok} a={pair.c}",
    ))

    bad = ""
    checked = 0
    strings = {}
    s = "0"
    for n in range(limit):
        strings[n] = s
        s, _ = fractal.ternary_successor(s)
    for n in range(limit):
        w = strings[n]
        top = part.row_index(n)
        for j in range(top):
            p, tr = witness.witness(w, j)
            c3, d3, v3 = p.values
            checked += 1
            if d3 - c3 != v3 - d3 or not (c3 < d3 <= v3):
                bad = f"witness({w}, {j}) gave {p.c}, {p.d}"
                break
            if grid.row_of(p.c) != j or grid.row_of(p.d) != j:
                bad = f"witness({w}, {j}): pair not in row {j}"
                break
            if c3 < limit and part.row_index(c3) != j:
                bad = f"witness({w}, {j}): {c3} not sieved into row {j}"
                break
            if d3 < limit and part.row_index(d3) != j:
                bad = f"witness({w}, {j}): {d3} not sieved into row {j}"
                break
            oracle = witness.witness_oracle(w, j, part)
            if oracle is None:
                bad = f"oracle found no pair for ({w}, {j})"
                break
            if set(tr) - {
                witness.TAG_ROW0, witness.TAG_DEGENERATE, witness.TAG_APPEND_EVEN,
                witness.TAG_APPEND_ODD, witness.TAG_KEEP0, witness.TAG_KEEP2,
                witness.TAG_SIMPLEST, witness.TAG_ITERATIVE, witness.TAG_PECULIAR,
                *witness.TAG_ROW1,
            }:
                bad = f"unknown trace tag in {tr}"
                break
        if bad:
            break
    out.append(_result("all-exclusions-have-witnesses", not bad, checked, bad))

    bad = 0
    checked = 0
    for length in range(1, 7):
        for lead in "12":
            for rest in itertools.product("012", repeat=length - 1):
                w = lead + "".join(rest)
                if fractal.locate(w).row < 2:
                    continue
                checked += 1
                p1, p2, p3 = witness.decompose(w)
                if p1 + p2 + p3 != w:
                    bad += 1
    out.append(_result("decompose-reassembles", bad == 0, checked))

    errs = 0
    for args in (("1", 0), ("2", 1), ("0", 0)):
        try:
            witness.witness(*args)
        except witness.NotApplicableError:
            errs += 1
    out.append(_result("rejects-impossible-targets", errs == 3, 3))
    return out


# ---------------------------------------------------------------------------
# refdata

def suite_refdata() -> list[CheckResult]:
    out = []
    ok = True
    detail = ""
    for sid in refdata.bundled_ids():
        seq = refdata.bundled(sid)
        if len(seq) == 0 or seq.terms[0][0] != seq.offset:
            ok = False
            detail = sid
        idxs = [i for i, _ in seq.terms]
        if idxs != list(range(seq.offset, seq.offset + len(seq))):
            ok = False
            detail = f"{sid}: non-contiguous indices"
    out.append(_result("bundled-bfiles-load", ok, len(refdata.bundled_ids()), detail))

    text = "# comment\n\n0 5\n1 7\n"
    ok = refdata.parse_bfile(text) == ((0, 5), (1, 7))
    try:
        refdata.parse_bfile("0 1 2\n")
        ok = False
    except refdata.BFileFormatError:
        pass
    out.append(_result("bfile-parser", ok, 2))
    return out


# ---------------------------------------------------------------------------
# theorems at scale

def suite_theorem1(max_rows: int) -> list[CheckResult]:
    out = []
    rows = min(200, max_rows)
    bound = greedy.first_term_bound(rows)
    _check_caps(bound, rows)
    part = greedy.build_partition(bound)
    bad = ""
    for i in range(rows):
        s = grid.cell(i, 0)
        first = part.row(i)[0]
        if int(s, 3) != first:
            bad = f"row {i}: sieve starts {first}, column 0 reads {s}"
            break
        if s != radix.represent(2 * i):
            bad = f"row {i}: column 0 is {s}, (2i)_3/2 is {radix.represent(2 * i)}"
            break
    out.append(_result("first-terms-read-down-column-0", not bad, rows, bad))
    return out


def suite_theorem2(max_value: int) -> list[CheckResult]:
    out = []
    bound = min(3**10, max_value)
    part = greedy.build_partition(bound)
    bad = ""
    for i in range(part.num_rows):      # these rows cover [0, bound), so no grid row is left
        sieved = list(part.row(i))
        from_grid = fractal.row_values_below(i, bound)
        if sieved != from_grid:
            bad = (f"row {i}: sieve {sieved[:5]}..., grid {from_grid[:5]}...")
            break
    out.append(_result("rows-equal-grid-value-sets", not bad, part.num_rows, bad))
    return out


# ---------------------------------------------------------------------------
# driver

def run_suite(name: str, max_value: int | None = None, max_rows: int | None = None) -> VerificationReport:
    """Run one suite (or "all") and return its report."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    mv = DEFAULT_MAX_VALUE if max_value is None else max_value
    mr = DEFAULT_MAX_ROWS if max_rows is None else max_rows
    if mv < 1:
        raise ValueError(f"--max-value must be >= 1, got {mv}")
    if mr < 1:
        raise ValueError(f"--max-rows must be >= 1, got {mr}")
    _check_caps(mv, mr)

    t0 = time.monotonic()
    results: list[CheckResult] = []
    if name in ("radix", "all"):
        results += suite_radix(mv)
    if name in ("greedy", "all"):
        results += suite_greedy(mv)
    if name in ("grid", "all"):
        results += suite_grid()
    if name in ("fractal", "all"):
        results += suite_fractal(mv, mr)
    if name in ("witness", "all"):
        results += suite_witness(mv)
    if name in ("refdata", "all"):
        results += suite_refdata()
    if name in ("theorem1", "all"):
        results += suite_theorem1(mr)
    if name in ("theorem2", "all"):
        results += suite_theorem2(mv)
    report = VerificationReport(suite=name, results=results)
    report.duration_s = time.monotonic() - t0
    return report
