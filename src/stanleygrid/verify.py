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
from typing import Iterable, Iterator

from . import fractal, greedy, grid, radix, refdata, witness

DEFAULT_MAX_VALUE = 3**12          # 531441
DEFAULT_MAX_ROWS = 500
DEFAULT_ROWS = 200                 # rows verify checks when --max-rows is not given
CAP_ENV_VAR = "STANLEY_GRID_CAP"


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

    The env var is either "VALUE" or "VALUE,ROWS"; anything else, or a cap
    below 1, raises ValueError.
    """
    raw = os.environ.get(CAP_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_MAX_VALUE, DEFAULT_MAX_ROWS
    try:
        value, rows = map(int, raw.split(",")) if "," in raw else (int(raw), DEFAULT_MAX_ROWS)
    except ValueError:
        raise ValueError(f"cannot parse {CAP_ENV_VAR}={raw!r}; use VALUE or VALUE,ROWS") from None
    if value < 1 or rows < 1:
        raise ValueError(f"{CAP_ENV_VAR}={raw!r}: caps must be positive")
    return value, rows


def check_cap(what: str, amount: int, rows: bool = False) -> None:
    """Refuse a request whose `amount` exceeds the value cap (the row cap if `rows`).

    Every cap check in the package goes through here, before any work.
    """
    cap_value, cap_rows = resolve_caps()
    cap = cap_rows if rows else cap_value
    if amount > cap:
        kind = "row cap" if rows else "cap"
        raise CapExceededError(f"{what} is {amount}, beyond {kind} {cap} (raise via {CAP_ENV_VAR})")


def _result(name: str, passed: bool, checked: int, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), checked=checked, detail=detail)


def _scan(name: str, cases: Iterable[str]) -> CheckResult:
    """Run a many-case check: each case yields "" if it holds, else its counterexample.

    The scan stops at the first counterexample; `checked` counts the cases
    run, the failing one included.
    """
    checked = 0
    for fault in cases:
        checked += 1
        if fault:
            return _result(name, False, checked, fault)
    return _result(name, True, checked)


def _strings(max_len: int) -> Iterator[str]:
    """Every canonical string of at most max_len digits: "0" first, then shortest first."""
    yield "0"
    for length in range(1, max_len + 1):
        for lead in "12":
            for rest in itertools.product("012", repeat=length - 1):
                yield lead + "".join(rest)


def _raises(exc: type[Exception], fn, *args) -> bool:
    try:
        fn(*args)
    except exc:
        return True
    return False


# ---------------------------------------------------------------------------
# radix

def _carry_fault(w: str) -> str:
    w2 = radix.add_two(w)
    v1, e1 = radix.scaled_value(w)
    v2, e2 = radix.scaled_value(w2)
    # values v1/2^e1 + 2 == v2/2^e2 with e2 in {e1, e1+1}
    if e2 == e1:
        ok = v2 == v1 + 2 ** (e1 + 1)
    else:
        ok = e2 == e1 + 1 and v2 == 2 * v1 + 2 ** (e1 + 2)
    return "" if ok and radix.is_canonical(w2) else f"add_two({w}) = {w2}"


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

    def round_trips():
        for base in (radix.BASE_3_2, radix.BASE_3, radix.RationalBase(5, 3)):
            for n in range(min(100_000, max_value)):
                w = radix.represent(n, base)
                ok = radix.evaluate(w, base) == n and radix.is_canonical(w)
                yield "" if ok else f"{n} in base {base} is {w}"
    out.append(_scan("round-trip-three-bases", round_trips()))

    out.append(_scan(f"carry-rule-lengths<={carry_length}",
                     map(_carry_fault, _strings(carry_length))))

    out.append(_scan("leading-zeros-are-neutral", (
        "" if radix.evaluate("00" + w) == radix.evaluate(w) else f"00{w} != {w}"
        for w in map(radix.represent, range(0, 2000, 7)))))

    out.append(_result("rejects-bad-digits",
                       _raises(radix.InvalidDigitError, radix.add_two, "13"), 1))
    return out


# ---------------------------------------------------------------------------
# greedy

def suite_greedy(max_value: int) -> list[CheckResult]:
    out = []
    limit = min(3**9, max_value)
    part = greedy.build_partition(limit)
    row_sets = [set(r) for r in part.rows]

    sizes_ok = sum(len(r) for r in part.rows) == limit
    assign_ok = all(n in part.rows[part.row_index(n)] for n in range(0, limit, 211))
    out.append(_result("rows-partition-the-range", sizes_ok and assign_ok, limit))

    out.append(_scan("rows-are-3free", (
        f"AP {a}, {b}, {2 * b - a}" if 2 * b - a in members else ""
        for terms, members in zip(part.rows, row_sets)
        for a, b in itertools.combinations(terms, 2))))

    # greedy minimality: every skipped row must hold a completing pair
    def skips():
        for n in range(limit):
            for j in range(part.row_index(n)):
                row = part.rows[j]
                members = row_sets[j]
                lo = bisect.bisect_left(row, (n + 1) // 2)   # need 2b >= n
                hi = bisect.bisect_left(row, n)
                found = any((2 * row[t] - n) in members for t in range(hi - 1, lo - 1, -1))
                yield "" if found else f"n={n} skipped row {j} without a witness"
    out.append(_scan("skips-are-forced", skips()))

    # bundled terms below the sieve bound; the rows hold every such term
    ref0 = [v for v in refdata.bundled("A005836").values if v < limit]
    ref1 = [v for v in refdata.bundled("A323398").values if v < limit]
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

    refx = [v for v in refdata.bundled("A265316").values if v < limit]
    got = greedy.cross_sequence(part, len(refx))
    out.append(_result("cross-prefix-vs-A265316", got == refx, len(refx), f"got {got}"))

    def probes():
        for i in (0, 1, 2):
            for n in range(90):
                prefix = [t for t in part.row(i) if t < n]
                probe = greedy.is_ap_free_extension(prefix, n)
                # brute force over ordered pairs: n completes an AP iff n - b == b - a
                brute = not any(n - b == b - a for a in prefix for b in prefix if a < b)
                yield "" if probe == brute else f"row {i}, n={n}: probe {probe}, pairs {brute}"
    out.append(_scan("extension-probe-matches-definition", probes()))
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

    def columns():
        for j in range(win.cols):
            top = win.cells[0][j]
            yield "" if top == grid.binary_string(j) else f"column {j} starts {top}"
            for i in range(win.rows - 1):
                below = win.cells[i + 1][j]
                want = radix.add_two(win.cells[i][j])
                yield "" if below == want else f"cell({i + 1}, {j}) is {below}, not {want}"
    out.append(_scan("columns-follow-add-two", columns()))

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
    short = list(_strings(6))
    missing = [s for s in short if s not in seen]
    misplaced = [s for s in short if s in seen and fractal.locate(s) != seen[s]]
    out.append(_result(
        "strings-upto-len6-unique",
        not missing and not misplaced and bad == 0,
        len(short),
        f"missing {missing[:3]} misplaced {misplaced[:3]}",
    ))

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
            vals = [grid.value_fraction(w) for w in win.cells[i]]
            vset = set(vals)
            for a, b in itertools.combinations(vals, 2):
                ap = a != b and 2 * b - a in vset and max(a, b) == b
                yield f"row {i}: AP ending {2 * b - a}" if ap else ""
    out.append(_scan("rows-are-3free-by-value", by_value()))

    w = grid.window(4, 6)
    csv_ok = w.to_csv().splitlines()[1].split(",") == corner[1]
    json_ok = json.loads(w.to_json())[3] == corner[3]
    out.append(_result("window-serialization", csv_ok and json_ok, 2))
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


def suite_fractal(max_value: int, max_rows: int) -> list[CheckResult]:
    out = []

    # partition into halfZ triples + anchor/prefix consistency
    out.append(_scan("cells-partition-into-halfzs",
                     (_halfz_fault(i, j) for i in range(30) for j in range(64))))

    # a 3r x 2c block of halfZs collapses onto the 2r x c top-left window
    win = grid.window(30, 64)
    once = fractal.zoom_out(win.cells)
    ok1 = [list(r) for r in grid.window(20, 32).cells] == once
    big = grid.window(90, 128)
    twice = fractal.zoom_out(fractal.zoom_out(big.cells))
    ok2 = [list(r) for r in grid.window(40, 32).cells] == twice
    out.append(_result("zoom-out-fixed-point", ok1 and ok2, 30 * 64 + 90 * 128))

    bad_shape = [["0", "1"], ["2", "20"]]
    out.append(_result("zoom-rejects-bad-shapes",
                       _raises(fractal.WindowShapeError, fractal.zoom_out, bad_shape), 1))

    def prefix_lengths():
        for m in range(0, 4):
            for i in range(9, 27):
                for j in range(8, 16):
                    lcp = fractal.halfz_of(i, j, level=m).lcp
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

    rep = fractal.check_minus1(limit)
    out.append(_result("decrement-drops-at-most-one-row", rep.passed, rep.checked,
                       json.dumps(rep.counterexample) if rep.counterexample else ""))

    rep = fractal.check_zero_column(max_rows)
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

    def exclusion_fault(w: str, j: int) -> str:
        p, tr = witness.witness(w, j)
        c3, d3, v3 = p.values
        if d3 - c3 != v3 - d3 or not (c3 < d3 <= v3):
            return f"witness({w}, {j}) gave {p.c}, {p.d}"
        if grid.row_of(p.c) != j or grid.row_of(p.d) != j:
            return f"witness({w}, {j}): pair not in row {j}"
        if c3 < limit and part.row_index(c3) != j:
            return f"witness({w}, {j}): {c3} not sieved into row {j}"
        if d3 < limit and part.row_index(d3) != j:
            return f"witness({w}, {j}): {d3} not sieved into row {j}"
        if witness.witness_oracle(w, j, part) is None:
            return f"oracle found no pair for ({w}, {j})"
        if set(tr) - witness.TAGS:
            return f"unknown trace tag in {tr}"
        return ""

    def exclusions():
        w = "0"
        for n in range(limit):
            for j in range(part.row_index(n)):
                yield exclusion_fault(w, j)
            w, _ = fractal.ternary_successor(w)
    out.append(_scan("all-exclusions-have-witnesses", exclusions()))

    out.append(_scan("decompose-reassembles", (
        "" if "".join(witness.decompose(w)) == w else f"decompose({w}) = {witness.decompose(w)}"
        for w in _strings(6) if fractal.locate(w).row >= 2)))

    out.append(_scan("rejects-impossible-targets", (
        "" if _raises(witness.NotApplicableError, witness.witness, w, j)
        else f"witness({w}, {j}) raised no NotApplicableError"
        for w, j in (("1", 0), ("2", 1), ("0", 0)))))
    return out


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
    parsed_ok = refdata.parse_bfile("# comment\n\n0 5\n1 7\n") == ((0, 5), (1, 7))
    rejects = _raises(refdata.BFileFormatError, refdata.parse_bfile, "0 1 2\n")
    out.append(_result("bfile-parser", parsed_ok and rejects, 2))
    return out


# ---------------------------------------------------------------------------
# theorems at scale

def suite_theorem1(max_rows: int) -> list[CheckResult]:
    bound = greedy.first_term_bound(max_rows)
    check_cap(f"the sieve bound for {max_rows} rows", bound)
    part = greedy.build_partition(bound)

    def row_fault(i: int) -> str:
        s = grid.cell(i, 0)
        first = part.row(i)[0]
        if int(s, 3) != first:
            return f"row {i}: sieve starts {first}, column 0 reads {s}"
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
    # these rows cover [0, bound), so no grid row is left
    return [_scan("rows-equal-grid-value-sets", map(row_fault, range(part.num_rows)))]


# ---------------------------------------------------------------------------
# driver

# Each runner looks its suite up when called, so a replaced `suite_*` attribute is used.
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
SUITES = (*_RUNNERS, "all")


def run_suite(name: str, max_value: int | None = None, max_rows: int | None = None) -> VerificationReport:
    """Run one suite (or "all") and return its report."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    mv = DEFAULT_MAX_VALUE if max_value is None else max_value
    mr = DEFAULT_ROWS if max_rows is None else max_rows
    if mv < 1:
        raise ValueError(f"--max-value must be >= 1, got {mv}")
    if mr < 1:
        raise ValueError(f"--max-rows must be >= 1, got {mr}")
    check_cap("--max-value", mv)
    check_cap("--max-rows", mr, rows=True)
    if name in ("theorem1", "all"):
        check_cap(f"the sieve bound for {mr} rows", greedy.first_term_bound(mr))

    t0 = time.monotonic()
    results: list[CheckResult] = []
    for suite, run in _RUNNERS.items():
        if name in (suite, "all"):
            results += run(mv, mr)
    report = VerificationReport(suite=name, results=results)
    report.duration_s = time.monotonic() - t0
    return report
