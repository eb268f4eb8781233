"""Self-verification suites behind the `verify` CLI command.

Each suite re-checks one slice of the package against independent
computations: digit algebra against exact Fraction arithmetic, the sieve
against the grid, the grid against the fractal decomposition, witness
construction against a brute-force oracle and its step table against the
digit rules.  Reports carry no timestamps or timings, so repeated runs are
byte-identical; wall-clock durations are kept separately on the report and
on each check for callers that want them.

The radix and greedy checks with millions of cases keep one call per case
to the code under test (`add_two`, `represent`) and take the sieve's rows
as they are, but compute the independent side with numpy: the value of a
digit string as one int64 matrix product over its padded digits, and every
third term 2b - a of a row's pairs as one array.  Cases go through numpy
one bounded block at a time (4096 strings, or about 4096 pairs of one
row), so memory stays flat however far the sweep reaches.  A failing
block reports the first counterexample in the order of the per-case scan,
and the same count of cases up to it.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import fractal, greedy, grid, radix, refdata, witness

DEFAULT_MAX_VALUE = 3**12          # 531441
DEFAULT_MAX_ROWS = 500
DEFAULT_ROWS = 200                 # rows verify checks when --max-rows is not given
CAP_ENV_VAR = "STANLEY_GRID_CAP"
_BLOCK = 4096                      # cases per numpy block: strings, or one row's pairs


class CapExceededError(RuntimeError):
    """A requested sweep size exceeds the configured safety cap."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    checked: int
    detail: str = ""
    duration_s: float = field(default=0.0, compare=False)


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


_last_lap = 0.0   # perf_counter() when the last check finished; run_suite resets it


def _lap() -> float:
    """Seconds since the last check finished, charged to the check finishing now.

    Work shared by several checks (a sieve, say) is thus charged to the
    first check after it, and the checks of a run sum to its duration.
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


def _raises(exc: type[Exception], fn, *args) -> bool:
    try:
        fn(*args)
    except exc:
        return True
    return False


# ---------------------------------------------------------------------------
# radix

def _digit_values(strings: list[str], p: int, q: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """V = [w]_{p/q} * q^(width-1) of each string as int64, and a mask of the well-formed ones.

    Left-padding a string with zeros to `width` keeps its value, so the
    padded digits form one byte matrix and V is one product with the
    weights q^i p^(width-1-i).  A string is well-formed if it is canonical,
    has at most `width` digits and every digit lies in 0..p-1.
    """
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


def _blocks_of(items: Iterable, size: int = _BLOCK) -> Iterator[list]:
    it = iter(items)
    while block := list(itertools.islice(it, size)):
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
    out.append(_result("base32-prefix-vs-A024629", got == want, len(ref),
                       f"got {got[:5]}..."))

    out.append(_round_trip(min(100_000, max_value)))
    out.append(_carry_rule(carry_length))

    out.append(_scan("leading-zeros-are-neutral", (
        "" if radix.evaluate("00" + w) == radix.evaluate(w) else f"00{w} != {w}"
        for w in map(radix.represent, range(0, 2000, 7)))))

    out.append(_result("rejects-bad-digits",
                       _raises(radix.InvalidDigitError, radix.add_two, "13"), 1))
    return out


# ---------------------------------------------------------------------------
# greedy

def _row_checks(part: greedy.GreedyPartition) -> list[CheckResult]:
    """rows-are-3free and skips-are-forced, in one pass over the sieve's rows.

    For row j, every pair a < b of its terms gives c = 2b - a.  The row is
    3-free if no c lies in row j, and every n that the sieve put in a later
    row must equal some c: n skipped row j only because a, b, n is an AP.
    A row's pairs go through numpy a block of about 4096 at a time, in the
    order of itertools.combinations, the per-case order of the first check;
    the second check's per-case order is (n, j).
    """
    limit = part.bound
    owner = np.full(2 * limit, -1, dtype=np.int32)    # row of each value; every c < 2 * limit
    for j, terms in enumerate(part.rows):
        owner[list(terms)] = j
    later = owner[:limit]
    pairs = 0
    ap_fault = ""
    skip = None                                        # first unforced (n, j) in (n, j) order
    for j, terms in enumerate(part.rows):
        t = np.array(terms, dtype=np.int64)
        hit = np.zeros(limit, dtype=bool)
        step = max(1, _BLOCK // len(t))
        for i in range(0, len(t), step):
            # a = t[i:i + step] down, b = t[i + 1:] across; a real pair needs b's index above a's
            a = t[i:i + step, None]
            is_pair = np.arange(i + 1, len(t)) > np.arange(i, i + len(a))[:, None]
            c = (2 * t[i + 1:] - a)[is_pair]
            if not ap_fault:
                bad = np.flatnonzero(owner[c] == j)
                if bad.size:
                    k = int(bad[0])
                    a_k = int(np.broadcast_to(a, is_pair.shape)[is_pair][k])
                    pairs += k + 1
                    ap_fault = f"AP {a_k}, {(a_k + c[k]) // 2}, {c[k]}"
                else:
                    pairs += len(c)
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


def suite_greedy(max_value: int) -> list[CheckResult]:
    out = []
    limit = min(3**9, max_value)
    part = greedy.build_partition(limit)

    sizes_ok = sum(len(r) for r in part.rows) == limit
    assign_ok = all(n in part.rows[part.row_index(n)] for n in range(0, limit, 211))
    out.append(_result("rows-partition-the-range", sizes_ok and assign_ok, limit))

    out += _row_checks(part)

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
            vals = [radix.evaluate(w) for w in win.cells[i]]
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

    out.append(_witness_steps())
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

    _lap()                             # the first check is charged from here
    t0 = _last_lap
    results: list[CheckResult] = []
    for suite, run in _RUNNERS.items():
        if name in (suite, "all"):
            results += run(mv, mr)
    report = VerificationReport(suite=name, results=results)
    report.duration_s = time.perf_counter() - t0
    return report
