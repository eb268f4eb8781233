"""Why the greedy rows reject what they reject.

If the base-3 numeral x sits in grid row r, then for every target row
j < r there are strings c <= d whose cells lie in row j with
[d]_3 - [c]_3 = [x]_3 - [d]_3: the 3-term progression that forced the
greedy sieve to push [x]_3 past row j.  This module constructs such a
pair digit by digit and exposes an independent brute-force oracle.

The construction is one loop over one step table, _STEPS.  Each step
strips the last digit of x, which maps a row-(3a+r) target onto row 2a or
2a+1, and appends one digit to each of c and d.  A trailing 1 under a
row-(3a+1) target leaves the standard equation for a shifted one, which
may restart from the numeral one below the stripped prefix.  The loop
stops once the prefix sits in the target row, with c = d = the prefix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .fractal import locate
from .greedy import GreedyPartition, InsufficientRangeError
from .grid import GridCoord, _coord_of, _is_ternary, _zoom
from .radix import BASE_3, _read_int, canonicalize, represent, to_decimal


class NotApplicableError(ValueError):
    """No witness pair exists for this (x, target row) combination."""


class ConstructionError(RuntimeError):
    """The construction produced an invalid pair; carries the trace."""

    def __init__(self, msg: str, trace: list[str]):
        super().__init__(f"{msg} (trace: {' > '.join(trace)})")
        self.trace = list(trace)


# trace vocabulary, one tag per construction step
TAG_DEGENERATE = "degenerate"
TAG_APPEND_EVEN = "append-0mod3"
TAG_APPEND_ODD = "append-2mod3"
TAG_KEEP0 = "keep-0"
TAG_KEEP2 = "keep-2"
TAG_SIMPLEST = "simplest"
TAG_ITERATIVE = "iterative"
TAG_PECULIAR = "peculiar"
TAGS = frozenset({TAG_DEGENERATE, TAG_APPEND_EVEN, TAG_APPEND_ODD, TAG_KEEP0, TAG_KEEP2,
                  TAG_SIMPLEST, TAG_ITERATIVE, TAG_PECULIAR})


@dataclass(frozen=True)
class WitnessPair:
    """Witnesses c <= d in row target_row for the exclusion of x."""

    x: str
    target_row: int
    c: str
    d: str

    @property
    def values(self) -> tuple[int, int, int]:
        return _read_int(self.c, 3), _read_int(self.d, 3), _read_int(self.x, 3)

    def as_dict(self, trace: list[str] | None = None) -> dict:
        rec = {
            "x": self.x,
            "j": self.target_row,
            "c": self.c,
            "d": self.d,
            "values_base3": list(self.values),
        }
        if trace is not None:
            rec["trace"] = list(trace)
        return rec

    def to_json(self, trace: list[str] | None = None) -> str:
        """as_dict as compact JSON.  The values go through radix.to_decimal, since
        json.dumps writes ints with str(), which refuses more than 4300 digits."""
        fields = []
        for key, value in self.as_dict(trace).items():
            if key == "values_base3":
                text = "[" + ",".join(map(to_decimal, value)) + "]"
            else:
                text = json.dumps(value, separators=(",", ":"))
            fields.append(f"{json.dumps(key)}:{text}")
        return "{" + ",".join(fields) + "}"


def decompose(x: str) -> tuple[str, str, str]:
    """Split x into (x1, x2, x3) around its row-1 middle segment.

    x3 is the maximal run of trailing zeros; x2 is the maximal-fitting
    suffix of the remainder shaped 2, 2 0^j 1^k, 2 1^k, or 1 0^j 1^k
    (j, k >= 1); x1 is whatever precedes it.
    """
    if not _is_ternary(x):
        raise NotApplicableError(f"{x!r} is not a {{0,1,2}}-string")
    t0 = len(x) - len(x.rstrip("0"))
    x3 = "0" * t0
    y = x[: len(x) - t0] if t0 else x
    if not y:
        raise NotApplicableError(f"{x!r} has no nonzero digit")
    if y[-1] == "2":
        return y[:-1], "2", x3
    if y[-1] != "1":
        raise NotApplicableError(f"{x!r}: middle segment must end in 1 or 2")
    k = len(y) - len(y.rstrip("1"))
    rest = y[: len(y) - k]
    j = len(rest) - len(rest.rstrip("0"))
    head = rest[: len(rest) - j] if j else rest
    if not head:
        raise NotApplicableError(f"{x!r} has no digit 2 and no anchor for a middle segment")
    # head ends in 2, or in 1 with j > 0 (the run logic guarantees it)
    return head[:-1], head[-1] + "0" * j + "1" * k, x3


def witness(x: str, j: int) -> tuple[WitnessPair, list[str]]:
    """Witness pair for target row j plus the trace of construction steps."""
    if j < 0:
        raise NotApplicableError(f"target row must be >= 0, got {j}")
    at = _require_above(x, j)
    trace: list[str] = []
    c, d = _construct(x, at, j, trace)
    pair = WitnessPair(x=x, target_row=j, c=c, d=d)
    _validate(pair, trace)
    return pair, trace


def witness_oracle(x: str, j: int, partition: GreedyPartition) -> WitnessPair | None:
    """Brute-force witness: scan row j of a sieved partition directly.

    Returns the pair with the smallest d (then smallest c), or None if the
    row holds no witnesses below the partition bound.
    """
    _require_above(x, j)
    v = _read_int(x, 3)
    if v >= partition.bound:
        raise InsufficientRangeError(
            f"[x]_3 = {v} is outside the sieved range [0, {partition.bound})",
            required_bound=v + 1,
        )
    row = partition.row(j)
    members = set(row)
    for b in row:
        if 2 * b >= v and b < v and (2 * b - v) in members:
            return WitnessPair(
                x=x, target_row=j, c=represent(2 * b - v, BASE_3), d=represent(b, BASE_3)
            )
    return None


# ---------------------------------------------------------------------------
# internals

def _require_above(x: str, j: int) -> GridCoord:
    at = locate(x)  # also validates x
    if at.row <= j:
        raise NotApplicableError(f"{x!r} lies in row {at.row}, not below target row {j}")
    return at


# One step per (shape, t mod 3, last digit of x): (trace tag or None, next
# shape, bit b of the next target 2 * (t // 3) + b, digit appended to c,
# digit appended to d); a peculiar step also subtracts 1 from the prefix.
# Standard: [d] - [c] = [x] - [d] with c, d in row t.  Shifted:
# [d] - [c] = [x] + 1 - [d] with c in row t, d in row t + 1.
_STANDARD = "standard"
_SHIFTED = "shifted"
_STEPS = {
    (_STANDARD, 0, "0"): (TAG_APPEND_EVEN, _STANDARD, 0, "0", "0"),
    (_STANDARD, 0, "1"): (TAG_APPEND_EVEN, _STANDARD, 0, "1", "1"),
    (_STANDARD, 0, "2"): (TAG_APPEND_EVEN, _STANDARD, 0, "0", "1"),
    (_STANDARD, 1, "0"): (TAG_KEEP0, _STANDARD, 1, "0", "0"),
    (_STANDARD, 1, "1"): (None, _SHIFTED, 0, "2", "0"),
    (_STANDARD, 1, "2"): (TAG_KEEP2, _STANDARD, 0, "2", "2"),
    (_STANDARD, 2, "0"): (TAG_APPEND_ODD, _STANDARD, 1, "2", "1"),
    (_STANDARD, 2, "1"): (TAG_APPEND_ODD, _STANDARD, 1, "1", "1"),
    (_STANDARD, 2, "2"): (TAG_APPEND_ODD, _STANDARD, 1, "2", "2"),
    (_SHIFTED, 0, "0"): (TAG_PECULIAR, _STANDARD, 0, "0", "2"),
    (_SHIFTED, 0, "1"): (TAG_ITERATIVE, _SHIFTED, 0, "1", "0"),
    (_SHIFTED, 0, "2"): (TAG_SIMPLEST, _STANDARD, 0, "1", "2"),
    (_SHIFTED, 1, "0"): (TAG_PECULIAR, _STANDARD, 1, "0", "2"),
    (_SHIFTED, 1, "1"): (TAG_SIMPLEST, _STANDARD, 1, "0", "1"),
    (_SHIFTED, 1, "2"): (TAG_ITERATIVE, _SHIFTED, 0, "2", "1"),
    (_SHIFTED, 2, "0"): (TAG_ITERATIVE, _SHIFTED, 1, "2", "0"),
    (_SHIFTED, 2, "1"): (TAG_ITERATIVE, _SHIFTED, 1, "1", "0"),
    (_SHIFTED, 2, "2"): (TAG_ITERATIVE, _SHIFTED, 1, "2", "1"),
}


def _construct(x: str, at: GridCoord, j: int, trace: list[str]) -> tuple[str, str]:
    """Solve the standard equation for x, which sits at cell `at`, and target row j.

    Each step zooms the cell out to the prefix's, so no row check locates again.
    """
    digits = list(x)
    p, q = at
    shape, t = _STANDARD, j
    c_tail, d_tail = [], []
    while shape == _SHIFTED or p > t:
        a, r = divmod(t, 3)
        tag, shape, bit, c_digit, d_digit = _STEPS[shape, r, digits.pop()]
        p, q = _zoom(p, q)[:2]
        if tag is not None:
            trace.append(tag)
        if tag == TAG_PECULIAR:
            # minus 1: trailing 0s become 2s, the last nonzero digit drops by one; walk
            # just those digits again (a leading 0 left behind keeps the cell)
            i = len(digits) - 1
            while digits[i] == "0":
                i -= 1
            digits[i:] = [str(int(digits[i]) - 1)] + ["2"] * (len(digits) - 1 - i)
            for _ in range(len(digits) - i):
                p, q = _zoom(p, q)[:2]
            p, q = _coord_of("".join(digits[i:]), p, q)
        c_tail.append(c_digit)
        d_tail.append(d_digit)
        t = 2 * a + bit
    y = canonicalize("".join(digits))
    if p < t:
        raise ConstructionError(f"row({y}) = {p} < target {t}", trace)
    trace.append(TAG_DEGENERATE)
    return canonicalize(y + "".join(c_tail[::-1])), canonicalize(y + "".join(d_tail[::-1]))


def _validate(pair: WitnessPair, trace: list[str]) -> None:
    c3, d3, x3 = pair.values
    if d3 - c3 != x3 - d3:
        raise ConstructionError(f"not a progression: {pair.c}, {pair.d}, {pair.x}", trace)
    if c3 >= x3:
        raise ConstructionError(f"witnesses not below x: {pair.c} vs {pair.x}", trace)
    if c3 == d3:
        raise ConstructionError(f"degenerate pair {pair.c} = {pair.d} at top level", trace)
    for w in (pair.c, pair.d):
        got = locate(w).row
        if got != pair.target_row:
            raise ConstructionError(f"{w} lies in row {got}, wanted {pair.target_row}", trace)
