"""Why the greedy rows reject what they reject.

If the base-3 numeral x sits in grid row r, then for every target row
j < r there are strings c <= d whose cells lie in row j with
[d]_3 - [c]_3 = [x]_3 - [d]_3: the 3-term progression that forced the
greedy sieve to push [x]_3 past row j.  This module constructs such a
pair by digit recursion and exposes an independent brute-force oracle.

Two equation shapes drive the recursion.  The standard shape keeps both
witnesses in one row; rows 0 and 1 are solved directly by digit rewrites,
and rows >= 2 strip the last digit, which maps row 3a / 3a+1 / 3a+2
parents onto row 2a / 2a or 2a+1 / 2a+1 prefixes.  Stripping a trailing 1
in a row-(3a+1) target leaves no standard sub-problem; instead the
recursion switches to a shifted shape, c in row t and d in row t+1 with
[d] - [c] = [y] + 1 - [d], whose nine (t mod 3, last digit) branches
either stay shifted, fall back to a standard sub-problem, or restart from
the numeral one below the stripped prefix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .fractal import locate
from .greedy import GreedyPartition, InsufficientRangeError
from .radix import BASE_3, canonicalize, represent


class NotApplicableError(ValueError):
    """No witness pair exists for this (x, target row) combination."""


class ConstructionError(RuntimeError):
    """Internal recursion produced an invalid pair; carries the trace."""

    def __init__(self, msg: str, trace: list[str]):
        super().__init__(f"{msg} (trace: {' > '.join(trace)})")
        self.trace = list(trace)


# trace vocabulary, one tag per recursion step
TAG_ROW0 = "row0"
TAG_ROW1 = ["row1-case0", "row1-case1", "row1-case2", "row1-case3"]
TAG_DEGENERATE = "degenerate"
TAG_APPEND_EVEN = "append-0mod3"
TAG_APPEND_ODD = "append-2mod3"
TAG_KEEP0 = "keep-0"
TAG_KEEP2 = "keep-2"
TAG_SIMPLEST = "simplest"
TAG_ITERATIVE = "iterative"
TAG_PECULIAR = "peculiar"
TAGS = frozenset({TAG_ROW0, *TAG_ROW1, TAG_DEGENERATE, TAG_APPEND_EVEN, TAG_APPEND_ODD,
                  TAG_KEEP0, TAG_KEEP2, TAG_SIMPLEST, TAG_ITERATIVE, TAG_PECULIAR})


@dataclass(frozen=True)
class WitnessPair:
    """Witnesses c <= d in row target_row for the exclusion of x."""

    x: str
    target_row: int
    c: str
    d: str

    @property
    def values(self) -> tuple[int, int, int]:
        return int(self.c, 3), int(self.d, 3), int(self.x, 3)

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
        return json.dumps(self.as_dict(trace), separators=(",", ":"))


def decompose(x: str) -> tuple[str, str, str]:
    """Split x into (x1, x2, x3) around its row-1 middle segment.

    x3 is the maximal run of trailing zeros; x2 is the maximal-fitting
    suffix of the remainder shaped 2, 2 0^j 1^k, 2 1^k, or 1 0^j 1^k
    (j, k >= 1); x1 is whatever precedes it.
    """
    x1, x2, x3, _ = _decompose_cases(x)
    return x1, x2, x3


def _decompose_cases(x: str) -> tuple[str, str, str, int]:
    if not x or any(ch not in "012" for ch in x):
        raise NotApplicableError(f"{x!r} is not a {{0,1,2}}-string")
    t0 = len(x) - len(x.rstrip("0"))
    x3 = "0" * t0
    y = x[: len(x) - t0] if t0 else x
    if not y:
        raise NotApplicableError(f"{x!r} has no nonzero digit")
    if y[-1] == "2":
        return y[:-1], "2", x3, 0
    if y[-1] != "1":
        raise NotApplicableError(f"{x!r}: middle segment must end in 1 or 2")
    k = len(y) - len(y.rstrip("1"))
    rest = y[: len(y) - k]
    j = len(rest) - len(rest.rstrip("0"))
    head = rest[: len(rest) - j] if j else rest
    if not head:
        raise NotApplicableError(f"{x!r} has no digit 2 and no anchor for a middle segment")
    if head[-1] == "2":
        if j > 0:
            return head[:-1], "2" + "0" * j + "1" * k, x3, 1
        return head[:-1], "2" + "1" * k, x3, 2
    # head ends in 1; the run logic guarantees j > 0 here
    return head[:-1], "1" + "0" * j + "1" * k, x3, 3


def witness(x: str, j: int) -> tuple[WitnessPair, list[str]]:
    """Witness pair for target row j plus the trace of recursion branches."""
    if j < 0:
        raise NotApplicableError(f"target row must be >= 0, got {j}")
    _require_above(x, j)
    trace: list[str] = []
    c, d = _standard(x, j, trace)
    pair = WitnessPair(x=x, target_row=j, c=c, d=d)
    _validate(pair, trace)
    return pair, trace


def witness_oracle(x: str, j: int, partition: GreedyPartition) -> WitnessPair | None:
    """Brute-force witness: scan row j of a sieved partition directly.

    Returns the pair with the smallest d (then smallest c), or None if the
    row holds no witnesses below the partition bound.
    """
    _require_above(x, j)
    v = int(x, 3)
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

def _require_above(x: str, j: int) -> int:
    row = locate(x).row  # also validates x
    if row <= j:
        raise NotApplicableError(f"{x!r} lies in row {row}, not below target row {j}")
    return row


def _row0_pair(x: str) -> tuple[str, str]:
    """Row-0 witnesses: turn the 2s of x into all-0s and all-1s."""
    return canonicalize(x.replace("2", "0")), x.replace("2", "1")


def _row1_pair(x: str) -> tuple[str, str, int]:
    """Row-1 witnesses via the three-segment decomposition of x, plus its case."""
    x1, x2, x3, case = _decompose_cases(x)
    if case == 0:
        a2 = b2 = "2"
    elif case == 1:
        j = len(x2.rstrip("1")) - 1
        k = len(x2) - 1 - j
        a2 = "1" + "0" * j + "1" * (k - 1) + "2"
        b2 = "1" * j + "2" + "0" * k
    elif case == 2:
        k = len(x2) - 1
        a2 = "1" * k + "2"
        b2 = "2" + "0" * k
    else:
        j = len(x2.rstrip("1")) - 1
        k = len(x2) - 1 - j
        a2 = "0" * (j + 1) + "1" * (k - 1) + "2"
        b2 = "0" + "1" * (j - 1) + "2" + "0" * k
    c = canonicalize(x1.replace("2", "0") + a2 + x3)
    d = canonicalize(x1.replace("2", "1") + b2 + x3)
    return c, d, case


def _standard(x: str, t: int, trace: list[str]) -> tuple[str, str]:
    """Solve [d] - [c] = [x] - [d] with c, d in row t; needs row(x) >= t."""
    rx = locate(x).row
    if rx == t:
        trace.append(TAG_DEGENERATE)
        return x, x
    if rx < t:
        raise ConstructionError(f"row({x}) = {rx} < target {t}", trace)
    if t == 0:
        trace.append(TAG_ROW0)
        return _row0_pair(x)
    if t == 1:
        c, d, case = _row1_pair(x)
        trace.append(TAG_ROW1[case])
        return c, d
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
