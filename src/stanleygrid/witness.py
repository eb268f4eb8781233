"""Why the greedy rows reject what they reject.

If the base-3 numeral x sits in grid row r, then for every target row
j < r there are strings c <= d whose cells lie in row j with
[d]_3 - [c]_3 = [x]_3 - [d]_3: the 3-term progression that forced the
greedy sieve to push [x]_3 past row j.  This module constructs such a
pair digit by digit.

The construction is one step table, _STEPS.  Each step strips the last
digit of x, which maps a row-(3a+r) target onto row 2a or 2a+1, and
appends one digit to each of c and d.  A trailing 1 under a row-(3a+1)
target leaves the standard equation for a shifted one, which may restart
from the numeral one below the stripped prefix.  The loop stops once the
prefix sits in the target row, with c = d = the prefix.  It runs _FUSED,
derived at import from _STEPS and grid's one-level zoom: the residues of
the prefix's cell name the stripped digit, so one lookup gives the step
and the next cell.

No pair is re-checked here, since verify proves the construction for
every x and j: its witness suite checks each _STEPS entry against the AP
digit rule and the grid's row rule, and shows by a one-step induction
that the loop ends in the target row with c < d (a peculiar step leans on
the decrement lemma, which its fractal suite checks at every length).
So witness() locates only x.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .fractal import locate
from .grid import GridCoord, _is_ternary, _step, _zoom
from .radix import _read_int, canonicalize, to_decimal


class NotApplicableError(ValueError):
    """No witness pair exists for this (x, target row) combination."""


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


class WitnessPair(NamedTuple):
    """Witnesses c <= d in row target_row for the exclusion of x."""

    x: str
    target_row: int
    c: str
    d: str

    @property
    def values(self) -> tuple[int, int, int]:
        return _read_int(self.c, 3), _read_int(self.d, 3), _read_int(self.x, 3)

    def to_json(self, trace: list[str] | None = None) -> str:
        """x, j, c, d, values_base3 and, if given, the trace, as compact JSON.

        The values go through radix.to_decimal, since json.dumps writes ints
        with str(), which refuses more than 4300 digits.
        """
        head = {"x": self.x, "j": self.target_row, "c": self.c, "d": self.d}
        text = json.dumps(head, separators=(",", ":"))[:-1]
        text += ',"values_base3":[' + ",".join(map(to_decimal, self.values)) + "]"
        if trace is not None:
            text += ',"trace":' + json.dumps(list(trace), separators=(",", ":"))
        return text + "}"


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
    return WitnessPair(x=x, target_row=j, c=c, d=d), trace


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


_SHAPES = (_STANDARD, _SHIFTED)


def _fused_step(shape: str, r: int, k: int, b: int) -> tuple:
    """The step from a prefix cell with p % 3 = k and q % 2 = b: the _STEPS
    entry for the digit that _zoom strips there, the next shape's first
    _FUSED index, the two appended digits joined, and the prefix-row offset
    of _zoom(p, q) = (2 * (p // 3) + offset, q >> 1, digit)."""
    offset, _, e = _zoom(k, b)
    tag, shape2, bit, c_digit, d_digit = _STEPS[shape, r, "012"[e]]
    return tag, 18 * _SHAPES.index(shape2), bit, c_digit + d_digit, offset


# _FUSED[18 * s + 6 * (t % 3) + 2 * (p % 3) + q % 2], s = the shape's index in _SHAPES
_FUSED = tuple(_fused_step(shape, r, k, b)
               for shape in _SHAPES for r in range(3) for k in range(3) for b in range(2))


def _construct(x: str, at: GridCoord, j: int, trace: list[str]) -> tuple[str, str]:
    """Solve the standard equation for x, which sits at cell `at`, and target row j.

    Each step zooms the cell out to the prefix's, so no row check locates
    again, and the cell's residues pick the step from _FUSED, so the digit
    it strips is never read.  `shape` is the shape's first _FUSED index: 0
    while the equation is standard.  The prefix is digits[:n], n = len(x)
    less one per step taken; each peculiar step takes 1 off it.  Given
    row(x) > j the loop ends with the prefix in row t (see the module
    docstring), so the result is not checked here.
    """
    digits = list(x)
    p, q = at
    shape, t = 0, j
    tails = []
    while p > t or shape:
        tag, shape, bit, cd, offset = _FUSED[shape + 6 * (t % 3) + 2 * (p % 3) + (q & 1)]
        p = 2 * (p // 3) + offset
        q >>= 1
        t = 2 * (t // 3) + bit
        tails.append(cd)
        if tag is not None:
            trace.append(tag)
            if tag == TAG_PECULIAR:
                # minus 1: trailing 0s become 2s, the last nonzero digit drops by one;
                # zoom out past those digits and step down through the new ones (a
                # leading 0 left behind keeps the cell, as _step(0, 0, 0) is the origin)
                n = len(digits) - len(tails)
                i = n - 1
                while digits[i] == "0":
                    i -= 1
                digits[i:n] = [str(int(digits[i]) - 1)] + ["2"] * (n - 1 - i)
                for _ in range(n - i):
                    p, q = _zoom(p, q)[:2]
                for digit in digits[i:n]:
                    p, q = _step(p, q, int(digit))
    y = canonicalize("".join(digits[:len(digits) - len(tails)]))
    trace.append(TAG_DEGENERATE)
    appended = "".join(reversed(tails))  # c's and d's digits alternate
    return canonicalize(y + appended[::2]), canonicalize(y + appended[1::2])

