"""Integer representation in a rational base p/q.

A non-negative integer N is written with digits {0, ..., p-1} by repeatedly
splitting off the remainder mod p and passing q*(N - r)/p to the next
position.  The resulting string [a_k ... a_0] stands for the exact value
sum a_i (p/q)^i, which is an integer again even though the intermediate
place values are fractions.  For p/q = 3/2 every non-negative integer has
a unique such string, and adding 2 to the represented value is a purely
local digit rewrite (see add_two).

represent takes k digits per step.  Write n = p^k*m + R with R < p^k.  One
step emits n mod p and continues with q*(n - n mod p)/p, which is linear
on multiples of p: through the first k steps the p^k*m part stays a
multiple of p, so it never reaches a digit and only turns into q^k*m.
The k low digits of n are thus the k digits that R alone emits, and what
is left after them is q^k*m + left(R), with left(R) <= (q/p)^k*R < q^k.
Every division is exact and every value an integer, so a table of
(digits, left) for each R < p^k, built once per base from the one-digit
step, gives the same string as the one-digit loop, with one divmod per k
digits; only the top block may add leading zeros, which are stripped.
k is the largest with p^k <= 1024: 6 for bases 3/2 and 3, 4 for 5/3, 10
for 2, 3 for 10.

scaled_value reads k digits per step the other way.  A string of L digits
is worth V / q^(L-1), V = sum d_t q^t p^(L-1-t) over its digits d_t from
the left.  A block of k digits from position i on adds T(block) q^i, with
T(d_0..d_(k-1)) = sum d_j q^j p^(k-1-j), to V / p^(L-i-k), so Horner over
the blocks, V <- V p^k + T(block) q^i, needs one table entry per block.
Left-padding to a whole number of blocks with z zeros multiplies V by
q^z, which one exact division takes off again.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

_DIGITS = "0123456789"

# decrement mod 3, used by the base-3/2 carry rule
_DEC3 = str.maketrans("012", "201")

# digits per int() or str() call: Python refuses conversions past 4300 digits
_DIGIT_CHUNK = 4000

# most entries of a base's block table: p^k <= this for the k digits of a block
_TABLE_ENTRIES = 1024


class InvalidDigitError(ValueError):
    """A digit character is outside the alphabet of the base."""


class _ReadOnly:
    """Base of the package's read-only value types.

    A subclass sets its attributes once, through vars(self), in __init__;
    equality, hash and repr read the attributes its _fields names, in order.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({shown})"


class RationalBase(_ReadOnly):
    """A base p/q with p > q >= 1 and gcd(p, q) = 1.

    Digits are 0 .. p-1.  q = 1 gives ordinary integer base p.  A base is
    read-only, and equal to another of the same p and q.
    """

    _fields = ("p", "q")

    def __init__(self, p: int, q: int = 1):
        if p <= q or q < 1:
            raise ValueError(f"need p > q >= 1, got {p}/{q}")
        if math.gcd(p, q) != 1:
            raise ValueError(f"p/q must be in lowest terms, got {p}/{q}")
        if p > len(_DIGITS):
            raise ValueError(f"p = {p}: digits beyond 9 have no single-character form")
        vars(self).update(p=p, q=q)

    @classmethod
    def parse(cls, text: str) -> "RationalBase":
        """Parse "3/2" or "3" into a RationalBase; p and q are read by from_decimal,
        so an empty side, as in "3/" or "/2", is refused."""
        p, slash, q = text.partition("/")
        return cls(from_decimal(p), from_decimal(q) if slash else 1)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}" if self.q != 1 else str(self.p)

    @functools.cached_property
    def blocks(self) -> tuple[int, int, tuple[tuple[str, int], ...]]:
        """(p^k, q^k, table) for represent: table[R] holds the k digits that
        k one-digit steps emit from R (most significant first) and the value
        left after them.  Built on first use; equality and hashing ignore it.
        """
        p, q = self.p, self.q
        k = _block_length(p)
        table = []
        for rest in range(p**k):
            digits = []
            for _ in range(k):
                r = rest % p
                digits.append(_DIGITS[r])
                rest = q * (rest - r) // p
            table.append(("".join(reversed(digits)), rest))
        return p**k, q**k, tuple(table)

    @functools.cached_property
    def block_values(self) -> tuple[int, int, int, dict[str, int]]:
        """(k, p^k, q^k, table) for scaled_value: table maps each k-digit
        string d_0..d_(k-1) to sum d_j q^j p^(k-1-j).  Built on first use;
        equality and hashing ignore it.
        """
        p, q = self.p, self.q
        k = _block_length(p)
        table = {}
        for block in itertools.product(range(p), repeat=k):
            t = 0
            for j, d in enumerate(block):
                t = p * t + d * q**j
            table["".join(_DIGITS[d] for d in block)] = t
        return k, p**k, q**k, table


def _block_length(p: int) -> int:
    """k, the digits per step of represent and scaled_value: the largest with p^k <= 1024."""
    k = 1
    while p ** (k + 1) <= _TABLE_ENTRIES:
        k += 1
    return k


BASE_3_2 = RationalBase(3, 2)
BASE_3 = RationalBase(3)


def canonicalize(w: str) -> str:
    """Strip leading zeros; the empty string collapses to "0"."""
    return w.lstrip("0") or "0"


def _check_digits(w: str, base: RationalBase) -> None:
    if not w:
        raise InvalidDigitError("empty digit string")
    rest = w.lstrip(_DIGITS[: base.p])        # from the first digit outside the base on
    if rest:
        raise InvalidDigitError(f"digit {rest[0]!r} not valid in base {base}")


def represent(n: int, base: RationalBase = BASE_3_2) -> str:
    """The canonical base-p/q digit string of a non-negative integer.

    Each step splits n = p^k*m + R, emits R's k digits from the base's
    block table and continues with q^k*m + left(R) (see the module notes).
    """
    if n < 0:
        raise ValueError(f"cannot represent negative value {n}")
    if n == 0:
        return "0"
    pk, qk, table = base.blocks
    out = []
    while n:
        m, r = divmod(n, pk)
        digits, left = table[r]
        out.append(digits)
        n = qk * m + left
    out.reverse()
    return "".join(out).lstrip("0")


def scaled_value(w: str, base: RationalBase = BASE_3_2) -> tuple[int, int]:
    """Return (v, e) with [w]_{p/q} = v / q**e, e = len(w) - 1.

    v = sum a_i p^i q^(L-1-i) is built k digits per step from the base's
    table of block values (see the module notes), all in integers.
    """
    _check_digits(w, base)
    k, pk, qk, table = base.block_values
    pad = -len(w) % k
    w = "0" * pad + w
    v = 0
    qi = 1                                  # q^i, i the position of the block
    for i in range(0, len(w), k):
        v = v * pk + table[w[i:i + k]] * qi
        qi *= qk
    return v // base.q**pad, len(w) - pad - 1


def evaluate(w: str, base: RationalBase = BASE_3_2) -> Fraction:
    """Exact value of a digit string: sum a_i (p/q)^i over positions i."""
    v, e = scaled_value(w, base)
    return Fraction(v, base.q**e)


def add_two(w: str) -> str:
    """Add 2 to the value of a canonical base-3/2 string by digit rewriting.

    Rule: locate the rightmost 0 (prepending one if the string is all
    nonzero); that 0 and every digit to its right are decremented mod 3,
    everything to the left is untouched.
    """
    if not w or w.strip("012") or (w[0] == "0" and len(w) > 1):
        _check_digits(w, BASE_3_2)
        raise InvalidDigitError(f"{w!r} has a leading zero")
    i = w.rfind("0")
    if i < 0:
        return "2" + w.translate(_DEC3)       # the prepended 0 decrements to 2
    return w[:i] + w[i:].translate(_DEC3)


def from_decimal(text: str) -> int:
    """The integer a decimal numeral of any length stands for.

    A numeral is ASCII digits after an optional sign, with whitespace around
    it, at every length: int()'s underscores and non-ASCII digits are
    refused.  Digits past 4000 are read in halves until each piece fits one
    int() call.
    """
    body = text.strip()
    sign = body[:1] if body[:1] in ("+", "-") else ""
    digits = body[len(sign):]
    if not (digits.isascii() and digits.isdigit()):
        shown = repr(text) if len(text) <= 40 else f"of {len(text)} characters"
        raise ValueError(f"invalid decimal numeral {shown}")
    value = _read_int(digits, 10)
    return -value if sign == "-" else value


def _read_int(digits: str, base: int) -> int:
    """int(digits, base) at any length, split in halves until each piece fits one int() call."""
    if len(digits) <= _DIGIT_CHUNK:
        return int(digits, base)
    half = len(digits) // 2
    low = digits[half:]
    return _read_int(digits[:half], base) * base ** len(low) + _read_int(low, base)


def to_decimal(n: int) -> str:
    """str(n) for an int of any size, split in halves until each piece fits one str() call."""
    if n < 0:
        return "-" + to_decimal(-n)
    if n.bit_length() <= 3 * _DIGIT_CHUNK:            # below 2^12000 < 10^4000
        return str(n)
    k = n.bit_length() * 30103 // 200000               # about half the digits: log10(2) ~ 0.30103
    high, low = divmod(n, 10**k)
    return to_decimal(high) + to_decimal(low).zfill(k)
