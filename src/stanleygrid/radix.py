"""Integer representation in a rational base p/q.

A non-negative integer N is written with digits {0, ..., p-1} by repeatedly
splitting off the remainder mod p and passing q*(N - r)/p to the next
position.  The resulting string [a_k ... a_0] stands for the exact value
sum a_i (p/q)^i, which is an integer again even though the intermediate
place values are fractions.  For p/q = 3/2 every non-negative integer has
a unique such string, and adding 2 to the represented value is a purely
local digit rewrite (see add_two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

_DIGITS = "0123456789"

# decrement mod 3, used by the base-3/2 carry rule
_DEC3 = str.maketrans("012", "201")

# digits per int() or str() call: Python refuses conversions past 4300 digits
_DIGIT_CHUNK = 4000


class InvalidDigitError(ValueError):
    """A digit character is outside the alphabet of the base."""


@dataclass(frozen=True)
class RationalBase:
    """A base p/q with p > q >= 1 and gcd(p, q) = 1.

    Digits are 0 .. p-1.  q = 1 gives ordinary integer base p.
    """

    p: int
    q: int = 1

    def __post_init__(self):
        if self.p <= self.q or self.q < 1:
            raise ValueError(f"need p > q >= 1, got {self.p}/{self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p/q must be in lowest terms, got {self.p}/{self.q}")
        if self.p > len(_DIGITS):
            raise ValueError(f"p = {self.p}: digits beyond 9 have no single-character form")

    @classmethod
    def parse(cls, text: str) -> "RationalBase":
        """Parse "3/2" or "3" into a RationalBase."""
        p, _, q = text.partition("/")
        return cls(int(p), int(q) if q else 1)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}" if self.q != 1 else str(self.p)


BASE_3_2 = RationalBase(3, 2)
BASE_3 = RationalBase(3)


def canonicalize(w: str) -> str:
    """Strip leading zeros; the empty string collapses to "0"."""
    return w.lstrip("0") or "0"


def is_canonical(w: str) -> bool:
    return w == "0" or (len(w) > 0 and w[0] != "0")


def _check_digits(w: str, base: RationalBase) -> None:
    if not w:
        raise InvalidDigitError("empty digit string")
    rest = w.lstrip(_DIGITS[: base.p])        # from the first digit outside the base on
    if rest:
        raise InvalidDigitError(f"digit {rest[0]!r} not valid in base {base}")


def represent(n: int, base: RationalBase = BASE_3_2) -> str:
    """The canonical base-p/q digit string of a non-negative integer.

    Each step emits n mod p as the next digit (least significant first)
    and continues with q*(n - n mod p)/p.
    """
    if n < 0:
        raise ValueError(f"cannot represent negative value {n}")
    if n == 0:
        return "0"
    p, q = base.p, base.q
    out = []
    while n:
        r = n % p
        out.append(_DIGITS[r])
        n = q * (n - r) // p
    return "".join(reversed(out))


def scaled_value(w: str, base: RationalBase = BASE_3_2) -> tuple[int, int]:
    """Return (v, e) with [w]_{p/q} = v / q**e, e = len(w) - 1.

    Horner over the digits keeps everything in integers:
    v accumulates sum a_i p^i q^(L-1-i).
    """
    _check_digits(w, base)
    p, q = base.p, base.q
    v = 0
    qk = 1
    for ch in w:
        v = p * v + int(ch) * qk
        qk *= q
    return v, len(w) - 1


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
    _check_digits(w, BASE_3_2)
    if not is_canonical(w):
        raise InvalidDigitError(f"{w!r} has a leading zero")
    i = w.rfind("0")
    if i < 0:
        w = "0" + w
        i = 0
    return w[:i] + w[i:].translate(_DEC3)


def from_decimal(text: str) -> int:
    """int(text) for a decimal numeral of any length.

    A numeral longer than 4000 characters (an optional sign, then ASCII
    digits) is read in halves until each piece fits one int() call.
    """
    if len(text) <= _DIGIT_CHUNK:
        return int(text)
    body = text.strip()
    sign = body[:1] if body[:1] in ("+", "-") else ""
    digits = body[len(sign):]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid decimal numeral of {len(text)} characters")
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
