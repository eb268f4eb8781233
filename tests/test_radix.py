"""Digit-level arithmetic in base p/q."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stanleygrid.radix import (
    BASE_3,
    BASE_3_2,
    InvalidDigitError,
    RationalBase,
    add_two,
    canonicalize,
    evaluate,
    from_decimal,
    represent,
    scaled_value,
    to_decimal,
)

BASE32_PREFIX = ["0", "1", "2", "20", "21", "22", "210", "211", "212",
                 "2100", "2101", "2102", "2120"]


def test_base32_strings_for_small_integers():
    assert [represent(n) for n in range(13)] == BASE32_PREFIX


def test_represent_plain_bases():
    assert represent(5, BASE_3) == "12"
    assert represent(0, BASE_3) == "0"
    assert represent(42, RationalBase(10)) == "42"
    assert represent(7, RationalBase(2)) == "111"


def test_represent_rejects_negatives():
    with pytest.raises(ValueError):
        represent(-1)


def test_base_validation():
    with pytest.raises(ValueError):
        RationalBase(2, 2)
    with pytest.raises(ValueError):
        RationalBase(6, 4)  # not in lowest terms
    with pytest.raises(ValueError):
        RationalBase(3, 5)
    assert str(RationalBase.parse("3/2")) == "3/2"
    assert str(RationalBase.parse("7")) == "7"


def test_evaluate_is_exact():
    v = evaluate("212021")
    assert v == 31
    assert isinstance(v, Fraction)
    assert scaled_value("212021") == (992, 5)  # 992 / 2^5 = 31
    assert evaluate("11") == Fraction(5, 2)
    assert evaluate("0") == 0
    assert evaluate("212021", BASE_3) == 628


def test_evaluate_ignores_leading_zeros():
    for w in ("212", "10", "2"):
        assert evaluate("00" + w) == evaluate(w)


def test_round_trip_three_bases():
    for base in (BASE_3_2, BASE_3, RationalBase(5, 3)):
        for n in range(3000):
            w = represent(n, base)
            assert w == canonicalize(w)
            assert evaluate(w, base) == n


def test_add_two_examples():
    assert add_two("0") == "2"
    assert add_two("1") == "20"
    assert add_two("2") == "21"
    assert add_two("210") == "212"
    assert add_two("212021") == "212210"


def test_add_two_tracks_represent():
    w = "0"
    for n in range(0, 300):
        assert w == represent(2 * n)
        w = add_two(w)


def test_add_two_exhaustive_short():
    import itertools
    words = ["0"]
    for length in range(1, 8):
        for lead in "12":
            for rest in itertools.product("012", repeat=length - 1):
                words.append(lead + "".join(rest))
    for w in words:
        w2 = add_two(w)
        assert evaluate(w2) == evaluate(w) + 2
        assert w2 == canonicalize(w2)


def test_add_two_rejects_bad_input():
    for w, message in [("", "empty digit string"),
                       ("13", "digit '3' not valid in base 3/2"),
                       ("1a1", "digit 'a' not valid in base 3/2"),
                       ("012", "'012' has a leading zero"),
                       ("01", "'01' has a leading zero")]:
        with pytest.raises(InvalidDigitError) as err:
            add_two(w)
        assert type(err.value) is InvalidDigitError and str(err.value) == message


def test_evaluate_rejects_digits_at_or_above_p():
    with pytest.raises(InvalidDigitError):
        evaluate("3", BASE_3_2)
    with pytest.raises(InvalidDigitError):
        evaluate("19", RationalBase(9, 2))
    with pytest.raises(InvalidDigitError):
        evaluate("1x2")


@pytest.mark.parametrize("fn,w,bad,base", [
    (add_two, "1x3", "x", "3/2"),
    (evaluate, "0129", "9", "3/2"),
    (lambda w: evaluate(w, BASE_3), "abc", "a", "3"),
    (lambda w: evaluate(w, RationalBase(2)), "2220", "2", "2"),
])
def test_a_bad_digit_error_names_the_first_bad_digit(fn, w, bad, base):
    with pytest.raises(InvalidDigitError) as err:
        fn(w)
    assert str(err.value) == f"digit {bad!r} not valid in base {base}"


def test_canonicalize():
    assert canonicalize("000") == "0"
    assert canonicalize("0012") == "12"
    assert canonicalize("12") == "12"


# canonical base-3/2 strings of 20 to 160 digits
long_strings = st.builds(lambda lead, rest: lead + rest,
                         st.sampled_from("12"), st.text("012", min_size=19, max_size=159))


@given(long_strings)
def test_add_two_adds_two_to_long_strings(w):
    w2 = add_two(w)
    v1, e1 = scaled_value(w)
    v2, e2 = scaled_value(w2)
    # v2 / 2^e2 == v1 / 2^e1 + 2, in integers
    assert v2 * 2**e1 == (v1 + 2 ** (e1 + 1)) * 2**e2
    assert w2 == canonicalize(w2) and e2 in (e1, e1 + 1)


def test_decimal_conversion_past_the_int_str_limit():
    # int() and str() refuse more than 4300 decimal digits; the numbers are
    # built and read back here without one conversion of that size
    n = 10**5000 + 12345
    assert to_decimal(n) == "1" + "0" * 4995 + "12345"
    assert to_decimal(-n) == "-" + to_decimal(n)
    assert from_decimal("1" + "0" * 4995 + "12345") == n
    assert from_decimal("+" + "9" * 9000) == 10**9000 - 1
    assert from_decimal("-" + "0" * 4500 + "7") == -7
    big = 3**20000                                   # 9543 decimal digits
    text = to_decimal(big)
    assert len(text) == 9543 and text[-4:] == str(big % 10**4).zfill(4)
    assert int(text[:4000]) * 10 ** (len(text) - 4000) + from_decimal(text[4000:]) == big
    assert from_decimal(text) == big


def test_decimal_conversion_keeps_short_numbers_as_int_and_str_do():
    for text in ("0", "12", " 7 ", "+5", "-3", "9" * 4000):
        assert from_decimal(text) == int(text)
    for n in (0, 5, -5, 10**3999):
        assert to_decimal(n) == str(n)
    with pytest.raises(ValueError):
        from_decimal("12x")
    with pytest.raises(ValueError):
        from_decimal("1" * 4000 + "x")


# underscores and non-ASCII digits, which int() reads, at 5 and at 5000+ characters
NOT_NUMERALS = ["1_000", "\u0661\u0662\u0663\u0664\u0665",
                "1_0" * 2001, "\u0661" * 5001, "9" * 4999 + "\u0662"]


@pytest.mark.parametrize("text", NOT_NUMERALS, ids=["_5", "arabic_5", "_6003", "arabic_5001",
                                                    "tail_5000"])
def test_decimal_numerals_are_ascii_digits_at_every_length(text):
    with pytest.raises(ValueError, match="invalid decimal numeral"):
        from_decimal(text)
    # ASCII digits of the same length, with a sign and whitespace around, are read
    assert from_decimal(" -" + "7" * len(text) + "\n") == -7 * (10 ** len(text) - 1) // 9


def test_base_parse_reads_p_and_q_as_decimal_numerals():
    assert RationalBase.parse(" 3 / 2 ") == BASE_3_2
    for text in ("1_0", "3/\u0662", "\u0663/2", "3/", "/2", "/"):
        with pytest.raises(ValueError, match="invalid decimal numeral"):
            RationalBase.parse(text)


# each base with the k digits of its block: the largest k with p^k <= 1024
BLOCK_BASES = [(BASE_3_2, 6), (BASE_3, 6), (RationalBase(5, 3), 4), (RationalBase(2), 10),
               (RationalBase(10), 3)]


def one_digit_steps(n, base, k):
    """The digits that k one-digit steps emit from n, least significant first, and what is left."""
    digits = []
    for _ in range(k):
        r = n % base.p
        digits.append(str(r))
        n = base.q * (n - r) // base.p
    return digits, n


def represent_by_digits(n, base):
    """The one-digit conversion loop, kept as represent's reference."""
    out = []
    while n:
        digits, n = one_digit_steps(n, base, 1)
        out += digits
    return "".join(reversed(out)) or "0"


@pytest.mark.parametrize("base,k", BLOCK_BASES, ids=[str(b) for b, _ in BLOCK_BASES])
def test_block_table_entries_are_k_one_digit_steps(base, k):
    pk, qk, table = base.blocks
    assert (pk, qk, len(table)) == (base.p**k, base.q**k, base.p**k)
    for r, entry in enumerate(table):
        digits, left = one_digit_steps(r, base, k)
        assert entry == ("".join(reversed(digits)), left)
        assert left < qk


def horner_value(w, base):
    """(v, e) of scaled_value one digit at a time, kept as its reference."""
    v = 0
    for i, ch in enumerate(w):
        v = base.p * v + int(ch) * base.q**i
    return v, len(w) - 1


@pytest.mark.parametrize("base,k", BLOCK_BASES, ids=[str(b) for b, _ in BLOCK_BASES])
def test_scaled_value_matches_horner(base, k):
    alphabet = "0123456789"[:base.p]
    # every string of up to k + 2 digits (capped at 4096 of each length): all
    # paddings, one and two blocks
    for length in range(1, k + 3):
        for digits in itertools.islice(itertools.product(alphabet, repeat=length), 4096):
            w = "".join(digits)
            assert scaled_value(w, base) == horner_value(w, base), w
    rng = random.Random(k)
    long = "".join(rng.choice(alphabet) for _ in range(5003))
    assert scaled_value(long, base) == horner_value(long, base)
    assert len(base.block_values[3]) == base.p**k


# about 2,000 decimal digits each
HUGE = [10**1999 + 12345, 2**6643 - 1, 3**4190 + 5**1000]


@pytest.mark.parametrize("base,k", BLOCK_BASES, ids=[str(b) for b, _ in BLOCK_BASES])
def test_represent_matches_the_one_digit_loop(base, k):
    assert all(represent(n, base) == represent_by_digits(n, base) for n in range(3**9))
    edges = [base.p**k - 1, base.p**k, base.p**k + 1]
    for n in edges + HUGE:
        assert represent(n, base) == represent_by_digits(n, base)


def test_block_table_is_not_part_of_the_base_value():
    built, fresh = RationalBase(3, 2), RationalBase(3, 2)
    assert built.blocks is built.blocks                      # built once
    assert built == fresh and hash(built) == hash(fresh)
    assert repr(built) == "RationalBase(p=3, q=2)"
    with pytest.raises(AttributeError):
        built.q = 1
    assert built.q == 2
