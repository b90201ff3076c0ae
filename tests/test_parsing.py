from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcoset.polyring import RingCtx, format_poly
from dcoset.parsing import MAX_DIGITS, MAX_EXPONENT, ParseError, parse_point, parse_poly, parse_polys


@pytest.fixture
def ring():
    return RingCtx(("x1", "x2", "x3", "x4"))


def test_products_and_sums(ring):
    x1, x2, x3, x4 = ring.gens()
    assert parse_poly("x1*x4 + x2*x3", ring) == x1 * x4 + x2 * x3


def test_rational_coefficient_and_power(ring):
    x1 = ring.gen("x1")
    assert parse_poly("3/2*x1^2 - 1", ring) == Fraction(3, 2) * x1 ** 2 - 1


def test_leading_sign(ring):
    x1 = ring.gen("x1")
    assert parse_poly("-x1", ring) == -x1
    assert parse_poly("+x1", ring) == x1


def test_whitespace_insensitive(ring):
    a = parse_poly("x1*x2+x3", ring)
    b = parse_poly("  x1 * x2   +   x3 ", ring)
    assert a == b


def test_constant_terms(ring):
    assert parse_poly("2", ring) == 2
    assert parse_poly("2/3", ring) == Fraction(2, 3)
    assert parse_poly("0", ring).is_zero()


def test_repeated_variables_multiply(ring):
    x1 = ring.gen("x1")
    assert parse_poly("x1*x1*x1", ring) == x1 ** 3


def test_negative_exponent_rejected(ring):
    with pytest.raises(ParseError, match="negative exponent"):
        parse_poly("x1^-1", ring)


def test_exponent_cap(ring):
    assert MAX_EXPONENT == 255
    assert parse_poly("x1^255", ring) == ring.gen("x1") ** 255
    with pytest.raises(ParseError, match="exponent 256 at position 4 exceeds the limit of 255"):
        parse_poly("x1^256", ring)


def test_exponent_cap_counts_the_whole_term():
    R = RingCtx(("x", "y"))
    x, y = R.gens()
    assert parse_poly("x^200*y*x^54", R) == x ** 254 * y
    with pytest.raises(ParseError, match="exponent 256 at position 9 exceeds the limit of 255"):
        parse_poly("x^200*x^56", R)


def test_term_degree_cap():
    R = RingCtx(("x", "y"))
    x, y = R.gens()
    assert parse_poly("x^128*y^127 + x^255 + y^255", R) == x ** 128 * y ** 127 + x ** 255 + y ** 255
    with pytest.raises(ParseError) as info:
        parse_poly("x^200*y*x^55", R)
    assert str(info.value) == "term degree 256 at position 11 exceeds the limit of 255"
    with pytest.raises(ParseError) as info:
        parse_poly("1 + x^255*y", R)
    assert str(info.value) == "term degree 256 at position 11 exceeds the limit of 255"


def test_overlong_exponent_is_refused_before_conversion(ring):
    nines = "9" * 5000
    with pytest.raises(ParseError) as info:
        parse_poly(f"x1^{nines}", ring)
    assert str(info.value) == f"exponent {nines} at position 4 exceeds the limit of 255"
    # leading zeros do not count towards the length
    assert parse_poly("x1^" + "0" * 5000 + "255", ring) == ring.gen("x1") ** 255
    with pytest.raises(ParseError, match="exponent 1000 at position 9 exceeds"):
        parse_poly("x1^2*x1^01000", ring)


def test_overlong_integer_literals_are_refused(ring):
    assert MAX_DIGITS == 4300
    x1 = ring.gen("x1")
    widest = "9" * MAX_DIGITS
    assert parse_poly(f"{widest}*x1", ring) == int(widest) * x1
    assert parse_poly("0" * 5000 + "3/" + "0" * 5000 + "2", ring) == Fraction(3, 2) + 0 * x1
    with pytest.raises(ParseError) as info:
        parse_poly(f"x1 - {widest}9", ring)
    assert str(info.value) == "integer with 4301 digits at position 6 exceeds the limit of 4300 digits"
    with pytest.raises(ParseError) as info:
        parse_poly(f"1/{widest}9*x1", ring)
    assert str(info.value) == "integer with 4301 digits at position 3 exceeds the limit of 4300 digits"


def test_unknown_variable_rejected(ring):
    with pytest.raises(ParseError, match="unknown variable 'y'"):
        parse_poly("y + 1", ring)


def test_no_implicit_multiplication(ring):
    with pytest.raises(ParseError, match="position 4"):
        parse_poly("x1 x2", ring)


def test_error_positions_are_1_based(ring):
    with pytest.raises(ParseError, match="position 1"):
        parse_poly("*x1", ring)


def test_unexpected_character(ring):
    with pytest.raises(ParseError, match="unexpected character"):
        parse_poly("x1 @ x2", ring)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663", "\uff13"])
def test_only_ascii_digits_are_digits(digit):
    # a superscript two, an Arabic-Indic three and a fullwidth three are
    # refused where they stand, not read as exponents
    with pytest.raises(ParseError, match=f"position 3: unexpected character '{digit}'"):
        parse_poly(f"x^{digit}", RingCtx(("x",)))


def test_empty_input(ring):
    with pytest.raises(ParseError):
        parse_poly("", ring)
    with pytest.raises(ParseError):
        parse_poly("   ", ring)


def test_trailing_operator(ring):
    with pytest.raises(ParseError):
        parse_poly("x1 +", ring)


def test_parse_polys_splits_on_commas(ring):
    polys = parse_polys("x1, x2 - 1, 3", ring)
    assert len(polys) == 3
    assert polys[2] == 3


def test_parse_point():
    assert parse_point("0,3/2,-1", 3) == (0, Fraction(3, 2), -1)
    with pytest.raises(ParseError):
        parse_point("1,2", 3)
    with pytest.raises(ParseError):
        parse_point("1,zebra,3", 3)
    assert parse_point(" +2 , -0/5 ,- 7 / 14", 3) == (2, 0, Fraction(-1, 2))


@pytest.mark.parametrize(
    "text, message",
    [
        ("1e100000,0", "bad coordinate '1e100000' at position 1: expected an integer or a fraction such as -3/2"),
        ("0, 1.5", "bad coordinate '1.5' at position 4: expected an integer or a fraction such as -3/2"),
        ("0,1_000", "bad coordinate '1_000' at position 3: expected an integer or a fraction such as -3/2"),
        ("0,1 2", "bad coordinate '1 2' at position 3: expected an integer or a fraction such as -3/2"),
        ("0,", "bad coordinate '' at position 3: expected an integer or a fraction such as -3/2"),
        ("1/0,2", "syntax error at position 3: zero denominator"),
        ("0,-" + "9" * 4301, "integer with 4301 digits at position 4 exceeds the limit of 4300 digits"),
    ],
)
def test_parse_point_accepts_only_rationals(text, message):
    with pytest.raises(ParseError) as info:
        parse_point(text, 2)
    assert str(info.value) == message


_R = RingCtx(("x", "y", "z"))
_coeffs = st.fractions(min_value=-30, max_value=30, max_denominator=9)


@st.composite
def _polys(draw):
    p = _R.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        exps = tuple(draw(st.integers(min_value=0, max_value=4)) for _ in _R.vars)
        p = p + _R.monomial(exps, draw(_coeffs))
    return p


@given(_polys())
@settings(max_examples=120, deadline=None)
def test_round_trip_printer_parser(p):
    assert parse_poly(format_poly(p), _R) == p
