from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcoset.groebner import Ideal, groebner_basis, normal_form
from dcoset.parsing import parse_point, parse_poly
from dcoset.polyring import (
    GREVLEX,
    LEX,
    Polynomial,
    RingCtx,
    RingMismatchError,
    as_point,
    block_order,
    evaluate,
    extend_ring,
    format_poly,
    lift,
    substitute,
)


@pytest.fixture
def xy():
    return RingCtx(("x", "y"))


def test_ring_rejects_duplicate_names():
    with pytest.raises(ValueError):
        RingCtx(("x", "x"))


def test_ring_rejects_empty():
    with pytest.raises(ValueError):
        RingCtx(())


def test_gen_and_const(xy):
    x, y = xy.gens()
    p = 2 * x + y - 1
    assert p.terms == {(1, 0): 2, (0, 1): 1, (0, 0): -1}


def test_constants_hash_like_numbers(xy):
    assert hash(xy.const(3)) == hash(3)
    assert hash(xy.const(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(xy.zero()) == hash(0)
    assert 3 in {xy.const(3)}


def test_float_coefficients_rejected(xy):
    x, _ = xy.gens()
    with pytest.raises(TypeError):
        x * 0.5


def test_cross_ring_arithmetic_rejected(xy):
    other = RingCtx(("a", "b"))
    with pytest.raises(RingMismatchError):
        xy.gen("x") + other.gen("a")


def test_zero_and_degree(xy):
    x, y = xy.gens()
    assert (x - x).is_zero()
    assert (x - x).total_degree() == -1
    assert (x * y + 1).total_degree() == 2


def test_power(xy):
    x, y = xy.gens()
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (x + y) ** 0 == 1


def test_lex_vs_grevlex_leading_monomial():
    R = RingCtx(("x", "y", "z"))
    x, y, z = R.gens()
    p = x * y * z + x ** 2
    # lex prefers the pure power of the first variable, grevlex the cubic
    assert lift(p, RingCtx(R.vars, LEX)).sorted_terms()[0][0] == (2, 0, 0)
    assert lift(p, RingCtx(R.vars, GREVLEX)).sorted_terms()[0][0] == (1, 1, 1)


def _key(order, m):
    pk = order.packing(len(m))
    return pk.key(pk.pack(m))


def test_grevlex_tie_break():
    R = RingCtx(("x", "y", "z"))
    # same total degree: compare reversed exponents, negated
    assert _key(GREVLEX, (1, 1, 0)) > _key(GREVLEX, (1, 0, 1))
    assert _key(GREVLEX, (0, 2, 0)) > _key(GREVLEX, (1, 0, 1))


def test_block_order_eliminates_first():
    R = RingCtx(("t", "x", "y"))
    order = block_order(R, ("t",))
    # any monomial containing t beats any t-free monomial
    assert _key(order, (1, 0, 0)) > _key(order, (0, 5, 5))
    assert _key(order, (0, 2, 0)) > _key(order, (0, 1, 1))  # grevlex inside block


def test_evaluate(xy):
    x, y = xy.gens()
    p = x ** 2 - y
    assert evaluate(p, (Fraction(3), Fraction(2))) == 7


def test_substitute_scalar(xy):
    x, y = xy.gens()
    p = x * y + y
    assert substitute(p, {"x": 2}, into=xy) == 3 * y


def test_substitute_poly_into_other_ring(xy):
    R = RingCtx(("a", "b"))
    a, b = R.gens()
    p = xy.gen("x") * xy.gen("y")
    q = substitute(p, {"x": a + b, "y": a - b}, into=R)
    assert q == a * a - b * b


def test_substitute_missing_target_var_rejected(xy):
    R = RingCtx(("a",))
    p = xy.gen("x") + xy.gen("y")
    with pytest.raises(ValueError):
        substitute(p, {"x": R.gen("a")}, into=R)


def test_lift_and_restrict(xy):
    big = extend_ring(xy, ("z",))
    x, y = xy.gens()
    p = x * y + 2
    up = lift(p, big)
    assert up.ring is big
    assert lift(up, xy) == p
    with pytest.raises(ValueError):
        lift(big.gen("z"), xy)


def test_lift_maps_variables_by_name():
    xyz = RingCtx(("x", "y", "z"))
    x, y, z = xyz.gens()
    yx = RingCtx(("y", "x"), LEX)
    # z is unused, so a ring without it can take the polynomial
    down = lift(x * y ** 2 + x ** 2, yx)
    assert down.ring is yx
    assert down.terms == {(2, 1): 1, (0, 2): 1}
    assert down.sorted_terms()[0][0] == (2, 1)
    with pytest.raises(ValueError, match="'z' appears in the polynomial"):
        lift(x + z, yx)


def test_format_examples(xy):
    x, y = xy.gens()
    assert format_poly(x ** 2 + 2 * x * y + y ** 2) == "x^2 + 2*x*y + y^2"
    assert format_poly(-Fraction(3, 2) * x ** 2 - y + 1) == "-3/2*x^2 - y + 1"
    assert format_poly(xy.zero()) == "0"
    assert format_poly(xy.one()) == "1"


def test_point_validation(xy):
    with pytest.raises(ValueError):
        as_point(xy, (1,))


# property tests: ring laws on small random polynomials

_coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=7)


@st.composite
def polys(draw, ring, coeffs=_coeffs):
    n = draw(st.integers(min_value=0, max_value=4))
    p = ring.zero()
    for _ in range(n):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=3)) for _ in ring.vars
        )
        p = p + ring.monomial(exps, draw(coeffs))
    return p


_R3 = RingCtx(("x", "y", "z"))


@given(polys(_R3), polys(_R3), polys(_R3))
@settings(max_examples=60, deadline=None)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + _R3.zero() == p
    assert p * _R3.one() == p


@given(polys(_R3), polys(_R3), st.tuples(_coeffs, _coeffs, _coeffs))
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_homomorphism(p, q, pt):
    assert evaluate(p + q, pt) == evaluate(p, pt) + evaluate(q, pt)
    assert evaluate(p * q, pt) == evaluate(p, pt) * evaluate(q, pt)


@given(polys(_R3))
@settings(max_examples=60, deadline=None)
def test_format_parse_round_trip(p):
    assert parse_poly(format_poly(p), _R3) == p


@given(polys(_R3), polys(_R3))
@settings(max_examples=40, deadline=None)
def test_leading_monomial_is_multiplicative(p, q):
    if p.is_zero() or q.is_zero():
        return
    for order in (LEX, GREVLEX):
        ring = RingCtx(p.ring.vars, order)
        p, q = lift(p, ring), lift(q, ring)
        lm = (p * q).sorted_terms()[0][0]
        combined = tuple(
            a + b
            for a, b in zip(p.sorted_terms()[0][0], q.sorted_terms()[0][0])
        )
        assert lm == combined


# exact values: an int when integral, a Fraction otherwise, never a float or a bool

_scalars = st.one_of(st.integers(min_value=-40, max_value=40), _coeffs, st.booleans())
_R2 = RingCtx(("x", "y"))


def _exact(v):
    return type(v) in (int, Fraction)


def _normal(v):
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def _coefficients(*ps):
    return [c for p in ps for c in p.terms.values()]


@given(
    polys(_R3, _scalars),
    polys(_R3, _scalars),
    st.tuples(_scalars, _scalars, _scalars),
    st.lists(polys(_R2, _scalars), min_size=1, max_size=3),
    polys(_R2, _scalars),
    _scalars,
)
@settings(max_examples=60, deadline=None)
def test_values_are_ints_when_integral(p, q, coords, gens, f, c):
    built = (_R3.const(c), _R3.monomial((1, 0, 2), c), _R3.gen("y"))
    assert all(map(_normal, _coefficients(*built)))
    point = as_point(_R3, coords)
    assert all(map(_normal, point))
    assert _normal(evaluate(p, point))
    parsed = parse_point(",".join(map(str, point)), 3)
    assert parsed == point and all(map(_normal, parsed))
    assert all(map(_normal, _coefficients(parse_poly(format_poly(p), _R3))))

    computed = (p + q, p - q, p * q, p**2, -p, c * p, p + Fraction(1, 2))
    moved = (substitute(p, {"x": c, "y": q}, _R3), lift(p, RingCtx(_R3.vars, LEX)))
    assert all(map(_exact, _coefficients(*computed, *moved)))

    basis = groebner_basis(Ideal(_R2, gens))
    assert all(map(_normal, _coefficients(*basis)))
    if basis:
        assert all(map(_normal, _coefficients(normal_form(f, basis))))


@given(st.integers())
def test_integral_fraction_constant_is_its_int(n):
    a, b = _R3.const(Fraction(n)), _R3.const(n)
    assert a == b and hash(a) == hash(b) and str(a) == str(b)
    assert all(type(v) is int for v in a.terms.values())


# the public constructor: exponent tuples of the ring's arity, exact values

_monomials = st.tuples(*[st.integers(0, 3)] * 3)
_not_an_exponent = st.floats(0, 3) | st.text(max_size=1) | st.booleans() | st.none()
_bad_exponents = st.one_of(
    st.lists(st.integers(0, 3), max_size=5).filter(lambda e: len(e) != 3).map(tuple),
    st.tuples(st.integers(-5, -1), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(_not_an_exponent, st.integers(0, 3), st.integers(0, 3)),
    st.integers(0, 3) | st.text(max_size=2),
).flatmap(lambda e: st.permutations(e).map(tuple) if type(e) is tuple else st.just(e))


@given(st.dictionaries(_monomials, _scalars, max_size=6))
@example({(0, 0, 0): 0})
@example({(1, 0, 2): Fraction(6, 3), (0, 1, 0): False, (0, 0, 1): True})
@settings(max_examples=100, deadline=None)
def test_term_map_equals_its_sum_of_monomials(terms):
    p = Polynomial(_R3, terms)
    total = sum((_R3.monomial(m, c) for m, c in terms.items()), _R3.zero())
    assert p == total and str(p) == str(total) and p.terms == total.terms
    assert p.is_zero() is all(c == 0 for c in terms.values())
    assert all(c != 0 and _normal(c) for c in p.terms.values())


@given(st.dictionaries(_monomials, _scalars, max_size=4), _bad_exponents, _scalars)
@example({}, (1, 0, 0, 0), 1)  # one exponent too many is not dropped
@example({}, (1.9, 0, 0), 1)  # nor is a float truncated
@example({}, ("2", 0, 0), 1)  # nor a digit string parsed
@example({(0, 0, 0): 0}, (0.0, 0, 0), 0)  # a key equal to a valid one
@example({(1, 0, 0): 1}, (True, 0, 0), 1)
@settings(max_examples=100, deadline=None)
def test_malformed_exponents_raise(terms, bad, c):
    # a dict keeps the first of two equal keys, so ``bad`` goes first
    with pytest.raises((TypeError, ValueError)):
        Polynomial(_R3, {bad: c, **terms})
    with pytest.raises((TypeError, ValueError)):
        _R3.monomial(bad, c)


@given(st.dictionaries(_monomials, _scalars, max_size=4), _monomials, st.floats(allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_float_values_raise(terms, m, value):
    with pytest.raises(TypeError):
        Polynomial(_R3, {**terms, m: value})
    with pytest.raises(TypeError):
        _R3.monomial(m, value)
