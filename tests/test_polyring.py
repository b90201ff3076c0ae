from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcoset.polyring import (
    GREVLEX,
    LEX,
    Polynomial,
    RingCtx,
    RingMismatchError,
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
        xy.point((1,))


# property tests: ring laws on small random polynomials

_coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=7)


@st.composite
def polys(draw, ring):
    n = draw(st.integers(min_value=0, max_value=4))
    p = ring.zero()
    for _ in range(n):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=3)) for _ in ring.vars
        )
        p = p + ring.monomial(exps, draw(_coeffs))
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
    from dcoset.parsing import parse_poly

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
