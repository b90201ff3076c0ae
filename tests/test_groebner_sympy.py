"""Cross-validation of the Groebner engine against an independent
implementation, when one is importable."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from dcoset.polyring import GREVLEX, LEX, RingCtx
from dcoset.groebner import Ideal, groebner_basis


def _to_sympy(poly, symbols):
    expr = sympy.Integer(0)
    for exps, coeff in poly.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for sym, e in zip(symbols, exps):
            term *= sym ** e
        expr += term
    return expr


def _random_ideal(rng, ring):
    gens = []
    for _ in range(rng.randint(1, 3)):
        p = ring.zero()
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 2) for _ in ring.vars)
            p = p + ring.monomial(exps, Fraction(rng.randint(-4, 4)))
        if not p.is_zero():
            gens.append(p)
    return Ideal(ring, gens)


def _canon(e, symbols):
    # Rescale to a fixed monic form so both bases, each monic with respect
    # to its own order convention, become comparable.
    return sympy.expand(sympy.monic(e, *symbols) if e.free_symbols else sympy.Integer(1))


def _assert_matches_sympy(ring, gens, order_name):
    symbols = sympy.symbols(ring.vars)
    ours = groebner_basis(Ideal(ring, gens))
    theirs = sympy.groebner(
        [_to_sympy(g, symbols) for g in gens], *symbols, order=order_name
    )
    assert {_canon(_to_sympy(g, symbols), symbols) for g in ours} == {
        _canon(e, symbols) for e in theirs.exprs
    }
    assert len(ours) == len(theirs.exprs)


def test_cyclic4_grevlex_matches_sympy():
    # cyclic-4: the cyclic sums of degree 1, 2, 3 and x0*x1*x2*x3 - 1
    ring = RingCtx(("x0", "x1", "x2", "x3"), GREVLEX)
    x = ring.gens()
    gens = []
    for d in range(1, 4):
        total = ring.zero()
        for i in range(4):
            term = ring.one()
            for k in range(d):
                term = term * x[(i + k) % 4]
            total = total + term
        gens.append(total)
    gens.append(x[0] * x[1] * x[2] * x[3] - 1)
    _assert_matches_sympy(ring, gens, "grevlex")


def test_katsura3_lex_matches_sympy():
    # katsura-3 in u0..u3 with u(-i) = u(i) and u(i) = 0 for i > 3
    ring = RingCtx(("u0", "u1", "u2", "u3"), LEX)
    u = ring.gens()

    def at(i):
        return u[abs(i)] if abs(i) <= 3 else ring.zero()

    gens = []
    for m in range(3):
        total = ring.zero()
        for l in range(-3, 4):
            total = total + at(l) * at(m - l)
        gens.append(total - u[m])
    gens.append(u[0] + 2 * u[1] + 2 * u[2] + 2 * u[3] - 1)
    _assert_matches_sympy(ring, gens, "lex")


def test_katsura5_grevlex_matches_sympy():
    # katsura-5 in u0..u5: a 22-element reduced basis, the largest input
    # checked here
    ring = RingCtx(tuple(f"u{i}" for i in range(6)), GREVLEX)
    u = ring.gens()

    def at(i):
        return u[abs(i)] if abs(i) <= 5 else ring.zero()

    gens = []
    for m in range(5):
        total = ring.zero()
        for l in range(-5, 6):
            total = total + at(l) * at(m - l)
        gens.append(total - u[m])
    linear = u[0]
    for v in u[1:]:
        linear = linear + 2 * v
    gens.append(linear - 1)
    _assert_matches_sympy(ring, gens, "grevlex")


@pytest.mark.parametrize("order_name", ["lex", "grevlex"])
def test_reduced_bases_match_sympy(order_name):
    order = {"lex": LEX, "grevlex": GREVLEX}[order_name]
    rng = random.Random(2026)
    for trial in range(20):
        nvars = rng.randint(1, 3)
        ring = RingCtx(("x", "y", "z")[:nvars], order)
        symbols = sympy.symbols(ring.vars)
        if nvars == 1:
            symbols = (symbols,) if not isinstance(symbols, tuple) else symbols
        ideal = _random_ideal(rng, ring)
        if not ideal.generators:
            continue
        ours = groebner_basis(ideal)
        theirs = sympy.groebner(
            [_to_sympy(g, symbols) for g in ideal.generators],
            *symbols,
            order=order_name,
        )
        ours_exprs = {_canon(_to_sympy(g, symbols), symbols) for g in ours}
        theirs_exprs = {_canon(e, symbols) for e in theirs.exprs}
        assert ours_exprs == theirs_exprs, f"trial {trial}: {ours_exprs} != {theirs_exprs}"
