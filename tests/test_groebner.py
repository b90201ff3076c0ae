import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcoset import groebner
from dcoset.polyring import EXPONENT_LIMIT, GREVLEX, LEX, RingCtx, block_order
from dcoset.groebner import (
    Ideal,
    _assert_fixed_point,
    eliminate,
    equal_ideals,
    fresh_var,
    groebner_basis,
    ideal_member,
    ideal_product,
    ideal_sum,
    is_unit_ideal,
    normal_form,
    radical_member,
    saturate,
)


@pytest.fixture
def xy():
    return RingCtx(("x", "y"))


def test_gb_textbook_pair():
    R = RingCtx(("x", "y"), LEX)
    x, y = R.gens()
    I = Ideal(R, [x ** 2 + y ** 2, x ** 2 - y ** 2])
    gb = groebner_basis(I)
    assert list(gb) == [x ** 2, y ** 2]


def test_gb_is_monic_and_sorted():
    R = RingCtx(("x", "y", "z"))
    x, y, z = R.gens()
    I = Ideal(R, [3 * x - y, 5 * y - z])
    gb = groebner_basis(I)
    for g in gb:
        assert g.sorted_terms()[0][1] == 1
    keys = [g.packed()[0][0] for g in gb]
    assert keys == sorted(keys, reverse=True)


def test_gb_of_zero_ideal(xy):
    assert groebner_basis(Ideal(xy, [])) == ()


def test_unit_ideal(xy):
    x, _ = xy.gens()
    assert is_unit_ideal(Ideal(xy, [x, 1 - x]))
    assert not is_unit_ideal(Ideal(xy, [x]))


def test_normal_form_reduces_members(xy):
    x, y = xy.gens()
    I = Ideal(xy, [x ** 2 + y ** 2, x ** 2 - y ** 2])
    gb = groebner_basis(I)
    assert normal_form(x ** 4 - y ** 4, gb).is_zero()
    r = normal_form(x ** 2 + x, gb)
    assert r == x  # x^2 reduces away, x survives


def test_ideal_member(xy):
    x, y = xy.gens()
    I = Ideal(xy, [x * y - 1])
    assert ideal_member(x * x * y - x, I)
    assert not ideal_member(x, I)


def test_radical_membership(xy):
    x, y = xy.gens()
    I = Ideal(xy, [(x + y) ** 3])
    assert radical_member(x + y, I)
    assert not ideal_member(x + y, I)
    assert not radical_member(x, I)


def test_eliminate_parabola():
    R = RingCtx(("x", "y"))
    x, y = R.gens()
    # projecting the parabola y = x^2 to the y-axis covers everything
    E = eliminate(Ideal(R, [y - x ** 2]), {"x"})
    assert E.ring.vars == ("y",)
    assert E.is_zero_ideal()


def test_eliminate_circle_line():
    R = RingCtx(("x", "y"))
    x, y = R.gens()
    I = Ideal(R, [x ** 2 + y ** 2 - 1, x - y])
    E = eliminate(I, {"x"})
    (g,) = groebner_basis(E)
    yy = E.ring.gen("y")
    assert g == yy ** 2 - Fraction(1, 2)


def test_saturate_strips_component(xy):
    x, y = xy.gens()
    S = saturate(Ideal(xy, [x * y]), x)
    assert equal_ideals(S, Ideal(xy, [y]))


def test_saturate_by_zero_rejected(xy):
    with pytest.raises(ValueError):
        saturate(Ideal(xy, [xy.gen("x")]), xy.zero())


def test_ideal_sum_and_product(xy):
    x, y = xy.gens()
    A, B = Ideal(xy, [x]), Ideal(xy, [y])
    assert equal_ideals(ideal_sum(A, B), Ideal(xy, [x, y]))
    assert equal_ideals(ideal_product(A, B), Ideal(xy, [x * y]))
    # the zero ideal absorbs products
    assert ideal_product(A, Ideal(xy, [])).is_zero_ideal()


def test_fresh_var(xy):
    assert fresh_var(xy) == "t"
    R = RingCtx(("t", "t_1"))
    assert fresh_var(R) == "t_2"


def _spair(f, g):
    """S(f, g) = (L/lt f)·f - (L/lt g)·g with L the lcm of the leading
    monomials, from ring arithmetic alone."""
    (mf, cf), (mg, cg) = f.sorted_terms()[0], g.sorted_terms()[0]
    top = tuple(map(max, mf, mg))

    def cofactor(m, c):
        return f.ring.monomial([t - e for t, e in zip(top, m)], Fraction(1, c))

    return cofactor(mf, cf) * f - cofactor(mg, cg) * g


def test_spolynomial_cancels_leads(xy):
    x, y = xy.gens()
    f = x ** 2 * y - 1
    g = x * y ** 2 - x
    s = _spair(f, g)
    assert s == x * x - y
    assert ideal_member(s, Ideal(xy, [f, g]))


def test_gb_cache_reused(xy):
    x, y = xy.gens()
    I = Ideal(xy, [x ** 2 - y])
    first = groebner_basis(I)
    assert groebner_basis(I) is first
    assert groebner_basis(Ideal(RingCtx(xy.vars, LEX), I.generators)) is not first


def test_block_order_respects_elimination():
    base = RingCtx(("t", "x"))
    R = RingCtx(base.vars, block_order(base, ("t",)))
    t, x = R.gens()
    I = Ideal(R, [t * x - 1, t - x])
    gb = groebner_basis(I)
    free = [g for g in gb if g.sorted_terms()[0][0][0] == 0]
    assert any(g == x ** 2 - 1 for g in free)


def test_fixed_point_audit_rejects_a_non_groebner_basis():
    R = RingCtx(("x", "y", "z"))
    x, y, z = R.gens()
    # x^2 and xy share x, and S = y(x^2 - y) - x(xy - 1) = x - y^2 is
    # already reduced; z - 1 has coprime leading monomials with both, so
    # the first criterion skips its two pairs and the shared pair must fail
    with pytest.raises(AssertionError, match="elements 0 and 1"):
        _assert_fixed_point((x ** 2 - y, x * y - 1, z - 1))
    _assert_fixed_point((x ** 2 - y, z - 1))


def test_audit_catches_an_engine_that_drops_a_generator(monkeypatch):
    R = RingCtx(("x", "y"))
    x, y = R.gens()
    buchberger = groebner._buchberger
    # the mutant returns a Groebner basis, but of a smaller ideal
    monkeypatch.setattr(groebner, "_buchberger", lambda gens, pk: buchberger(gens[1:], pk))
    with pytest.raises(AssertionError, match="generator 0 does not reduce to zero"):
        groebner_basis(Ideal(R, [x ** 2 - y, x * y - 1]))


def test_audit_catches_an_engine_that_perturbs_a_coefficient(monkeypatch):
    R = RingCtx(("x", "y"))
    x, y = R.gens()
    reduced_basis = groebner._reduced_basis

    def doubled(basis, pk):
        # the mutant doubles one tail coefficient of its first element
        out = reduced_basis(basis, pk)
        (k, e, c), *rest = out[0][1:]
        out[0] = [out[0][0], (k, e, 2 * c), *rest]
        return out

    monkeypatch.setattr(groebner, "_reduced_basis", doubled)
    with pytest.raises(AssertionError):
        groebner_basis(Ideal(R, [x ** 2 - y, x * y - 1]))


def _cyclic(n):
    R = RingCtx(tuple(f"x{i}" for i in range(n)))
    x = R.gens()
    gens = []
    for d in range(1, n):
        total = R.zero()
        for i in range(n):
            term = R.one()
            for k in range(d):
                term = term * x[(i + k) % n]
            total = total + term
        gens.append(total)
    product = R.one()
    for v in x:
        product = product * v
    return Ideal(R, gens + [product - 1])


def _katsura(n):
    R = RingCtx(tuple(f"u{i}" for i in range(n + 1)))
    u = R.gens()

    def at(i):
        return u[abs(i)] if abs(i) <= n else R.zero()

    gens = []
    for m in range(n):
        total = R.zero()
        for l in range(-n, n + 1):
            total = total + at(l) * at(m - l)
        gens.append(total - u[m])
    linear = u[0]
    for v in u[1:]:
        linear = linear + 2 * v
    return Ideal(R, gens + [linear - 1])


@pytest.mark.parametrize(
    "ideal, pairs", [(_cyclic(5), 45), (_katsura(4), 26), (_katsura(5), 64)]
)
def test_audit_reduces_only_the_gebauer_moeller_pairs(monkeypatch, ideal, pairs):
    # the all-pairs audit reduced 134, 41 and 137 non-coprime pairs here
    basis = groebner_basis(ideal)
    spoly = groebner._spoly
    formed = []
    monkeypatch.setattr(groebner, "_spoly", lambda *a: formed.append(a) or spoly(*a))
    groebner._assert_fixed_point(basis, ideal.generators)
    assert len(formed) == pairs


def test_exponents_at_the_packing_limit_are_refused():
    R = RingCtx(("x", "y"), LEX)
    x, y = R.gens()
    with pytest.raises(ValueError, match="exponent"):
        groebner_basis(Ideal(R, [R.monomial((2 ** 40, 0)) - y]))
    # reducing x^2 by x - y^(2^31) leaves y^(2^32), and reducing x^3 meets
    # the shift y^(2^32) on the way: refused, not wrapped
    g = x - R.monomial((0, 2 ** 31))
    with pytest.raises(ValueError, match="exponent"):
        groebner_basis(Ideal(R, [g, x ** 2]))
    for f in (x ** 2, x ** 3):
        with pytest.raises(ValueError, match="exponent"):
            normal_form(f, [g])
    # S(g, x*y^(2^31) - 1) = 1 - y^(2^32)
    with pytest.raises(ValueError, match="exponent"):
        groebner_basis(Ideal(R, [g, x * R.monomial((0, 2 ** 31)) - 1]))
    # just below the limit the engine is exact
    top = R.monomial((EXPONENT_LIMIT - 1, 0))
    assert groebner_basis(Ideal(R, [top - y])) == (top - y,)
    assert normal_form(y * top, [top - y]) == y ** 2


def test_ideal_moves_generators_into_its_ring():
    lex = RingCtx(("x", "y", "z"), LEX)
    x, y, z = RingCtx(lex.vars).gens()
    # the twisted cubic: three grevlex generators, four in lex
    I = Ideal(lex, [x ** 2 - y, x * y - z, y ** 2 - x * z])
    assert all(g.ring is lex for g in I.generators)
    assert [str(g) for g in groebner_basis(I)] == ["x^2 - y", "x*y - z", "x*z - y^2", "y^3 - z^2"]


def test_normal_form_rejects_a_basis_in_another_order(xy):
    x, y = xy.gens()
    gb = groebner_basis(Ideal(RingCtx(xy.vars, LEX), [x ** 2 - y]))
    with pytest.raises(ValueError, match="not in"):
        normal_form(x ** 3, gb)
    assert normal_form(x ** 3, groebner_basis(Ideal(xy, [x ** 2 - y]))) == x * y


# randomized structural properties (a denser version runs in acceptance)

_names = ("x", "y", "z")


def _random_ideal(rng: random.Random) -> Ideal:
    nvars = rng.randint(1, 3)
    R = RingCtx(_names[:nvars])
    gens = []
    for _ in range(rng.randint(1, 3)):
        p = R.zero()
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 3) for _ in range(nvars))
            if sum(exps) > 3:
                continue
            p = p + R.monomial(exps, Fraction(rng.randint(-5, 5)))
        if not p.is_zero():
            gens.append(p)
    return Ideal(R, gens)


def test_spolynomials_reduce_to_zero_on_random_ideals():
    rng = random.Random(7)
    for _ in range(25):
        I = _random_ideal(rng)
        gb = groebner_basis(I)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                s = _spair(gb[i], gb[j])
                assert normal_form(s, gb).is_zero()


def test_gb_invariant_under_generator_permutation():
    rng = random.Random(11)
    for _ in range(25):
        I = _random_ideal(rng)
        gens = list(I.generators)
        rng.shuffle(gens)
        J = Ideal(I.ring, gens)
        assert groebner_basis(I) == groebner_basis(J)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_membership_after_scaling(seed):
    rng = random.Random(seed)
    I = _random_ideal(rng)
    if not I.generators:
        return
    g = I.generators[0]
    c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    assert ideal_member(c * g, I)


def _all_pairs_audit(basis) -> bool:
    """The reference audit: every S-polynomial of basis reduces to zero."""
    return all(
        normal_form(_spair(f, g), basis).is_zero()
        for n, f in enumerate(basis)
        for g in basis[n + 1 :]
    )


def _audit(basis) -> bool:
    try:
        _assert_fixed_point(basis)
    except AssertionError:
        return False
    return True


@st.composite
def _audit_cases(draw):
    """A random reduced basis, as is, with one element dropped, with one
    tail coefficient perturbed, or with a monomial multiple of one element
    inserted before it: a non-minimal input, whose multiple leaves the live
    set when the element joins it; the multiple's tail may be perturbed."""
    rng = draw(st.randoms(use_true_random=False))
    R = RingCtx(_names[: rng.randint(2, 3)], rng.choice((LEX, GREVLEX)))
    # homogeneous generators of degree 2 or 3, a few with one term of lower
    # degree: the ideal is seldom the unit ideal, so bases have pairs
    gens = []
    for _ in range(rng.randint(2, 3)):
        d = rng.randint(2, 3)
        p = R.zero()
        for n in range(rng.randint(2, 3)):
            exps = [0] * len(R.vars)
            for _ in range(d - (n == 1 and rng.random() < 0.3)):
                exps[rng.randrange(len(exps))] += 1
            p = p + R.monomial(exps, Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))
        gens.append(p)
    basis = list(groebner_basis(Ideal(R, gens)))
    variant = draw(st.sampled_from(("as is", "drop", "perturb", "multiple")))
    if not basis or variant == "as is":
        return "as is", basis
    k = rng.randrange(len(basis))
    g = basis[k]
    if variant == "drop":
        del basis[k]
    elif variant == "perturb":
        terms = g.sorted_terms()[1:]
        if terms:
            m, _ = rng.choice(terms)
            basis[k] = g + R.monomial(m, Fraction(rng.choice((-2, -1, 1, 3))))
    else:
        multiple = R.monomial(tuple(rng.randint(0, 2) for _ in R.vars)) * g
        tail = multiple.sorted_terms()[1:]
        if tail and rng.random() < 0.5:
            m, _ = rng.choice(tail)
            multiple = multiple + R.monomial(m, Fraction(1))
        basis.insert(rng.randint(0, k), multiple)
    return variant, basis


@settings(max_examples=500, deadline=None)
@given(_audit_cases())
def test_gebauer_moeller_audit_agrees_with_all_pairs(case):
    variant, basis = case
    verdict = _all_pairs_audit(basis)
    assert _audit(basis) == verdict
    if variant == "as is":
        assert verdict
