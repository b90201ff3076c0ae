import random
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
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


def test_zero_ideal_runs_no_engine(xy, monkeypatch):
    def refuse(*args):
        raise AssertionError("the zero ideal reached the engine")

    for name in ("_buchberger", "_reduced_basis", "_assert_fixed_point"):
        monkeypatch.setattr(groebner, name, refuse)
    zero = Ideal(xy, [xy.zero()])
    assert groebner_basis(zero) == ()
    assert not ideal_member(xy.gen("x"), zero)
    assert not is_unit_ideal(zero)


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


def test_zero_is_a_member_without_a_basis(xy, monkeypatch):
    x, y = xy.gens()
    buchberger = groebner._buchberger
    runs = []
    monkeypatch.setattr(groebner, "_buchberger", lambda *a: runs.append(a) or buchberger(*a))
    I = Ideal(xy, [x * y - 1])
    assert ideal_member(xy.zero(), I)
    assert radical_member(xy.zero(), I)
    assert runs == []
    for member in (ideal_member, radical_member):
        with pytest.raises(ValueError, match="different rings"):
            member(RingCtx(("z",)).zero(), I)


def test_radical_membership(xy):
    x, y = xy.gens()
    I = Ideal(xy, [(x + y) ** 3])
    assert radical_member(x + y, I)
    assert not ideal_member(x + y, I)
    assert not radical_member(x, I)


def _count_inverting(monkeypatch) -> list:
    inverting = groebner._inverting
    calls = []
    monkeypatch.setattr(groebner, "_inverting", lambda *a: calls.append(a) or inverting(*a))
    return calls


def test_radical_member_settles_members_without_the_extended_ring(xy, monkeypatch):
    x, y = xy.gens()
    calls = _count_inverting(monkeypatch)
    I = Ideal(xy, [x * y - 1, x ** 2 + y])
    assert radical_member(x ** 3 * y - x ** 2, I)
    assert radical_member(3 * (x ** 2 + y) * y, I)
    assert calls == []


def test_radical_member_falls_back_off_the_ideal(xy, monkeypatch):
    x, y = xy.gens()
    calls = _count_inverting(monkeypatch)
    I = Ideal(xy, [x ** 2 * y, x * y ** 2])
    assert not ideal_member(x * y, I)
    assert radical_member(x * y, I)  # (xy)^2 lies in I, xy does not
    assert not radical_member(x, I)
    assert not radical_member(x + y, I)
    assert len(calls) == 3


@st.composite
def _radical_cases(draw):
    """A small ideal in 2 or 3 variables, in grevlex or lex, and f drawn as a
    combination of its generators, as p with p^2 put in the ideal, or at
    random."""
    rng = draw(st.randoms(use_true_random=False))
    R = RingCtx(_names[: rng.randint(2, 3)], rng.choice((GREVLEX, LEX)))

    def poly(terms, degree):
        p = R.zero()
        for _ in range(terms):
            exps = [0] * len(R.vars)
            for _ in range(rng.randint(0, degree)):
                exps[rng.randrange(len(exps))] += 1
            p = p + R.monomial(exps, Fraction(rng.randint(-3, 3)))
        return p

    gens = [g for g in (poly(rng.randint(1, 3), 3) for _ in range(rng.randint(1, 3))) if g]
    kind = draw(st.sampled_from(("combination", "square", "random")))
    if kind == "combination":
        f = R.zero()
        for g in gens:
            f = f + poly(rng.randint(1, 2), 1) * g
    elif kind == "square":
        f = poly(rng.randint(1, 3), 2)
        gens.append(f ** 2)
    else:
        f = poly(rng.randint(1, 3), 2)
    return f, Ideal(R, gens)


@settings(max_examples=150, deadline=None)
@given(_radical_cases())
def test_radical_member_agrees_with_rabinowitsch(case):
    # the reference is 1 in ideal + (1 - t*f), with no membership shortcut
    f, ideal = case
    assert radical_member(f, ideal) == is_unit_ideal(groebner._inverting(ideal, f))


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


def test_ideal_sum_returns_a_lone_summand_with_its_basis(xy):
    x, y = xy.gens()
    I = Ideal(xy, [x ** 2 - y])
    zero = Ideal(xy, [])
    assert ideal_sum(zero, I) is I
    assert ideal_sum(I, zero, zero) is I
    # a summand in another order than the first ideal's ring is moved
    lex = RingCtx(xy.vars, LEX)
    moved = ideal_sum(Ideal(lex, []), I)
    assert moved is not I and moved.ring == lex
    assert all(g.ring == lex for g in moved.generators)
    assert equal_ideals(moved, Ideal(lex, I.generators))


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


def _katsura(n, order=GREVLEX):
    R = RingCtx(tuple(f"u{i}" for i in range(n + 1)), order)
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
    multiple = groebner._multiple
    formed = []
    monkeypatch.setattr(groebner, "_multiple", lambda *a: formed.append(a) or multiple(*a))
    groebner._assert_fixed_point(basis, ideal.generators)
    assert len(formed) == pairs


def _spair_run(monkeypatch, ideal):
    """The (i, j) of each S-pair `_buchberger` reduces on ideal's generators,
    in the order reduced, and its raw basis."""
    reduce, multiple = groebner._reduce, groebner._multiple
    pending, pairs = [], []

    def tracked_multiple(record, *args):
        pending[:] = [record]
        return multiple(record, *args)

    def tracked_reduce(terms, divisors, pk, found, first=None):
        if first is not None:
            ids = [id(d) for d in divisors]
            pairs.append((ids.index(id(pending[0])), ids.index(id(first))))
        return reduce(terms, divisors, pk, found, first)

    with monkeypatch.context() as m:
        m.setattr(groebner, "_multiple", tracked_multiple)
        m.setattr(groebner, "_reduce", tracked_reduce)
        basis = groebner._buchberger([g.packed() for g in ideal.generators], ideal.ring.packing)
    return pairs, basis


def _scaling_graph():
    """The ideal generic_orbit_closure eliminates for the torus scaling of a
    2x2 matrix: (m_ij - s*m_ij_0, s*u - 1), in the block order dropping s, u."""
    names = ("m11", "m12", "m21", "m22", "s", "u", "m11_0", "m12_0", "m21_0", "m22_0")
    R = RingCtx(names, block_order(RingCtx(names), ("s", "u")))
    v = dict(zip(names, R.gens()))
    gens = [v[m] - v["s"] * v[f"{m}_0"] for m in names[:4]]
    return Ideal(R, gens + [v["s"] * v["u"] - 1])


@pytest.mark.parametrize(
    "ideal, reductions, raw",
    [(_katsura(3, LEX), 17, 18), (_scaling_graph(), 40, 15)],
    ids=["lex-katsura-3", "scaling-closure"],
)
def test_sugar_shortens_lex_and_elimination_runs(monkeypatch, ideal, reductions, raw):
    # taking the smallest lcm first made 43 reductions and a raw basis of 34
    # on lex katsura-3, and 86 and 25 on the scaling closure
    pairs, basis = _spair_run(monkeypatch, ideal)
    assert (len(pairs), len(basis)) == (reductions, raw)


# The signature loop runs every graded order.  Its statistics are
# deterministic: the signatures it reduces, how many reach zero, how many
# are dropped as singular, and the raw basis size.  cyclic-5 and katsura-4
# are regular sequences, on which no reduction reaches zero.


def _signature_stats(ideal: Ideal, gens=None) -> tuple:
    """(signatures reduced, zero remainders, singular drops, raw basis) of
    the signature loop on ideal's generators, or on gens in their place."""
    reduce, results = groebner._reduce, []

    def tracked(terms, divisors, pk, found, first=None, bound=None):
        r = reduce(terms, divisors, pk, found, first, bound)
        if bound is not None:
            results.append(r[0])
        return r

    gens = ideal.generators if gens is None else gens
    with mock.patch.object(groebner, "_reduce", tracked):
        basis = groebner._buchberger([g.packed() for g in gens], ideal.ring.packing)
    stats = len(results), sum(r == [] for r in results), sum(r is None for r in results)
    return stats, basis


@pytest.mark.parametrize(
    "ideal, stats",
    [
        (_cyclic(4), (8, 1, 0, 7)),
        (_cyclic(5), (63, 0, 24, 39)),
        (_katsura(3), (8, 0, 0, 8)),
        (_katsura(4), (16, 0, 0, 16)),
    ],
    ids=["cyclic-4", "cyclic-5", "katsura-3", "katsura-4"],
)
def test_signature_runs_are_pinned(ideal, stats):
    counts, basis = _signature_stats(ideal)
    assert (*counts, len(basis)) == stats


# cyclic-6's reduced basis under grevlex, by leading exponent vector, as
# the sugar loop computed it


_CYCLIC6_LMS = [
    (0, 0, 0, 0, 3, 6), (0, 0, 1, 1, 0, 7), (0, 0, 0, 2, 0, 7), (0, 1, 0, 0, 1, 7),
    (0, 0, 1, 0, 1, 7), (0, 0, 0, 1, 1, 7), (0, 0, 0, 0, 2, 7), (0, 1, 0, 0, 0, 8),
    (0, 0, 1, 0, 0, 8), (0, 0, 0, 1, 0, 8), (0, 0, 0, 0, 0, 9), (0, 1, 0, 1, 1, 5),
    (0, 0, 1, 1, 1, 5), (0, 0, 0, 2, 1, 5), (0, 1, 0, 0, 2, 5), (0, 0, 1, 0, 2, 5),
    (0, 0, 0, 1, 2, 5), (0, 1, 1, 0, 0, 6), (0, 0, 2, 0, 0, 6), (0, 1, 0, 1, 0, 6),
    (0, 0, 0, 0, 4, 3), (0, 0, 0, 3, 0, 4), (0, 1, 1, 0, 1, 4), (0, 0, 2, 0, 1, 4),
    (0, 0, 1, 2, 0, 3), (0, 0, 0, 0, 5, 0), (0, 0, 1, 3, 0, 0), (0, 0, 0, 4, 0, 0),
    (0, 0, 1, 2, 1, 0), (0, 0, 0, 3, 1, 0), (0, 1, 1, 0, 2, 0), (0, 0, 2, 0, 2, 0),
    (0, 1, 0, 1, 2, 0), (0, 0, 1, 1, 2, 0), (0, 0, 0, 2, 2, 0), (0, 1, 0, 0, 3, 0),
    (0, 0, 1, 0, 3, 0), (0, 0, 0, 1, 3, 0), (0, 1, 2, 0, 0, 0), (0, 0, 3, 0, 0, 0),
    (0, 1, 1, 1, 0, 0), (0, 0, 2, 1, 0, 0), (0, 1, 0, 2, 0, 0), (0, 2, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
]


def test_cyclic6_basis_keeps_its_leading_monomials():
    ideal = _cyclic(6)
    stats, _ = _signature_stats(ideal)
    assert stats == (415, 8, 252)
    basis = groebner_basis(ideal)  # audited on return
    assert [b.sorted_terms()[0][0] for b in basis] == _CYCLIC6_LMS


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


# S-pair remainders against the engine's earlier S-polynomial, which was
# built apart from `_reduce`; the engine now forms it as the first step of
# `_reduce` on the lcm-multiple of one element, reduced by the other


def _spoly(fd: tuple, gd: tuple, top: int, top_key: int, over: int) -> list:
    """lcm(a, b) times the S-polynomial of two divisor records with leading
    coefficients a and b and leading monomials of lcm top, as an int list."""
    a, b = fd[2], gd[2]
    g = gcd(a, b)
    out = {}
    for (lm, key, _, tail), factor in ((fd, b // g), (gd, -(a // g))):
        shift = top - lm
        dk = top_key - key
        for k, e, c in tail:
            c *= factor
            k += dk
            old = out.get(k)
            if old is None:
                e += shift
                if e & over:
                    raise ValueError("exponent overflow")
                out[k] = (e, c)
            else:
                v = old[1] + c
                if v:
                    out[k] = (old[0], v)
                else:
                    del out[k]
    return sorted(((k, e, c) for k, (e, c) in out.items()), reverse=True)


def _nonzero_spair_remainders(ideal: Ideal) -> int:
    """Assert that every pair (i, j), i < j, of the records of a Buchberger
    run leaves the same remainder by either path, against the records j
    met on arrival and against all of them; count the nonzero ones."""
    pk = ideal.ring.packing
    basis = groebner._buchberger([g.packed() for g in ideal.generators], pk)
    records = [groebner._divisor(b) for b in basis]
    nonzero = 0
    for j, gd in enumerate(records):
        for i, fd in enumerate(records[:j]):
            top = pk.lcm(fd[0], gd[0])
            key = pk.key(top)
            for divisors in (records[: j + 1], records):
                multiple = groebner._multiple(fd, top, key, pk.over)
                new = groebner._reduce(multiple, divisors, pk, {}, gd)[0]
                spoly = _spoly(fd, gd, top, key, pk.over)
                assert new == groebner._reduce(spoly, divisors, pk, {})[0]
                nonzero += bool(new)
    return nonzero


@st.composite
def _small_ideals(draw):
    rng = draw(st.randoms(use_true_random=False))
    ideal = _random_ideal(rng)
    ring = RingCtx(ideal.ring.vars, draw(st.sampled_from((GREVLEX, LEX))))
    return Ideal(ring, ideal.generators)


@settings(max_examples=200, deadline=None)
@given(_small_ideals())
def test_spair_remainders_match_the_old_spolynomial(ideal):
    _nonzero_spair_remainders(ideal)


@pytest.mark.parametrize(
    "ideal",
    [_cyclic(5), _katsura(4), _katsura(3, LEX)],
    ids=["cyclic-5", "katsura-4", "lex-katsura-3"],
)
def test_spair_remainders_match_the_old_spolynomial_on_families(ideal):
    assert _nonzero_spair_remainders(ideal)


# `_reduce` before its divisor memo, frozen: it scanned the divisor list
# from the start for every popped term


def _linear_reduce(terms, divisors, pk, first=None):
    if not terms or not divisors:
        return terms, 1
    guard, over = pk.guard, pk.over
    lms = [d[0] for d in divisors]
    work = {}
    exps = {}
    for k, e, c in terms:
        work[-k] = c
        exps[-k] = e
    heap = list(work)
    out = []
    lam = 1
    while heap:
        nk = heappop(heap)
        c = work.pop(nk, None)
        if c is None:
            continue
        m = exps[nk]
        if first is None:
            for i, lm in enumerate(lms):
                if not (m - lm) & guard:
                    break
            else:
                out.append((-nk, m, c))
                continue
            lm, lk, a, tail = divisors[i]
        else:
            (lm, lk, a, tail), first = first, None
        shift = m - lm
        nshift = nk + lk
        g = gcd(a, c)
        s = a // g
        if s != 1:
            lam *= s
            work = {mk: v * s for mk, v in work.items()}
            out = [(k, e, v * s) for k, e, v in out]
        factor = -(c // g)
        for bk, bm, bc in tail:
            mk = nshift - bk
            old = work.get(mk)
            if old is None:
                e = bm + shift
                if e & over:
                    raise ValueError("exponent overflow")
                work[mk] = factor * bc
                exps[mk] = e
                heappush(heap, mk)
            else:
                v = old + factor * bc
                if v:
                    work[mk] = v
                else:
                    del work[mk]
    return out, lam


def _random_polys(rng: random.Random, ring: RingCtx, count: int) -> list:
    """count nonzero polynomials of degree at most 3 in ring."""
    polys = []
    while len(polys) < count:
        p = ring.zero()
        for _ in range(rng.randint(1, 4)):
            exps = [0] * len(ring.vars)
            for _ in range(rng.randint(0, 3)):
                exps[rng.randrange(len(exps))] += 1
            p = p + ring.monomial(exps, Fraction(rng.choice((-3, -2, -1, 1, 2, 5))))
        if not p.is_zero():
            polys.append(p)
    return polys


def _memo_walk(ideal: Ideal, rng: random.Random) -> int:
    """Walk the records of a Buchberger run in order: against each prefix
    records[: j + 1], reduce the S-pairs (i, j) and a few random polynomials,
    all through one memo, and assert that each (r, λ) equals the linear
    scan's.  Returns how many memo entries went from a miss to a divisor
    appended after the miss."""
    pk = ideal.ring.packing
    basis = groebner._buchberger([g.packed() for g in ideal.generators], pk)
    records = [groebner._divisor(b) for b in basis]
    extra = [groebner._primitive(p.packed()) for p in _random_polys(rng, ideal.ring, 3)]
    found, revived = {}, 0
    for j, gd in enumerate(records):
        divisors = records[: j + 1]
        calls = [(terms, None) for terms in extra]
        for fd in records[:j]:
            top = pk.lcm(fd[0], gd[0])
            calls.append((groebner._multiple(fd, top, pk.key(top), pk.over), gd))
        for terms, first in calls:
            misses = {m for m, i in found.items() if i < 0}
            got = groebner._reduce(terms, divisors, pk, found, first)
            assert got == _linear_reduce(terms, divisors, pk, first)
            revived += sum(found[m] >= 0 for m in misses)
    return revived


@st.composite
def _memo_cases(draw):
    """A random ideal under grevlex, lex or a block order, and a seeded rng."""
    rng = draw(st.randoms(use_true_random=False))
    names = _names[: draw(st.integers(1, 3))]
    order = draw(st.sampled_from((GREVLEX, LEX, block_order(RingCtx(names), names[:1]))))
    ring = RingCtx(names, order)
    return Ideal(ring, _random_polys(rng, ring, draw(st.integers(1, 3)))), rng


@settings(max_examples=300, deadline=None)
@given(_memo_cases())
def test_memoized_reduce_matches_the_linear_scan(case):
    _memo_walk(*case)


@pytest.mark.parametrize(
    "ideal",
    [_cyclic(4), _katsura(3, LEX), _scaling_graph()],
    ids=["cyclic-4", "lex-katsura-3", "scaling-closure"],
)
def test_memo_rescans_the_records_appended_since_a_miss(ideal):
    assert _memo_walk(ideal, random.Random(3))


@settings(max_examples=60, deadline=None)
@given(_memo_cases())
def test_cached_membership_answers_in_any_order(case):
    ideal, rng = case
    probes = _random_polys(rng, ideal.ring, 4)
    probes += [g * p for g in ideal.generators for p in probes[:2]]
    probes += [probes[-1] + p for p in probes[:2]]
    for _ in range(3):
        rng.shuffle(probes)
        for f in probes:
            assert ideal_member(f, ideal) == ideal_member(f, Ideal(ideal.ring, ideal.generators))


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


# audit first: generators that already form a reduced set are audited as
# the candidate basis, and only a failed audit runs the engine


def _refuse_buchberger(*args):
    raise AssertionError("the engine ran on an input that is its reduced basis")


def _counting_buchberger():
    """A patch of `_buchberger` that records its runs, and the runs."""
    buchberger, runs = groebner._buchberger, []
    return mock.patch.object(groebner, "_buchberger", lambda *a: runs.append(a) or buchberger(*a)), runs


def _forced_buchberger(ideal: Ideal) -> tuple:
    """The basis of a fresh copy of ideal computed with no audit-first path."""
    with mock.patch.object(groebner, "_is_reduced", lambda *a: False):
        return groebner_basis(Ideal(ideal.ring, ideal.generators))


@settings(max_examples=150, deadline=None)
@given(_memo_cases())
def test_scaled_shuffled_reduced_bases_take_the_audit_path(case):
    ideal, rng = case
    basis = groebner_basis(ideal)
    scaled = [Fraction(rng.choice((-7, -2, 1, 3)), rng.choice((1, 2, 5))) * b for b in basis]
    rng.shuffle(scaled)
    with mock.patch.object(groebner, "_buchberger", _refuse_buchberger):
        assert groebner_basis(Ideal(ideal.ring, scaled)) == basis


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


@st.composite
def _reduced_inputs(draw):
    """Random generators made a reduced set: each leading monomial neither
    divides nor equals another kept one, and every tail term divisible by a
    kept leading monomial is dropped.  About a third are no Groebner basis."""
    rng = draw(st.randoms(use_true_random=False))
    names = _names[: draw(st.integers(2, 3))]
    ring = RingCtx(names, draw(st.sampled_from((GREVLEX, LEX))))
    kept = []
    for p in _random_polys(rng, ring, draw(st.integers(2, 6))):
        lm = p.sorted_terms()[0][0]
        if any(lm) and not any(_divides(lm, q[0][0]) or _divides(q[0][0], lm) for q in kept):
            kept.append(p.sorted_terms())
    lms = [terms[0][0] for terms in kept]
    gens = [
        ring.monomial(*terms[0])
        + sum((ring.monomial(m, c) for m, c in terms[1:] if not any(_divides(l, m) for l in lms)), ring.zero())
        for terms in kept
    ]
    return Ideal(ring, gens)


def _sympy_basis(ideal: Ideal, basis: tuple):
    """Our basis and sympy's reduced basis, each as a set of monic sympy
    expressions."""
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(ideal.ring.vars)

    def expr(poly):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s ** e for s, e in zip(symbols, m)))
             for m, c in poly.sorted_terms()),
            sympy.Integer(0),
        )

    def monic(e):
        return sympy.expand(sympy.monic(e, *symbols) if e.free_symbols else sympy.Integer(1))

    order = "lex" if ideal.ring.order == LEX else "grevlex"
    theirs = sympy.groebner([expr(g) for g in ideal.generators], *symbols, order=order)
    return {monic(expr(b)) for b in basis}, {monic(e) for e in theirs.exprs}


@settings(max_examples=80, deadline=None)
@given(_reduced_inputs())
def test_reduced_inputs_fall_back_exactly_when_no_basis(ideal):
    assert groebner._is_reduced(
        [groebner._primitive(g.packed()) for g in ideal.generators], ideal.ring.packing.guard
    )
    patch, runs = _counting_buchberger()
    with patch:
        basis = groebner_basis(ideal)
    monic = sorted((g * (1 / Fraction(g.packed()[0][2])) for g in ideal.generators),
                   key=lambda g: g.packed()[0][0], reverse=True)
    # the input is a basis iff it comes back, made monic and sorted
    assert len(runs) == (list(basis) != monic)
    assert basis == _forced_buchberger(ideal)
    ours, theirs = _sympy_basis(ideal, basis)
    assert ours == theirs


def test_a_reduced_input_that_is_no_basis_runs_buchberger(xy):
    x, y = xy.gens()
    ideal = Ideal(xy, [x ** 2 - y, x * y - 1])
    patch, runs = _counting_buchberger()
    with patch:
        basis = groebner_basis(ideal)
    assert len(runs) == 1
    assert basis == _forced_buchberger(ideal) == (x ** 2 - y, x * y - 1, y ** 2 - x)


def test_a_basis_that_is_not_reduced_comes_back_reduced(xy):
    x, y = xy.gens()
    patch, runs = _counting_buchberger()
    with patch:
        assert groebner_basis(Ideal(xy, [x + y, y])) == (x, y)
    assert len(runs) == 1


def test_equal_leading_monomials_never_take_the_audit_path(xy):
    x, _ = xy.gens()
    patch, runs = _counting_buchberger()
    with patch:
        assert groebner_basis(Ideal(xy, [x, 2 * x])) == (x,)
    assert len(runs) == 1


def test_a_lone_constant_is_the_unit_ideal_with_no_engine_run(xy):
    with mock.patch.object(groebner, "_buchberger", _refuse_buchberger):
        assert groebner_basis(Ideal(xy, [xy.const(3)])) == (xy.one(),)


def test_monic_primitive_generators_are_the_basis_elements(xy):
    x, y = xy.gens()
    monic, half = x - 1, Fraction(1, 2) * y ** 2 - 1
    with mock.patch.object(groebner, "_buchberger", _refuse_buchberger):
        basis = groebner_basis(Ideal(xy, [monic, half]))
    assert basis == (y ** 2 - 2, x - 1)
    assert basis[1] is monic


# the signature loop against the sugar loop and sympy on graded orders


@st.composite
def _graded_ideals(draw):
    """Random generators of degree at most 3 in 2-4 variables under
    grevlex, or in one variable under lex or grevlex."""
    rng = draw(st.randoms(use_true_random=False))
    names = ("x", "y", "z", "w")[: draw(st.integers(1, 4))]
    order = draw(st.sampled_from((GREVLEX, LEX))) if len(names) == 1 else GREVLEX
    ring = RingCtx(names, order)
    return Ideal(ring, _random_polys(rng, ring, draw(st.integers(2, 4))))


_XY = RingCtx(("x", "y"))
_X, _Y = _XY.gens()


def _sugar_basis(ideal: Ideal) -> tuple:
    """The basis of a fresh copy of ideal, computed by the sugar loop."""
    def sugar(gens, pk):
        return groebner._sugar_loop([groebner._primitive(g) for g in gens], pk)

    with mock.patch.object(groebner, "_buchberger", sugar):
        return _forced_buchberger(ideal)


@settings(max_examples=150, deadline=None)
@given(_graded_ideals())
# reducing by a multiple of equal signature too loses a basis element here
@example(Ideal(_XY, [_X ** 2 * _Y, _X * _Y ** 2 - 3 * _X + 2 * _Y]))
def test_signature_loop_agrees_with_the_sugar_loop_and_sympy(ideal):
    assert ideal.ring.packing.graded
    basis = _forced_buchberger(ideal)
    assert basis == _sugar_basis(ideal)
    ours, theirs = _sympy_basis(ideal, basis)
    assert ours == theirs


@settings(max_examples=100, deadline=None)
@given(_graded_ideals(), st.randoms(use_true_random=False))
def test_signature_runs_ignore_the_generator_order(ideal, rng):
    gens = list(ideal.generators)
    rng.shuffle(gens)
    assert _signature_stats(ideal, gens) == _signature_stats(ideal)
