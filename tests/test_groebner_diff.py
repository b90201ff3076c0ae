"""Differential test: the Groebner engine against a frozen copy of its
earlier, simpler form.

The reference engine below works on exponent tuples with the tuple sort
keys the orders had before they were packed into ints.  It selects pairs by
a full scan of the pending set, reduces by taking the maximum of the whole
remainder at every step, and audits every S-pair with no criterion.  The
packed, heap-driven engine must give the same reduced bases and the same
remainders, including against bases that are not Groebner bases, where the
remainder depends on which term and which divisor are taken at each step.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcoset.groebner import Ideal, groebner_basis, normal_form
from dcoset.polyring import (
    GREVLEX,
    LEX,
    EXPONENT_LIMIT,
    Polynomial,
    RingCtx,
    block_order,
)
from dcoset.parsing import MAX_EXPONENT


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    """Exponent-wise difference a/b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _old_key(order):
    """The tuple sort key each order had before order keys became ints."""
    if order is LEX:
        return lambda exps: exps
    if order is GREVLEX:
        return _grevlex_key
    return lambda exps: tuple(
        _grevlex_key(tuple(exps[i] for i in block)) for block in order.blocks(len(exps))
    )


def _old_lm(p, key):
    return max(p.terms, key=key)


def _old_monic(p, key):
    lc = p.terms[_old_lm(p, key)]
    return Polynomial._new(p.ring, {m: Fraction(c, lc) for m, c in p.terms.items()})


def _old_spolynomial(f, g, key):
    lf, lg = _old_lm(f, key), _old_lm(g, key)
    lcm = mono_lcm(lf, lg)
    a = {mono_mul(m, mono_div(lcm, lf)): Fraction(c, f.terms[lf]) for m, c in f.terms.items()}
    b = {mono_mul(m, mono_div(lcm, lg)): Fraction(c, g.terms[lg]) for m, c in g.terms.items()}
    return Polynomial._new(f.ring, a) - Polynomial._new(g.ring, b)


def _old_normal_form(f, basis, order):
    basis = list(basis)
    if f.is_zero() or not basis:
        return f
    key = _old_key(order)
    lms = [_old_lm(b, key) for b in basis]
    lcs = [b.terms[lm] for b, lm in zip(basis, lms)]
    work = dict(f.terms)
    out = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for i, lm in enumerate(lms):
            if mono_divides(lm, m):
                shift = mono_div(m, lm)
                factor = Fraction(c, lcs[i])
                for bm, bc in basis[i].terms.items():
                    if bm == lm:
                        continue
                    mm = mono_mul(bm, shift)
                    v = work.get(mm, 0) - factor * bc
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            out[m] = c
    return Polynomial._new(f.ring, out)


def _old_chain_skip(i, j, lcm_ij, lms, pending):
    for k in range(len(lms)):
        if k == i or k == j or not mono_divides(lms[k], lcm_ij):
            continue
        p1 = (i, k) if i < k else (k, i)
        p2 = (j, k) if j < k else (k, j)
        if p1 not in pending and p2 not in pending:
            return True
    return False


def _old_buchberger(gens, order):
    key = _old_key(order)
    basis = [_old_monic(g, key) for g in gens if not g.is_zero()]
    if not basis:
        return []
    lms = [_old_lm(g, key) for g in basis]
    pending = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pending:
        i, j = min(pending, key=lambda p: (key(mono_lcm(lms[p[0]], lms[p[1]])), p))
        pending.discard((i, j))
        lcm_ij = mono_lcm(lms[i], lms[j])
        if lcm_ij == mono_mul(lms[i], lms[j]):
            continue
        if _old_chain_skip(i, j, lcm_ij, lms, pending):
            continue
        h = _old_normal_form(_old_spolynomial(basis[i], basis[j], key), basis, order)
        if h.is_zero():
            continue
        h = _old_monic(h, key)
        k = len(basis)
        basis.append(h)
        lms.append(_old_lm(h, key))
        for m in range(k):
            pending.add((m, k))
    return basis


def _old_reduced_basis(basis, order):
    if not basis:
        return ()
    key = _old_key(order)
    ordered = sorted(range(len(basis)), key=lambda i: (key(_old_lm(basis[i], key)), i))
    kept = []
    kept_lms = []
    for i in ordered:
        lm = _old_lm(basis[i], key)
        if any(mono_divides(k, lm) for k in kept_lms):
            continue
        kept.append(basis[i])
        kept_lms.append(lm)
    for i in range(len(kept)):
        others = kept[:i] + kept[i + 1 :]
        if others:
            kept[i] = _old_monic(_old_normal_form(kept[i], others, order), key)
    kept.sort(key=lambda g: key(_old_lm(g, key)), reverse=True)
    return tuple(kept)


def _old_groebner_basis(gens, order):
    key = _old_key(order)
    basis = _old_reduced_basis(_old_buchberger(gens, order), order)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = _old_spolynomial(basis[i], basis[j], key)
            assert _old_normal_form(s, basis, order).is_zero()
    return basis


_VARS = ("x", "y", "z")


def _ring(rng):
    nvars = rng.randint(1, 3)
    ring = RingCtx(_VARS[:nvars])
    kind = rng.choice(("lex", "grevlex", "block"))
    if kind == "lex":
        return RingCtx(ring.vars, LEX)
    if kind == "grevlex":
        return ring
    return RingCtx(ring.vars, block_order(ring, _VARS[: rng.randint(1, nvars)]))


def _poly(rng, ring, max_terms):
    p = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, 2) for _ in ring.vars)
        p = p + ring.monomial(exps, Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))
    return p


# a hypothesis-seeded Random draws each case: one draw per example keeps
# generation cheap next to the two Buchberger runs it feeds
@st.composite
def _ideals(draw):
    rng = draw(st.randoms(use_true_random=False))
    ring = _ring(rng)
    gens = [_poly(rng, ring, 3) for _ in range(rng.randint(1, 3))]
    return ring, gens


@st.composite
def _reductions(draw):
    rng = draw(st.randoms(use_true_random=False))
    ring = _ring(rng)
    f = _poly(rng, ring, 6)
    # random generators, almost never a Groebner basis
    basis = [p for p in (_poly(rng, ring, 3) for _ in range(rng.randint(1, 3))) if not p.is_zero()]
    return f, basis or [ring.one()]


@settings(max_examples=500, deadline=None)
@given(_ideals())
def test_reduced_bases_match_old_engine(case):
    ring, gens = case
    new = groebner_basis(Ideal(ring, gens))
    old = _old_groebner_basis(gens, ring.order)
    assert [g.terms for g in new] == [g.terms for g in old]


@settings(max_examples=500, deadline=None)
@given(_reductions())
def test_remainders_match_old_normal_form(case):
    f, basis = case
    assert normal_form(f, basis).terms == _old_normal_form(f, basis, f.ring.order).terms


@settings(max_examples=200, deadline=None)
@given(_ideals())
def test_basis_lies_in_the_ideal(case):
    # G ⊆ I: each element of the engine's basis reduces to zero modulo the
    # reference engine's basis of the input ideal
    ring, gens = case
    old = _old_groebner_basis(gens, ring.order)
    for g in groebner_basis(Ideal(ring, gens)):
        assert _old_normal_form(g, old, ring.order).is_zero()


@st.composite
def _orders_and_vectors(draw):
    arity = draw(st.integers(1, 6))
    ring = RingCtx([f"x{i}" for i in range(arity)])
    kind = draw(st.sampled_from(("lex", "grevlex", "block")))
    if kind == "lex":
        order = LEX
    elif kind == "grevlex":
        order = GREVLEX
    else:
        # any subset, contiguous or not, may be eliminated
        eliminated = draw(st.sets(st.sampled_from(ring.vars)))
        order = block_order(ring, eliminated)
    vector = st.tuples(*[st.integers(0, MAX_EXPONENT)] * arity)
    return order, draw(st.lists(vector, min_size=2, max_size=12, unique=True))


@settings(max_examples=300, deadline=None)
@given(_orders_and_vectors())
def test_packed_operations_agree_with_tuples(case):
    order, vectors = case
    pk = order.packing(len(vectors[0]))
    assert sorted(vectors, key=lambda v: pk.key(pk.pack(v))) == sorted(vectors, key=_old_key(order))
    for a, b in zip(vectors, vectors[1:] + vectors[:1]):
        pa, pb = pk.pack(a), pk.pack(b)
        assert pk.unpack(pa) == a
        assert pk.unpack(pa + pb) == mono_mul(a, b)
        assert pk.key(pa + pb) == pk.key(pa) + pk.key(pb)
        assert (not (pb - pa) & pk.guard) == mono_divides(a, b)
        assert pk.unpack(pk.lcm(pa, pb)) == mono_lcm(a, b)
    # at the limit: an exponent of EXPONENT_LIMIT - 1 packs and compares,
    # EXPONENT_LIMIT is refused
    top = (EXPONENT_LIMIT - 1,) * len(vectors[0])
    ptop, pa = pk.pack(top), pk.pack(vectors[0])
    assert pk.unpack(ptop) == top
    assert not (ptop - pa) & pk.guard and (pa - ptop) & pk.guard
    assert pk.lcm(ptop, pa) == pk.lcm(pa, ptop) == ptop
    assert pk.key(ptop) > pk.key(pa)
    with pytest.raises(ValueError, match="exponent"):
        pk.pack((EXPONENT_LIMIT,) + top[1:])


# rational and bignum coefficients: denominators up to 9, numerators up to
# 2^70, so the engine's entry clears denominators and divides out contents,
# and its pseudo-division scales by leading coefficients other than 1


def _rational_poly(rng, ring, max_terms):
    p = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, 2) for _ in ring.vars)
        num = rng.choice((-1, 1)) * rng.randint(1, 2**70)
        p = p + ring.monomial(exps, Fraction(num, rng.randint(1, 9)))
    return p


@st.composite
def _rational_ideals(draw):
    rng = draw(st.randoms(use_true_random=False))
    ring = _ring(rng)
    gens = [_rational_poly(rng, ring, 3) for _ in range(rng.randint(1, 3))]
    return ring, gens


@st.composite
def _rational_reductions(draw):
    rng = draw(st.randoms(use_true_random=False))
    ring = _ring(rng)
    f = _rational_poly(rng, ring, 6)
    # non-monic random generators, almost never a Groebner basis
    gens = (_rational_poly(rng, ring, 3) for _ in range(rng.randint(1, 3)))
    basis = [p for p in gens if not p.is_zero()]
    return f, basis or [ring.monomial((0,) * ring.arity, Fraction(7, 3))]


@settings(max_examples=200, deadline=None)
@given(_rational_ideals())
def test_rational_reduced_bases_match_old_engine(case):
    ring, gens = case
    new = groebner_basis(Ideal(ring, gens))
    old = _old_groebner_basis(gens, ring.order)
    assert [g.terms for g in new] == [g.terms for g in old]


@settings(max_examples=300, deadline=None)
@given(_rational_reductions())
def test_rational_remainders_match_old_normal_form(case):
    f, basis = case
    assert normal_form(f, basis).terms == _old_normal_form(f, basis, f.ring.order).terms
