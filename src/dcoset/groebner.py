"""Buchberger's algorithm and the ideal operations built on it.

The pipeline is deliberately deterministic: pairs wait on a heap keyed once
by the order key of their lcm, so the pair of smallest lcm is taken first
with ties broken by index; every computed basis is interreduced to the
unique reduced monic basis and sorted by leading monomial; and after every
run the result is audited: each S-polynomial is checked to reduce to zero,
except for pairs with coprime leading monomials, which reduce to zero by
Buchberger's first criterion, so the audit certifies a Groebner basis all
the same.  Division takes the largest remaining term from a heap of
negated order keys (heap-driven division, after Monagan and Pearce).

Every comparison uses the order of the ring the polynomials live in; to
compute under another order, build the ideal over a ring carrying it.

Derived operations follow the classical elimination recipes: variable
elimination through a block order, saturation through a fresh inverse
variable, radical membership through the extra-variable trick of adjoining
1 - t*f and testing for the unit ideal.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, Sequence

from .polyring import (
    Polynomial,
    RingCtx,
    block_order,
    extend_ring,
    lift,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

__all__ = [
    "Ideal",
    "spolynomial",
    "normal_form",
    "groebner_basis",
    "ideal_member",
    "is_unit_ideal",
    "radical_member",
    "eliminate",
    "saturate",
    "equal_ideals",
    "ideal_sum",
    "ideal_product",
    "lift_ideal",
    "fresh_var",
]

_ONE = Fraction(1)


class Ideal:
    """A finitely generated ideal, with its reduced basis cached."""

    __slots__ = ("ring", "generators", "_gb")

    def __init__(self, ring: RingCtx, generators: Iterable[Polynomial] = ()):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("ideal generators must be polynomials")
            if g.ring.vars != ring.vars:
                raise ValueError(f"generator {g!r} is not in ring {ring!r}")
            if not g.is_zero():
                gens.append(lift(g, ring))
        self.ring = ring
        self.generators = tuple(gens)
        self._gb = {}

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"


def spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) = (L/lt f)·f - (L/lt g)·g with L = lcm of the leading monomials."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of the zero polynomial is undefined")
    lf = f.leading_monomial()
    lg = g.leading_monomial()
    lcm = mono_lcm(lf, lg)
    a = _mul_term(f, mono_div(lcm, lf), _ONE / f.terms[lf])
    b = _mul_term(g, mono_div(lcm, lg), _ONE / g.terms[lg])
    return a - b


def _mul_term(p: Polynomial, mono, coeff: Fraction) -> Polynomial:
    return Polynomial._new(
        p.ring, {mono_mul(m, mono): c * coeff for m, c in p.terms.items()}
    )


def _negated(key):
    # order keys are int tuples, nested to one fixed shape per order, so
    # negating every int reverses the comparison: a min-heap of negated
    # keys pops the largest monomial first
    return tuple(-k if k.__class__ is int else _negated(k) for k in key)


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Fully reduce f against basis: no remainder term is divisible by any
    leading monomial of the basis, which must live in f's ring.

    Terms are taken largest first from a heap; a term that cancels is left
    in the heap and skipped when popped.
    """
    basis = [b for b in basis]
    for b in basis:
        if b.is_zero():
            raise ValueError("reduction basis contains the zero polynomial")
        if b.ring is not f.ring and b.ring != f.ring:
            raise ValueError(f"basis element {b!r} is in {b.ring!r}, not in {f.ring!r}")
    if f.is_zero() or not basis:
        return f
    key = f.ring.order.key
    lms = [b.leading_monomial() for b in basis]
    lcs = [b.terms[lm] for b, lm in zip(basis, lms)]
    work = dict(f.terms)
    heap = [(_negated(key(m)), m) for m in work]
    heapq.heapify(heap)
    out: dict = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for i, lm in enumerate(lms):
            if mono_divides(lm, m):
                shift = mono_div(m, lm)
                factor = c / lcs[i]
                for bm, bc in basis[i].terms.items():
                    if bm == lm:
                        continue
                    mm = mono_mul(bm, shift)
                    old = work.get(mm)
                    if old is None:
                        work[mm] = -factor * bc
                        heapq.heappush(heap, (_negated(key(mm)), mm))
                    else:
                        v = old - factor * bc
                        if v:
                            work[mm] = v
                        else:
                            del work[mm]
                break
        else:
            out[m] = c
    return Polynomial._new(f.ring, out)


def _chain_skip(i, j, lcm_ij, lms, pending) -> bool:
    # Buchberger's second criterion: some k with lt(k) | lcm(i,j) whose
    # pairs with both i and j were already handled
    for k in range(len(lms)):
        if k == i or k == j:
            continue
        if not mono_divides(lms[k], lcm_ij):
            continue
        p1 = (i, k) if i < k else (k, i)
        p2 = (j, k) if j < k else (k, j)
        if p1 not in pending and p2 not in pending:
            return True
    return False


def _buchberger(gens: Sequence[Polynomial]):
    basis = [g.monic() for g in gens if not g.is_zero()]
    if not basis:
        return []
    lms = [g.leading_monomial() for g in basis]
    key = basis[0].ring.order.key
    # each pair is keyed once, as (key(lcm), i, j, lcm): the heap pops the
    # pair of smallest lcm, ties broken by index; `pending` mirrors the heap
    # for the chain criterion's membership test
    heap = []
    pending = set()

    def add_pairs(k):
        for m in range(k):
            lcm = mono_lcm(lms[m], lms[k])
            heapq.heappush(heap, (key(lcm), m, k, lcm))
            pending.add((m, k))

    for k in range(len(basis)):
        add_pairs(k)
    while heap:
        _, i, j, lcm_ij = heapq.heappop(heap)
        pending.discard((i, j))
        if lcm_ij == mono_mul(lms[i], lms[j]):
            continue  # coprime leading terms: S-poly reduces to zero
        if _chain_skip(i, j, lcm_ij, lms, pending):
            continue
        h = normal_form(spolynomial(basis[i], basis[j]), basis)
        if h.is_zero():
            continue
        h = h.monic()
        basis.append(h)
        lms.append(h.leading_monomial())
        add_pairs(len(basis) - 1)
    return basis


def _reduced_basis(basis):
    if not basis:
        return ()
    key = basis[0].ring.order.key
    # minimal: drop any element whose leading monomial is divisible by
    # another kept one; ascending scan keeps the smallest representatives
    ordered = sorted(range(len(basis)), key=lambda i: (key(basis[i].leading_monomial()), i))
    kept = []
    kept_lms = []
    for i in ordered:
        lm = basis[i].leading_monomial()
        if any(mono_divides(k, lm) for k in kept_lms):
            continue
        kept.append(basis[i])
        kept_lms.append(lm)
    # interreduce tails in one pass: leading monomials are fixed from here
    # on, so a tail reduced against them stays reduced
    for i in range(len(kept)):
        others = kept[:i] + kept[i + 1 :]
        if others:
            kept[i] = normal_form(kept[i], others).monic()
    kept.sort(key=lambda g: key(g.leading_monomial()), reverse=True)
    return tuple(kept)


def _assert_fixed_point(basis):
    lms = [b.leading_monomial() for b in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            # Buchberger's first criterion: an S-polynomial of a pair with
            # coprime leading monomials always reduces to zero, so basis is
            # a Groebner basis iff every other pair's S-polynomial does
            if mono_lcm(lms[i], lms[j]) == mono_mul(lms[i], lms[j]):
                continue
            s = spolynomial(basis[i], basis[j])
            if not normal_form(s, basis).is_zero():
                raise AssertionError(
                    f"S-polynomial of basis elements {i} and {j} does not reduce to zero"
                )


def groebner_basis(ideal: Ideal):
    """Reduced monic Groebner basis in the ring's order, computed once.

    The zero ideal yields the empty tuple; the unit ideal yields (1,).
    Permuting the generators gives the identical tuple.
    """
    tag = ideal.ring.order.tag()
    cached = ideal._gb.get(tag)
    if cached is not None:
        return cached
    basis = _reduced_basis(_buchberger(ideal.generators))
    _assert_fixed_point(basis)
    ideal._gb[tag] = basis
    return basis


def ideal_member(f: Polynomial, ideal: Ideal) -> bool:
    if f.ring.vars != ideal.ring.vars:
        raise ValueError("polynomial and ideal live in different rings")
    return normal_form(lift(f, ideal.ring), groebner_basis(ideal)).is_zero()


def is_unit_ideal(ideal: Ideal) -> bool:
    basis = groebner_basis(ideal)
    return len(basis) == 1 and basis[0].is_constant()


def fresh_var(ring: RingCtx, base: str = "t") -> str:
    """A variable name not already used by the ring."""
    if not ring.has_var(base):
        return base
    n = 1
    while ring.has_var(f"{base}_{n}"):
        n += 1
    return f"{base}_{n}"


def _inverting(ideal: Ideal, f: Polynomial) -> Ideal:
    """ideal + (1 - t*f) in the ring extended by a fresh last variable t."""
    t = fresh_var(ideal.ring)
    big = extend_ring(ideal.ring, (t,))
    gens = [lift(g, big) for g in ideal.generators]
    gens.append(big.one() - big.gen(t) * lift(f, big))
    return Ideal(big, gens)


def radical_member(f: Polynomial, ideal: Ideal) -> bool:
    """f lies in the radical iff 1 is in ideal + (1 - t*f) for fresh t."""
    if f.ring.vars != ideal.ring.vars:
        raise ValueError("polynomial and ideal live in different rings")
    if f.is_zero():
        return True
    return is_unit_ideal(_inverting(ideal, f))


def eliminate(ideal: Ideal, drop: Iterable[str], into: RingCtx | None = None) -> Ideal:
    """Intersection with the subring omitting `drop`, via a block order."""
    drop = set(drop)
    unknown = drop - set(ideal.ring.vars)
    if unknown:
        raise ValueError(f"variables not in ring: {sorted(unknown)}")
    kept_names = tuple(v for v in ideal.ring.vars if v not in drop)
    if not kept_names:
        raise ValueError("cannot eliminate every variable of the ring")
    if into is not None and into.vars != kept_names:
        raise ValueError(
            f"target ring variables {into.vars} do not match the kept block {kept_names}"
        )
    small = into or RingCtx(kept_names)
    if not drop:
        return Ideal(small, [lift(g, small) for g in ideal.generators])
    order = block_order(ideal.ring, drop)
    basis = groebner_basis(Ideal(RingCtx(ideal.ring.vars, order), ideal.generators))
    drop_idx = order.elim_idx
    kept = []
    for g in basis:
        if all(all(m[i] == 0 for i in drop_idx) for m in g.terms):
            kept.append(lift(g, small))
    return Ideal(small, kept)


def saturate(ideal: Ideal, g: Polynomial) -> Ideal:
    """ideal : g^inf, computed by inverting g with a fresh variable."""
    if g.ring.vars != ideal.ring.vars:
        raise ValueError("polynomial and ideal live in different rings")
    if g.is_zero():
        raise ValueError("cannot saturate by the zero polynomial")
    if g.is_constant():
        return Ideal(ideal.ring, ideal.generators)
    inverted = _inverting(ideal, g)
    return eliminate(inverted, {inverted.ring.vars[-1]}, into=ideal.ring)


def equal_ideals(a: Ideal, b: Ideal) -> bool:
    if a.ring.vars != b.ring.vars:
        raise ValueError("ideals live in different rings")
    return all(ideal_member(g, b) for g in a.generators) and all(
        ideal_member(g, a) for g in b.generators
    )


def ideal_sum(*ideals: Ideal) -> Ideal:
    if not ideals:
        raise ValueError("ideal_sum needs at least one ideal")
    ring = ideals[0].ring
    gens = []
    for i in ideals:
        if i.ring.vars != ring.vars:
            raise ValueError("ideals live in different rings")
        gens.extend(i.generators)
    return Ideal(ring, gens)


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Pairwise generator products; the zero ideal absorbs."""
    if a.ring.vars != b.ring.vars:
        raise ValueError("ideals live in different rings")
    return Ideal(a.ring, [g * h for g in a.generators for h in b.generators])


def lift_ideal(ideal: Ideal, big: RingCtx) -> Ideal:
    return Ideal(big, [lift(g, big) for g in ideal.generators])
