"""Buchberger's algorithm and the ideal operations built on it.

The pipeline is deliberately deterministic.  Gebauer and Möller's update
step (J. Symb. Comp. 6, 1988) keeps only the needed pairs, on a heap that
pops them by sugar (Giovini, Mora, Niesi, Robbiano and Traverso, ISSAC
1991), ties broken by the order key of their lcm and then by index.  On a
graded order the lcm's key already compares degrees first, so pairs pop
in the lcm order; on lex and elimination orders sugar holds back
high-degree pairs.  Every basis is interreduced to the unique reduced
monic basis, sorted by leading monomial, then audited: the same update
step, run on the basis's leading monomials alone, picks pairs whose
syzygies (with those of the coprime pairs) generate all leading-term
syzygies, and each of their S-polynomials must reduce to zero, which
certifies a Groebner basis; and each input generator must reduce to zero,
so the basis generates at least the input ideal.  The zero ideal's basis
is empty, with no engine run.

The engine runs on the ring's packed monomials (see `polyring.Packing`)
and on int coefficients.  A monomial product is an int addition, the key
of a product the sum of the keys, divisibility one mask test.  Every
polynomial the engine keeps is primitive, and division is fraction-free
pseudo-division (as in Gebauer and Möller, and Traverso): it scales the
remainder by a leading coefficient's cofactor instead of dividing by it,
taking the largest remaining term from a heap of negated int order keys
(after Monagan and Pearce).  `_reduce` is the engine's only reducer: the
S-polynomial of f and g is its first step on f's lcm-multiple, reducing
the leading term by g.  A term is reduced by the first record whose
leading monomial divides it, and a memo per divisor list keeps that
search's answer for each monomial, so one search serves every reduction
of a Buchberger run, of the interreduction, or of the audit and the
`ideal_member` calls after it.  Inputs are made primitive on entry; a basis
leaves monic over Q at the exit of `groebner_basis`, and `normal_form`
divides out the scale it applied, both keeping integral values as ints.
An exponent reaching `EXPONENT_LIMIT` raises `ValueError`.

Every comparison uses the order of the ring the polynomials live in; to
compute under another order, build the ideal over a ring carrying it.

Derived operations follow the classical elimination recipes: variable
elimination through a block order, saturation through a fresh inverse
variable.  Radical membership first tests f for membership in the ideal
itself, against its cached audited basis, and only when that fails uses
the extra-variable trick of adjoining 1 - t*f to the raw generators and
testing for the unit ideal.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Iterable, Sequence

from .polyring import (
    EXPONENT_LIMIT,
    Polynomial,
    RingCtx,
    as_rational,
    block_order,
    extend_ring,
    lift,
)

__all__ = [
    "Ideal",
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

class Ideal:
    """A finitely generated ideal; its one reduced basis is cached with its divisors."""

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


# The engine works on leading-first lists of (key, exp, coeff) triples:
# exp is the packed exponent vector, key its order key and coeff an int; a
# list is primitive when its coeffs have gcd 1 and the first is positive.


def _primitive(terms: list) -> list:
    """The primitive list that is a rational multiple of a nonzero
    leading-first list with rational or int coefficients."""
    if len(terms) == 1:
        return [(terms[0][0], terms[0][1], 1)]
    den = lcm(*[c.denominator for _, _, c in terms])
    ints = [c.numerator * (den // c.denominator) for _, _, c in terms]
    g = gcd(*ints) if ints[0] > 0 else -gcd(*ints)
    return [(k, e, n // g) for (k, e, _), n in zip(terms, ints)]


# Every exponent vector the engine forms is a sum of two vectors below
# EXPONENT_LIMIT, which fits the packing's fields, and is checked against
# the limit before it is used: a computation that would reach it raises
# instead of wrapping, so exactness never depends on the field width.


def _divisor(terms: list) -> tuple:
    """(lm, key(lm), lc, tail) for reducing by a primitive list."""
    key, lm, lc = terms[0]
    return lm, key, lc, terms[1:]


def _overflow():
    return ValueError(
        f"an exponent reaches the limit of 2^{EXPONENT_LIMIT.bit_length() - 1}"
    )


def _multiple(record: tuple, top: int, top_key: int, over: int) -> list:
    """A divisor record's full list times top/lm, leading term first."""
    lm, key, lc, tail = record
    shift = top - lm
    dk = top_key - key
    out = [(top_key, top, lc)]
    for k, e, c in tail:
        e += shift
        if e & over:
            raise _overflow()
        out.append((k + dk, e, c))
    return out


def _reduce(
    terms: list, divisors: Sequence[tuple], pk, found: dict, first: tuple | None = None
) -> tuple:
    """(r, λ) with r the remainder of λ·terms modulo divisor records, by
    pseudo-division: before a divisor with leading coefficient a reduces a
    term c·m, the working terms and the remainder are scaled by a/gcd(a, c),
    and λ is the product of those scales.  A term is reduced by the first
    record whose leading monomial divides it, the leading term by `first`
    if given: by g on f's lcm-multiple, that leaves their S-polynomial.  A
    heap of negated keys yields the largest remaining term first; a term
    that cancels is left in the heap and skipped when popped.

    `found` memoizes the divisor search for the packed monomials met, and
    serves every reduction against one list whose leading monomials only
    grow by appending (a record may be replaced by one with the same
    leading monomial).  An entry i >= 0 says divisors[i] is m's first
    divisor, which it stays; an entry ~n says none of the first n records
    divides m, so a later search scans only the records appended since.
    """
    if not terms or not divisors:
        return terms, 1
    guard, over = pk.guard, pk.over
    work = {}
    exps = {}
    for k, e, c in terms:
        work[-k] = c
        exps[-k] = e
    heap = list(work)  # leading-first terms give ascending negated keys: a heap
    out = []
    lam = 1
    while heap:
        nk = heappop(heap)
        c = work.pop(nk, None)
        if c is None:
            continue
        m = exps[nk]
        if first is None:
            i = found.get(m, -1)
            if i < 0:
                for i in range(~i, len(divisors)):
                    if not (m - divisors[i][0]) & guard:
                        break  # its lm divides m
                else:
                    found[m] = ~len(divisors)
                    out.append((-nk, m, c))
                    continue
                found[m] = i
            lm, lk, a, tail = divisors[i]
        else:
            (lm, lk, a, tail), first = first, None
        shift = m - lm
        nshift = nk + lk  # the shift's negated key
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
                    raise _overflow()
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


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Fully reduce f against basis: no remainder term is divisible by any
    leading monomial of the basis, which must live in f's ring."""
    basis = [b for b in basis]
    for b in basis:
        if b.is_zero():
            raise ValueError("reduction basis contains the zero polynomial")
        if b.ring is not f.ring and b.ring != f.ring:
            raise ValueError(f"basis element {b!r} is in {b.ring!r}, not in {f.ring!r}")
    if f.is_zero() or not basis:
        return f
    divisors = [_divisor(_primitive(b.packed())) for b in basis]
    terms = _primitive(f.packed())
    r, lam = _reduce(terms, divisors, f.ring.packing, {})
    scale = as_rational(Fraction(f.packed()[0][2], terms[0][2] * lam))  # content(f)/λ
    return Polynomial.from_packed(f.ring, [(k, e, as_rational(scale * c)) for k, e, c in r])


def _update(pairs: dict, live: list, lms: list, h: int, pk) -> list:
    """Gebauer and Möller's update step for a new element h.  `pairs` maps
    each waiting pair (i, j), i < j, to its heap entry (key(lcm), i, j, lcm);
    `live` lists the elements that still take new pairs.  Criterion B drops
    the waiting pairs that h's pairs replace; of h's pairs with `live`, M
    drops those whose lcm another's divides properly, F keeps one per lcm,
    and no coprime pair is kept.  Then `live` loses the elements whose
    leading monomial lms[h] divides, and gains h.  Returns the new entries."""
    guard, m, lcm = pk.guard, lms[h], pk.lcm
    # the tests for empty state pay on the small bases most calls see
    if pairs:
        for _, i, j, top in list(pairs.values()):
            if not (top - m) & guard and top != lcm(lms[i], m) and top != lcm(lms[j], m):
                del pairs[i, j]
    # ascending packed lcms meet each proper divisor first, and coprime pairs
    # first among equals; a pair goes when a met pair's lcm divides its own
    new = []
    if live:
        met = []
        for top, shared, i in sorted([(t := lcm(lms[i], m), t != lms[i] + m, i) for i in live]):
            for t in met:
                if not (top - t) & guard:
                    break
            else:
                met.append(top)
                if shared:
                    pairs[i, h] = entry = (pk.key(top), i, h, top)
                    new.append(entry)
        live[:] = [i for i in live if (lms[i] - m) & guard]
    live.append(h)
    return new


def _buchberger(gens: Sequence[list], pk) -> list:
    basis = [_primitive(g) for g in gens if g]
    divisors = [_divisor(g) for g in basis]
    lms = [d[0] for d in divisors]
    # The heap pops kept pairs by sugar, then lcm, then index, skipping
    # pruned ones.  An input's sugar is its largest term degree, a pair's
    # the degree of its lcm plus the larger ecart (sugar less leading
    # degree) of its two elements, and a new element takes its pair's.  On
    # a graded order the lcm's key compares degrees first and ecarts stay
    # 0, so sugar is left at 0 and pairs pop in the order of their lcms.
    graded, deg = pk.graded, pk.degree
    ecarts = [] if graded else [max(deg(e) for _, e, _ in g) - deg(g[0][1]) for g in basis]
    pairs, live, heap, found = {}, [], [], {}

    def add(h):
        for key, i, j, top in _update(pairs, live, lms, h, pk):
            sugar = 0 if graded else deg(top) + max(ecarts[i], ecarts[j])
            heappush(heap, (sugar, key, i, j, top))

    for h in range(len(basis)):
        add(h)
    while heap:
        sugar, lcm_key, i, j, lcm_ij = heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        h = _multiple(divisors[i], lcm_ij, lcm_key, pk.over)
        h = _reduce(h, divisors, pk, found, divisors[j])[0]
        if not h:
            continue
        h = _primitive(h)
        basis.append(h)
        divisors.append(_divisor(h))
        lms.append(h[0][1])
        if not graded:
            ecarts.append(sugar - deg(lms[-1]))
        add(len(basis) - 1)
    return basis


def _reduced_basis(basis: list, pk) -> list:
    guard = pk.guard
    # minimal: drop any element whose leading monomial is divisible by
    # another kept one; ascending scan keeps the smallest representatives
    ordered = sorted(range(len(basis)), key=lambda i: (basis[i][0][0], i))
    kept = []
    kept_lms = []
    for i in ordered:
        lm = basis[i][0][1]
        if any(not (lm - k) & guard for k in kept_lms):
            continue
        kept.append(basis[i])
        kept_lms.append(lm)
    # interreduce tails in one pass: leading monomials are fixed from here
    # on, so a tail reduced against them stays reduced; a monomial never
    # divides a smaller one, so no tail term meets its own element, and a
    # lone element is reduced already
    if len(kept) > 1:
        divisors = [_divisor(g) for g in kept]
        found = {}
        for i, ((key, lm, lc), *tail) in enumerate(kept):
            r, lam = _reduce(tail, divisors, pk, found)
            kept[i] = _primitive([(key, lm, lc * lam), *r])
            divisors[i] = _divisor(kept[i])
    kept.sort(reverse=True)  # by leading key, which is distinct
    return kept


def _assert_fixed_point(
    basis: Sequence[Polynomial], generators: Sequence[Polynomial] = ()
) -> tuple:
    """Certify that basis is a Groebner basis of an ideal containing the
    generators, and return its int divisor records, which come from basis
    itself, never from the engine, with their `_reduce` memo."""
    polys = (*basis, *generators)
    if not polys:
        return [], {}
    pk = polys[0].ring.packing
    divisors = [_divisor(_primitive(b.packed())) for b in basis]
    lms = [d[0] for d in divisors]
    # Gebauer and Möller's pairs for these leading monomials alone: with the
    # coprime pairs, whose S-polynomials always reduce to zero, their
    # syzygies generate every leading-term syzygy (Caboara, Kreuzer and
    # Robbiano), so basis is a Groebner basis iff each of theirs reduces
    pairs, live = {}, []
    for h in range(len(lms)):
        _update(pairs, live, lms, h, pk)
    found = {}
    for key, i, j, top in sorted(pairs.values()):
        if _reduce(_multiple(divisors[i], top, key, pk.over), divisors, pk, found, divisors[j])[0]:
            raise AssertionError(
                f"S-polynomial of basis elements {i} and {j} does not reduce to zero"
            )
    # modulo a Groebner basis, a zero remainder proves membership: the
    # basis generates the input ideal or a larger one
    for n, g in enumerate(generators):
        if _reduce(_primitive(g.packed()), divisors, pk, found)[0]:
            raise AssertionError(f"generator {n} does not reduce to zero modulo the basis")
    return divisors, found


def groebner_basis(ideal: Ideal):
    """Reduced monic Groebner basis in the ring's order, computed once.

    The zero ideal yields the empty tuple; the unit ideal yields (1,).
    Permuting the generators gives the identical tuple.  An exponent that
    reaches the packing limit raises ValueError instead of wrapping.
    """
    tag = ideal.ring.order.tag()
    cached = ideal._gb.get(tag)
    if cached is not None:
        return cached[0]
    if ideal.is_zero_ideal():  # no engine run, no interreduction, no audit
        ideal._gb[tag] = ((), [], {})
        return ()
    ring = ideal.ring
    gens = [g.packed() for g in ideal.generators]
    reduced = _reduced_basis(_buchberger(gens, ring.packing), ring.packing)
    monic = (b if b[0][2] == 1 else [(k, e, as_rational(Fraction(c, b[0][2]))) for k, e, c in b]
             for b in reduced)
    basis = tuple(Polynomial.from_packed(ring, b) for b in monic)
    # the audit's divisor records and their memo go with the basis, for ideal_member
    ideal._gb[tag] = (basis, *_assert_fixed_point(basis, ideal.generators))
    return basis


def ideal_member(f: Polynomial, ideal: Ideal) -> bool:
    if f.ring.vars != ideal.ring.vars:
        raise ValueError("polynomial and ideal live in different rings")
    if f.is_zero():
        return True
    groebner_basis(ideal)
    f = lift(f, ideal.ring)
    _, divisors, found = ideal._gb[ideal.ring.order.tag()]
    return not _reduce(_primitive(f.packed()), divisors, ideal.ring.packing, found)[0]


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
    """f lies in the radical iff 1 is in ideal + (1 - t*f) for fresh t.

    f in the ideal settles it first, against the ideal's cached basis; only
    the other answers run the extended ring, built from the raw generators.
    """
    return ideal_member(f, ideal) or is_unit_ideal(_inverting(ideal, f))


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
    return Ideal(small, [lift(g, small) for g in basis if drop.isdisjoint(g.variables_used())])


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
    # a lone nonzero summand in the result's ring is kept, with its cached basis
    nonzero = [i for i in ideals if not i.is_zero_ideal()]
    if len(nonzero) == 1 and nonzero[0].ring == ring:
        return nonzero[0]
    return Ideal(ring, gens)


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Pairwise generator products; the zero ideal absorbs."""
    if a.ring.vars != b.ring.vars:
        raise ValueError("ideals live in different rings")
    return Ideal(a.ring, [g * h for g in a.generators for h in b.generators])


def lift_ideal(ideal: Ideal, big: RingCtx) -> Ideal:
    return Ideal(big, [lift(g, big) for g in ideal.generators])
