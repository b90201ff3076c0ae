"""Constructible subsets of affine space over an algebraically closed field.

A set is stored as a finite union of locally closed pieces V(I) \\ V(J).
All predicates are semantic: emptiness goes through radical membership
(a piece is empty iff every generator of J vanishes on V(I)), and a
generator that lies in I settles its test against I's one cached basis
before any extended-ring run; equality and containment are
mutual-difference checks, and closure saturates the carrier ideal by each
excluded generator.  Nothing ever depends on which particular
piece decomposition represents a set, so pieces that are empty over the
algebraic closure are kept and every predicate skips them.
"""

from __future__ import annotations

from typing import Iterable

from .polyring import RingCtx, as_point, evaluate, lift
from .groebner import (
    Ideal,
    ideal_product,
    ideal_sum,
    is_unit_ideal,
    radical_member,
    saturate,
)

__all__ = [
    "LocallyClosedPiece",
    "ConstructibleSet",
    "whole_space",
    "vanishing",
    "locally_closed",
    "union",
    "intersection",
    "difference",
    "complement",
    "closure",
    "is_empty",
    "contains_point",
    "contains",
    "same_set",
    "is_open_in",
]


class LocallyClosedPiece:
    """V(carrier) minus V(excluded); excluded = None means nothing removed."""

    __slots__ = ("carrier", "excluded", "_empty")

    def __init__(self, carrier: Ideal, excluded: Ideal | None = None):
        if excluded is not None and excluded.ring.vars != carrier.ring.vars:
            raise ValueError("carrier and excluded ideals live in different rings")
        self.carrier = carrier
        self.excluded = excluded
        self._empty = None

    @property
    def ring(self) -> RingCtx:
        return self.carrier.ring

    def is_empty(self) -> bool:
        """Empty over an algebraically closed field.

        V(I) \\ V(J) is empty iff every generator of J lies in the radical
        of I, i.e. V(I) is contained in V(J).  A generator in I itself
        passes by reduction against I's cached basis, computed once for
        all of them; only the others run 1 - t*g in an extended ring.
        V(I) \\ V(0) is empty, with no generator to test.  With no excluded
        locus the piece is empty iff I is the unit ideal.
        """
        if self._empty is None:
            if self.excluded is None:
                self._empty = is_unit_ideal(self.carrier)
            else:
                self._empty = all(
                    radical_member(g, self.carrier) for g in self.excluded.generators
                )
        return self._empty

    def contains_point(self, point) -> bool:
        pt = as_point(self.ring, point)
        if any(evaluate(g, pt) != 0 for g in self.carrier.generators):
            return False
        if self.excluded is None:
            return True
        return any(evaluate(g, pt) != 0 for g in self.excluded.generators)

    def __repr__(self):
        base = ", ".join(str(g) for g in self.carrier.generators) or "0"
        if self.excluded is None:
            return f"V({base})"
        cut = ", ".join(str(g) for g in self.excluded.generators) or "0"
        return f"V({base}) \\ V({cut})"


class ConstructibleSet:
    """Finite union of locally closed pieces in a fixed ambient ring."""

    __slots__ = ("ring", "pieces")

    def __init__(self, ring: RingCtx, pieces: Iterable[LocallyClosedPiece] = ()):
        ps = []
        for p in pieces:
            if p.ring.vars != ring.vars:
                raise ValueError("piece lives in a different ring than the ambient space")
            ps.append(p)
        self.ring = ring
        self.pieces = tuple(ps)

    def __repr__(self):
        if not self.pieces:
            return "EmptySet"
        return " ∪ ".join(repr(p) for p in self.pieces)


# ---------------------------------------------------------------------------
# constructors


def whole_space(ring: RingCtx) -> ConstructibleSet:
    return ConstructibleSet(ring, [LocallyClosedPiece(Ideal(ring, []), None)])


def vanishing(ideal: Ideal) -> ConstructibleSet:
    """The closed set V(ideal) as a constructible set."""
    return ConstructibleSet(ideal.ring, [LocallyClosedPiece(ideal, None)])


def locally_closed(carrier: Ideal, excluded: Ideal | None = None) -> ConstructibleSet:
    return ConstructibleSet(carrier.ring, [LocallyClosedPiece(carrier, excluded)])


def _check_same_ambient(a: ConstructibleSet, b: ConstructibleSet):
    if a.ring.vars != b.ring.vars:
        raise ValueError("constructible sets live in different ambient spaces")


# ---------------------------------------------------------------------------
# boolean algebra


def union(a: ConstructibleSet, b: ConstructibleSet) -> ConstructibleSet:
    _check_same_ambient(a, b)
    return ConstructibleSet(a.ring, a.pieces + b.pieces)


def _intersect_pieces(p: LocallyClosedPiece, q: LocallyClosedPiece) -> LocallyClosedPiece:
    carrier = ideal_sum(p.carrier, q.carrier)
    if p.excluded is None and q.excluded is None:
        return LocallyClosedPiece(carrier, None)
    # (A \ V(J1)) ∩ (B \ V(J2)) = (A ∩ B) \ V(J1*J2): a point survives iff
    # some generator of J1 and some generator of J2 are both nonzero there
    if p.excluded is None:
        return LocallyClosedPiece(carrier, q.excluded)
    if q.excluded is None:
        return LocallyClosedPiece(carrier, p.excluded)
    return LocallyClosedPiece(carrier, ideal_product(p.excluded, q.excluded))


def intersection(a: ConstructibleSet, b: ConstructibleSet) -> ConstructibleSet:
    _check_same_ambient(a, b)
    pieces = [_intersect_pieces(p, q) for p in a.pieces for q in b.pieces]
    return ConstructibleSet(a.ring, pieces)


def _complement_piece(piece: LocallyClosedPiece) -> ConstructibleSet:
    # complement of V(I) \ V(J) is (complement of V(I)) ∪ V(J)
    ring = piece.ring
    out = [LocallyClosedPiece(Ideal(ring, []), piece.carrier)]
    if piece.excluded is not None:
        out.append(LocallyClosedPiece(piece.excluded, None))
    return ConstructibleSet(ring, out)


def complement(a: ConstructibleSet) -> ConstructibleSet:
    result = whole_space(a.ring)
    for piece in a.pieces:
        result = intersection(result, _complement_piece(piece))
    return result


def difference(a: ConstructibleSet, b: ConstructibleSet) -> ConstructibleSet:
    _check_same_ambient(a, b)
    return intersection(a, complement(b))


# ---------------------------------------------------------------------------
# predicates and closure


def is_empty(a: ConstructibleSet) -> bool:
    return all(p.is_empty() for p in a.pieces)


def contains_point(a: ConstructibleSet, point) -> bool:
    pt = as_point(a.ring, point)
    return any(p.contains_point(pt) for p in a.pieces)


def saturated_product(
    a: ConstructibleSet, base=lambda ideal: ideal, project=lambda ideal: ideal
) -> Ideal | None:
    """Product of project(base(I) : g^inf) over the nonempty pieces
    V(I) \\ V(J) of `a` and the generators g of J; a piece with nothing
    removed contributes project(base(I)).  `base` maps each carrier into
    the ring where the saturations run, and `project` maps each saturated
    ideal to the ring of the answer; both default to the identity.

    Returns None when every piece is empty.  Saturations run lazily, so
    once the product is the zero ideal no further Groebner work is done.
    """
    result = None  # running product ideal; None means nothing accumulated yet
    for piece in a.pieces:
        if piece.is_empty():
            continue
        ideal = base(piece.carrier)
        if piece.excluded is None:
            parts = (ideal,)
        else:
            parts = (saturate(ideal, lift(g, ideal.ring)) for g in piece.excluded.generators)
        for part in map(project, parts):
            result = part if result is None else ideal_product(result, part)
            if result.is_zero_ideal():
                return result  # already the whole space
    return result


def closure(a: ConstructibleSet) -> Ideal:
    """Zariski closure, as the ideal whose vanishing locus it is.

    closure(V(I) \\ V(J)) = union over generators g of J of V(I : g^inf),
    and the union of closed sets is the vanishing locus of the product
    ideal.  The empty set closes to V(1).
    """
    result = saturated_product(a)
    if result is None:
        return Ideal(a.ring, [a.ring.one()])
    return result


def contains(outer: ConstructibleSet, inner: ConstructibleSet) -> bool:
    _check_same_ambient(outer, inner)
    return is_empty(difference(inner, outer))


def same_set(a: ConstructibleSet, b: ConstructibleSet) -> bool:
    """Semantic equality: mutual containment, independent of representation."""
    return contains(a, b) and contains(b, a)


def is_open_in(subset: ConstructibleSet, ambient: ConstructibleSet) -> bool:
    """Is `subset` open inside `ambient`?

    True iff the complement of subset within ambient is closed in ambient,
    i.e. equals (its own Zariski closure) ∩ ambient.  Raises if subset is
    not contained in ambient, since the question is then ill-posed.
    """
    _check_same_ambient(subset, ambient)
    if not contains(ambient, subset):
        raise ValueError("subset is not contained in the ambient set")
    rest = difference(ambient, subset)
    # rest ⊆ closure(rest) ∩ ambient always, so they are equal iff closure(rest) misses subset
    return is_empty(intersection(vanishing(closure(rest)), subset))
