"""Polynomial maps between affine spaces and image computations.

Images of constructible sets are handled through the graph ideal: lift the
source constraints next to fresh target coordinates, add y_j - f_j, remove
the excluded locus by saturation, and eliminate the source block.  Fibers
go the other way and reduce to an emptiness test, which keeps membership
exact where the closure alone would overshoot.

Also here: sections of a map over a stratum (a right inverse defined by
polynomials, possibly using auxiliary witness variables constrained to be
inverses of units), and a small projective-pair gadget for maps whose last
component lives on a projective line and is given by two interchangeable
coordinate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .polyring import (
    Polynomial,
    RingCtx,
    as_point,
    evaluate,
    extend_ring,
    lift,
    substitute,
)
from .groebner import (
    Ideal,
    eliminate,
    groebner_basis,
    ideal_member,
    ideal_sum,
    lift_ideal,
    normal_form,
    radical_member,
)
from .geometry import (
    ConstructibleSet,
    intersection,
    is_empty,
    locally_closed,
    saturated_product,
    vanishing,
)

__all__ = [
    "PolyMap",
    "MalformedSectionError",
    "OutsideDomainError",
    "SectionSpec",
    "ProjectivePairPredicate",
    "image_closure",
    "point_in_image",
    "parametric_image_constraints",
    "verify_section",
    "proj_equal",
    "check_consistent_on_overlap",
    "incidence_ok",
]


class MalformedSectionError(ValueError):
    """The supplied section data violate the shape this checker can certify."""


class OutsideDomainError(ValueError):
    """Both coordinate pairs of a projective-pair predicate vanish at the point."""


class PolyMap:
    """A polynomial map source -> target, one coordinate per target variable."""

    __slots__ = ("source", "target", "coords")

    def __init__(self, source: RingCtx, target: RingCtx, coords: Sequence[Polynomial]):
        coords = tuple(coords)
        if len(coords) != target.arity:
            raise ValueError(
                f"map has {len(coords)} coordinates but the target has arity {target.arity}"
            )
        for c in coords:
            if c.ring.vars != source.vars:
                raise ValueError(f"coordinate {c!r} is not a polynomial on the source")
        self.source = source
        self.target = target
        self.coords = coords

    def apply(self, point) -> tuple:
        pt = as_point(self.source, point)
        return tuple(evaluate(c, pt) for c in self.coords)

    def __repr__(self):
        cs = ", ".join(str(c) for c in self.coords)
        return f"PolyMap({','.join(self.source.vars)} -> {','.join(self.target.vars)}; {cs})"


def _graph_setup(f: PolyMap):
    clash = set(f.source.vars) & set(f.target.vars)
    if clash:
        raise ValueError(
            f"source and target share variable names {sorted(clash)}; rename one side"
        )
    big = extend_ring(f.source, f.target.vars)
    graph = [lift(big.gen(y), big) - lift(c, big) for y, c in zip(f.target.vars, f.coords)]
    return big, graph


def image_closure(f: PolyMap, domain: ConstructibleSet) -> Ideal:
    """Ideal of the Zariski closure of f(domain) in the target space: the
    image constraints of :func:`parametric_image_constraints` over the
    empty stratum."""
    return parametric_image_constraints(f, domain, Ideal(f.target, []))


def point_in_image(f: PolyMap, domain: ConstructibleSet, point) -> bool:
    """Exact membership of a target point in f(domain): is the fiber nonempty?"""
    q = as_point(f.target, point)
    fiber_gens = [c - f.source.const(v) for c, v in zip(f.coords, q)]
    fiber = intersection(domain, vanishing(Ideal(f.source, fiber_gens)))
    return not is_empty(fiber)


def parametric_image_constraints(f: PolyMap, domain: ConstructibleSet, stratum: Ideal) -> Ideal:
    """Constraints a target point must satisfy to be hit, given stratum constraints.

    Per piece V(I) \\ V(J): saturate carrier + graph + stratum by each
    generator of J, eliminate the source variables, and multiply the
    results.  The generators are then reduced modulo a Groebner basis of
    the stratum ideal, so the answer lists only conditions that are new
    relative to the stratum.  The result describes the closure of the image
    of the part of the domain sitting over the stratum; an empty domain
    gives the unit ideal.
    """
    if stratum.ring.vars != f.target.vars:
        raise ValueError("stratum ideal must live on the target")
    if domain.ring.vars != f.source.vars:
        raise ValueError("domain does not live in the source space")
    big, graph = _graph_setup(f)
    graph_ideal = Ideal(big, graph)
    stratum_big = lift_ideal(stratum, big)
    source_vars = set(f.source.vars)
    result = saturated_product(
        domain,
        base=lambda carrier: ideal_sum(lift_ideal(carrier, big), graph_ideal, stratum_big),
        project=lambda part: eliminate(part, source_vars, into=f.target),
    )
    if result is None:
        return Ideal(f.target, [f.target.one()])
    if stratum.generators:
        gb = groebner_basis(stratum)
        reduced = []
        for g in result.generators:
            h = normal_form(lift(g, stratum.ring), gb)
            if not h.is_zero():
                reduced.append(h)
        result = Ideal(f.target, reduced)
    return result


# ---------------------------------------------------------------------------
# sections


@dataclass(frozen=True)
class SectionSpec:
    """A claimed right inverse of a map over a stratum of its target.

    stratum:
        constructible set in a ring whose variables are the target
        variables followed by any witness variables.
    section:
        map from the stratum ring to the source of the original map.
    witnesses:
        pairs (u, g) on the stratum ring, u a witness variable and g free of
        witnesses, each adding the constraint u*g - 1 = 0; solvability is
        certified by checking that g never vanishes on the stratum.
    """

    stratum: ConstructibleSet
    section: PolyMap
    witnesses: tuple = ()


def verify_section(f: PolyMap, domain: ConstructibleSet, spec: SectionSpec) -> bool:
    """Certify that spec.section maps the stratum into `domain` and that
    f composed with the section is the identity on the target coordinates.

    Returns False when a membership or identity check fails; raises
    MalformedSectionError when the section data themselves are unusable
    (wrong rings, a witness pair outside the supported shape, or a
    witness denominator that can vanish on the stratum).

    Membership is certified piecewise: each stratum piece must land inside
    a single piece of the domain.  A section whose image straddles several
    domain pieces is reported as a failure rather than analyzed further.
    """
    st_ring = spec.stratum.ring
    if spec.section.source.vars != st_ring.vars:
        raise MalformedSectionError("section must be defined on the stratum ring")
    if spec.section.target.vars != f.source.vars:
        raise MalformedSectionError("section must land in the source of the map")
    target_vars = [v for v in f.target.vars if st_ring.has_var(v)]
    if tuple(target_vars) != f.target.vars:
        raise MalformedSectionError("stratum ring must contain every target variable")
    witness_vars = {v for v in st_ring.vars if not f.target.has_var(v)}
    witness_gens = {st_ring.gen(v) for v in witness_vars}

    # solvability of witnesses: each u*g - 1 needs g nonvanishing on the stratum
    for u, g in spec.witnesses:
        if (
            u not in witness_gens
            or g.ring.vars != st_ring.vars
            or witness_vars.intersection(g.variables_used())
        ):
            raise MalformedSectionError(
                f"witness ({u}, {g}) is not a witness variable inverting a "
                "witness-free polynomial on the stratum ring"
            )
        if not is_empty(intersection(spec.stratum, vanishing(Ideal(st_ring, [g])))):
            raise MalformedSectionError(
                f"witness denominator {g} vanishes somewhere on the stratum"
            )

    witness_ideal = Ideal(st_ring, [u * g - 1 for u, g in spec.witnesses])

    # the section must land inside the domain wherever the stratum lives
    section_assignment = dict(zip(f.source.vars, spec.section.coords))
    for piece in spec.stratum.pieces:
        if piece.is_empty():
            continue
        carrier_plus = ideal_sum(piece.carrier, witness_ideal)
        hit = False
        for dpiece in domain.pieces:
            pulled = [
                substitute(g, section_assignment, into=st_ring)
                for g in dpiece.carrier.generators
            ]
            if not all(ideal_member(p, carrier_plus) for p in pulled):
                continue
            if dpiece.excluded is not None:
                bad_gens = [
                    substitute(g, section_assignment, into=st_ring)
                    for g in dpiece.excluded.generators
                ]
                stray = intersection(
                    locally_closed(piece.carrier, piece.excluded),
                    vanishing(ideal_sum(witness_ideal, Ideal(st_ring, bad_gens))),
                )
                if not is_empty(stray):
                    continue
            hit = True
            break
        if not hit:
            return False

        # identity: f(section(b)) = b modulo carrier + witness constraints
        for y, coord in zip(f.target.vars, f.coords):
            composed = substitute(coord, section_assignment, into=st_ring)
            delta = composed - st_ring.gen(y)
            if not ideal_member(delta, carrier_plus):
                return False
    return True


# ---------------------------------------------------------------------------
# projective-pair values


@dataclass(frozen=True)
class ProjectivePairPredicate:
    """A map to a projective line given by two coordinate pairs.

    The preferred pair is used at a point when it is nonzero there, the
    fallback pair otherwise; if both vanish the predicate is undefined at
    that point.  Two values compare equal through the cross product.
    """

    source: RingCtx
    preferred: tuple
    fallback: tuple

    def __post_init__(self):
        for p in self.preferred + self.fallback:
            if p.ring.vars != self.source.vars:
                raise ValueError("pair entries must be polynomials on the source")

    def value_at(self, point) -> tuple:
        pt = as_point(self.source, point)
        a = evaluate(self.preferred[0], pt)
        b = evaluate(self.preferred[1], pt)
        if a != 0 or b != 0:
            return (a, b)
        a = evaluate(self.fallback[0], pt)
        b = evaluate(self.fallback[1], pt)
        if a != 0 or b != 0:
            return (a, b)
        raise OutsideDomainError(f"both coordinate pairs vanish at {pt!r}")


def proj_equal(pred: ProjectivePairPredicate, p, q) -> bool:
    """Equality in the projective line: vanishing cross product of the values."""
    a1, b1 = pred.value_at(p)
    a2, b2 = pred.value_at(q)
    return a1 * b2 - a2 * b1 == 0


def check_consistent_on_overlap(pred: ProjectivePairPredicate, domain: ConstructibleSet) -> bool:
    """Do the two pairs agree as projective points wherever both make sense?

    Checks that the cross product of the preferred and fallback pairs lies
    in the radical of each piece's carrier ideal, so on the domain the two
    conventions can never give different projective values.
    """
    if domain.ring.vars != pred.source.vars:
        raise ValueError("domain does not live in the predicate's source")
    f1, f2 = pred.preferred
    g1, g2 = pred.fallback
    cross = f1 * g2 - f2 * g1
    for piece in domain.pieces:
        if piece.is_empty():
            continue
        if not radical_member(cross, piece.carrier):
            return False
    return True


def incidence_ok(pred: ProjectivePairPredicate, base_pair: tuple, point) -> bool:
    """Does (base values, predicate value) satisfy the incidence equation
    a*v - b*u = 0 of the blown-up plane?  base_pair gives the two base
    coordinates as polynomials on the predicate's source."""
    pt = as_point(pred.source, point)
    a = evaluate(base_pair[0], pt)
    b = evaluate(base_pair[1], pt)
    u, v = pred.value_at(pt)
    return a * v - b * u == 0
