"""Polynomial actions of algebraic groups on affine spaces.

An action is given by its space, a tuple of group parameter names, an
ideal of constraints cutting the group out of parameter space (for a torus
factor: s*u - 1), the action polynomials in the combined space+parameter
ring, and the parameter assignment giving the identity element.  Two
kernels carry the rest: `GroupActionSpec.pullback`, f -> f(g·x), for
invariance and stability, and `_orbit_graph`, the system g·start = end plus
the constraints, eliminated for orbit closures and solved for same_orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .polyring import (
    Polynomial,
    RingCtx,
    Scalar,
    as_point,
    as_rational,
    evaluate,
    extend_ring,
    lift,
    substitute,
)
from .groebner import (
    Ideal,
    eliminate,
    ideal_member,
    ideal_sum,
    is_unit_ideal,
    lift_ideal,
    radical_member,
)
from .geometry import ConstructibleSet
from .morphism import PolyMap

__all__ = [
    "GroupActionSpec",
    "NonInvariantMapError",
    "PairVerdict",
    "check_invariant",
    "orbit_closure",
    "same_orbit",
    "fixed_stratum_check",
    "generic_orbit_closure",
    "base_in_all_orbit_closures",
    "separation_report",
    "separation_report_with",
]


class NonInvariantMapError(ValueError):
    """separation_report was handed a map that is not constant on orbits."""


@dataclass(frozen=True)
class GroupActionSpec:
    """A polynomial group action on an affine space.

    space:
        ring of the space being acted on.
    params:
        names of the group parameters, disjoint from the space variables.
    constraint:
        ideal in the parameter-only ring cutting out the group (the zero
        ideal for a full affine group like a unipotent one-parameter group).
    action:
        per space variable, its image under the action, as a polynomial in
        the combined ring (space variables first, then parameters).
    identity:
        parameter values of the identity element.

    Pull-backs go through `pullback`, systems g·start = end through `_orbit_graph`.
    """

    space: RingCtx
    params: tuple
    constraint: Ideal
    action: tuple
    identity: Mapping[str, Scalar]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "action", tuple(self.action))
        clash = set(self.space.vars) & set(self.params)
        if clash:
            raise ValueError(f"parameters reuse space variable names: {sorted(clash)}")
        if len(self.action) != self.space.arity:
            raise ValueError("need exactly one action polynomial per space variable")
        for a in self.action:
            if a.ring.vars != self.combined.vars:
                raise ValueError(
                    "action polynomials must live in the combined space+parameter ring"
                )
        if tuple(self.constraint.ring.vars) != self.params:
            raise ValueError("constraint ideal must live in the parameter ring")
        ident = {k: as_rational(v) for k, v in self.identity.items()}
        if set(ident) != set(self.params):
            raise ValueError("identity must assign every parameter")
        object.__setattr__(self, "identity", ident)
        # the identity element must satisfy the group constraints ...
        ipoint = tuple(ident[p] for p in self.params)
        for g in self.constraint.generators:
            if evaluate(g, ipoint) != 0:
                raise ValueError(f"identity element violates the constraint {g}")
        # ... and must act as the identity map
        for name, a in zip(self.space.vars, self.action):
            at_id = substitute(a, ident, into=self.space)
            if at_id != self.space.gen(name):
                raise ValueError(f"action at the identity moves {name}: {at_id}")

    @cached_property
    def combined(self) -> RingCtx:
        """Space variables followed by group parameters."""
        return extend_ring(self.space, self.params)

    @cached_property
    def constraint_in_combined(self) -> Ideal:
        """Built once, so its Groebner basis is computed once."""
        return lift_ideal(self.constraint, self.combined)

    def pullback(self, f: Polynomial) -> Polynomial:
        """f(g·x) in the combined ring: each space variable of f replaced
        by its action polynomial."""
        return substitute(f, dict(zip(self.space.vars, self.action)), into=self.combined)

    def act_on_point(self, group_point, point) -> tuple:
        """Apply a specific group element (parameter tuple) to a space point."""
        p = as_point(self.constraint.ring, group_point)
        for g in self.constraint.generators:
            if evaluate(g, p) != 0:
                raise ValueError(f"parameters {p!r} do not satisfy the group constraint")
        xp = as_point(self.space, point) + p
        return tuple(evaluate(a, xp) for a in self.action)

    @cached_property
    def _generic_closure(self) -> Ideal:
        """generic_orbit_closure's ideal, cached: it is eliminated once per action."""
        sym_names = tuple(f"{v}_0" for v in self.space.vars)
        clash = set(sym_names) & (set(self.space.vars) | set(self.params))
        if clash:
            raise ValueError(f"cannot build symbolic start point, names clash: {sorted(clash)}")
        big = RingCtx(self.space.vars + self.params + sym_names)
        start = [big.gen(s) for s in sym_names]
        end = [big.gen(v) for v in self.space.vars]
        return eliminate(_orbit_graph(self, start, end, big), set(self.params))


def check_invariant(spec: GroupActionSpec, f: Polynomial) -> bool:
    """Is f constant on orbits?  Checks f∘action - f ≡ 0 modulo the group
    constraints, which over a connected group is exact invariance."""
    if f.ring.vars != spec.space.vars:
        raise ValueError("polynomial must live on the space being acted on")
    return ideal_member(spec.pullback(f) - lift(f, spec.combined), spec.constraint_in_combined)


def _orbit_graph(spec: GroupActionSpec, start, end, big: RingCtx) -> Ideal:
    """The system g·start = end inside ``big``: (end_i - action_i(g, start))
    plus the group constraints.  ``start`` and ``end`` give one rational or
    polynomial of ``big`` per space variable."""
    assignment = dict(zip(spec.space.vars, start))
    gens = [e - substitute(a, assignment, into=big) for e, a in zip(end, spec.action)]
    gens.extend(lift(g, big) for g in spec.constraint.generators)
    return Ideal(big, gens)


def orbit_closure(spec: GroupActionSpec, point) -> Ideal:
    """Ideal of the Zariski closure of the orbit of a rational point: the
    group parameters eliminated from the graph of the action at it."""
    end = [spec.combined.gen(v) for v in spec.space.vars]
    graph = _orbit_graph(spec, as_point(spec.space, point), end, spec.combined)
    return eliminate(graph, set(spec.params), into=spec.space)


def same_orbit(spec: GroupActionSpec, p, q) -> bool:
    """Does some group element send p to q?  Solvability over the closure
    of the system action(g, p) = q together with the group constraints."""
    pp, qq = as_point(spec.space, p), as_point(spec.space, q)
    return not is_unit_ideal(_orbit_graph(spec, pp, qq, spec.constraint.ring))


def fixed_stratum_check(spec: GroupActionSpec, stratum: ConstructibleSet) -> bool:
    """Is every point of the stratum fixed by the whole group?

    For each piece and each space variable, action_i - x_i must lie in the
    radical of carrier + constraints in the combined ring.
    """
    if stratum.ring.vars != spec.space.vars:
        raise ValueError("stratum must live on the space being acted on")
    big = spec.combined
    for piece in stratum.pieces:
        if piece.is_empty():
            continue
        ambient = ideal_sum(lift_ideal(piece.carrier, big), spec.constraint_in_combined)
        for name, a in zip(spec.space.vars, spec.action):
            if not radical_member(a - big.gen(name), ambient):
                return False
    return True


def generic_orbit_closure(spec: GroupActionSpec) -> Ideal:
    """Orbit closures of all points at once: the group parameters
    eliminated from the graph of the action at a fully symbolic start
    point.  The ideal lives over the space variables followed by one fresh
    copy ``<v>_0`` per space variable, which stands for the start point."""
    return spec._generic_closure


def base_in_all_orbit_closures(spec: GroupActionSpec, base_point) -> bool:
    """Does the closure of every orbit contain the given point?

    True iff every generator of the generic orbit closure vanishes
    identically in the symbolic start coordinates once the base point is
    substituted for the space variables.
    """
    base = as_point(spec.space, base_point)
    closed = generic_orbit_closure(spec)
    sub = dict(zip(spec.space.vars, base))
    return all(substitute(g, sub, into=closed.ring).is_zero() for g in closed.generators)


@dataclass(frozen=True)
class PairVerdict:
    p: tuple
    q: tuple
    verdict: str  # "same-orbit" | "separated" | "collapsed"

    def describe(self) -> str:
        ps = "(" + ",".join(str(c) for c in self.p) + ")"
        qs = "(" + ",".join(str(c) for c in self.q) + ")"
        return f"{ps} vs {qs}: {self.verdict}"


def separation_report_with(
    spec: GroupActionSpec,
    pairs: Sequence,
    images_equal: Callable,
) -> list:
    """Trichotomy per pair of points: same orbit, separated by the given
    image-equality relation, or collapsed (distinct orbits, equal images).
    The caller vouches that the relation is constant on orbits."""
    out = []
    for p, q in pairs:
        pp = as_point(spec.space, p)
        qq = as_point(spec.space, q)
        if same_orbit(spec, pp, qq):
            verdict = "same-orbit"
        elif not images_equal(pp, qq):
            verdict = "separated"
        else:
            verdict = "collapsed"
        out.append(PairVerdict(pp, qq, verdict))
    return out


def separation_report(spec: GroupActionSpec, inv_map: PolyMap, pairs: Sequence) -> list:
    """separation_report_with for a polynomial map, after demanding that
    every coordinate of the map is an invariant (raises otherwise)."""
    if inv_map.source.vars != spec.space.vars:
        raise ValueError("map must be defined on the space being acted on")
    for c in inv_map.coords:
        if not check_invariant(spec, c):
            raise NonInvariantMapError(
                f"map coordinate {c} is not constant on orbits"
            )
    return separation_report_with(
        spec, pairs, lambda p, q: inv_map.apply(p) == inv_map.apply(q)
    )
