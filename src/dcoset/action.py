"""Polynomial actions of algebraic groups on affine spaces.

An action is given by its space, a tuple of group parameter names, an
ideal of constraints cutting the group out of parameter space (for a torus
factor: s*u - 1), the action polynomials in the combined space+parameter
ring, and the parameter assignment giving the identity element.  Orbit
computations eliminate the parameters; invariance and fixed-point checks
are normal-form computations modulo the constraint ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        combined = extend_ring(self.space, self.params)
        object.__setattr__(self, "_combined", combined)
        if len(self.action) != self.space.arity:
            raise ValueError("need exactly one action polynomial per space variable")
        for a in self.action:
            if a.ring.vars != combined.vars:
                raise ValueError(
                    "action polynomials must live in the combined space+parameter ring"
                )
        if tuple(self.constraint.ring.vars) != self.params:
            raise ValueError("constraint ideal must live in the parameter ring")
        object.__setattr__(self, "_constraint_big", lift_ideal(self.constraint, combined))
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

    @property
    def combined(self) -> RingCtx:
        """Space variables followed by group parameters."""
        return self._combined

    def param_ring(self) -> RingCtx:
        return self.constraint.ring

    def act_on_point(self, group_point, point) -> tuple:
        """Apply a specific group element (parameter tuple) to a space point."""
        p = as_point(self.param_ring(), group_point)
        for g in self.constraint.generators:
            if evaluate(g, p) != 0:
                raise ValueError(f"parameters {p!r} do not satisfy the group constraint")
        xp = as_point(self.space, point) + p
        return tuple(evaluate(a, xp) for a in self.action)

    def constraint_in_combined(self) -> Ideal:
        """Built once, so its Groebner basis is computed once."""
        return self._constraint_big


def check_invariant(spec: GroupActionSpec, f: Polynomial) -> bool:
    """Is f constant on orbits?  Checks f∘action - f ≡ 0 modulo the group
    constraints, which over a connected group is exact invariance."""
    if f.ring.vars != spec.space.vars:
        raise ValueError("polynomial must live on the space being acted on")
    big = spec.combined
    moved = substitute(f, {v: a for v, a in zip(spec.space.vars, spec.action)}, into=big)
    delta = moved - lift(f, big)
    return ideal_member(delta, spec.constraint_in_combined())


def _orbit_graph(spec: GroupActionSpec, start, big: RingCtx) -> Ideal:
    """The graph of g -> g·start inside ``big``: (x_i - action_i(g, start))
    plus the group constraints.  ``start`` gives one rational or polynomial
    of ``big`` per space variable."""
    assignment = dict(zip(spec.space.vars, start))
    gens = [
        big.gen(name) - substitute(a, assignment, into=big)
        for name, a in zip(spec.space.vars, spec.action)
    ]
    gens.extend(lift(g, big) for g in spec.constraint.generators)
    return Ideal(big, gens)


def orbit_closure(spec: GroupActionSpec, point) -> Ideal:
    """Ideal of the Zariski closure of the orbit of a rational point: the
    group parameters eliminated from the graph of the action at it."""
    graph = _orbit_graph(spec, as_point(spec.space, point), spec.combined)
    return eliminate(graph, set(spec.params), into=spec.space)


def same_orbit(spec: GroupActionSpec, p, q) -> bool:
    """Does some group element send p to q?  Solvability over the closure
    of the system action(g, p) = q together with the group constraints."""
    pp = as_point(spec.space, p)
    qq = as_point(spec.space, q)
    pring = spec.param_ring()
    assignment = {v: c for v, c in zip(spec.space.vars, pp)}
    gens = []
    for a, target in zip(spec.action, qq):
        moved = substitute(a, assignment, into=pring)
        gens.append(moved - pring.const(target))
    gens.extend(spec.constraint.generators)
    return not is_unit_ideal(Ideal(pring, gens))


def fixed_stratum_check(spec: GroupActionSpec, stratum: ConstructibleSet) -> bool:
    """Is every point of the stratum fixed by the whole group?

    For each piece and each space variable, action_i - x_i must lie in the
    radical of carrier + constraints in the combined ring.
    """
    if stratum.ring.vars != spec.space.vars:
        raise ValueError("stratum must live on the space being acted on")
    big = spec.combined
    cons = spec.constraint_in_combined()
    for piece in stratum.pieces:
        if piece.is_empty():
            continue
        ambient = ideal_sum(lift_ideal(piece.carrier, big), cons)
        for name, a in zip(spec.space.vars, spec.action):
            delta = a - lift(big.gen(name), big)
            if not radical_member(delta, ambient):
                return False
    return True


def base_in_all_orbit_closures(spec: GroupActionSpec, base_point) -> bool:
    """Does the closure of every orbit contain the given point?

    Works with a fully symbolic starting point: fresh variables replace
    the space coordinates, the parameters are eliminated from the graph of
    the action, and the base point is substituted into the result.  True
    iff every eliminated generator then vanishes identically in the
    symbolic coordinates.
    """
    base = as_point(spec.space, base_point)
    sym_names = tuple(f"{v}_0" for v in spec.space.vars)
    clash = set(sym_names) & (set(spec.space.vars) | set(spec.params))
    if clash:
        raise ValueError(f"cannot build symbolic start point, names clash: {sorted(clash)}")
    big = RingCtx(spec.space.vars + spec.params + sym_names)
    start = [big.gen(s) for s in sym_names]
    closed = eliminate(_orbit_graph(spec, start, big), set(spec.params))
    # substitute the base point for the space variables; what is left must
    # vanish identically in the symbolic start coordinates
    sub = {v: c for v, c in zip(spec.space.vars, base)}
    for g in closed.generators:
        if not substitute(g, sub, into=closed.ring).is_zero():
            return False
    return True


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
