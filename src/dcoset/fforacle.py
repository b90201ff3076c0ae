"""Brute-force finite-field oracle.

Symbolic claims whose proofs are field-independent can be shadowed by
exhaustive computation over a small prime field: reduce every polynomial
mod p, enumerate points, and compare image membership or orbit partitions
against the symbolic prediction.  Scenarios declare which of their claims
carry such shadows; :func:`cross_check` runs the declared shadows for one
prime and returns a report.  Enumeration streams over F_p^n: no list of
all points is kept, only the points already placed in an orbit, and for an
image check the attained and the predicted sets, compared as sets.

Rational coefficients are mapped to F_p via modular inverse of the
denominator.  A denominator divisible by p has no image, so reduction
raises :class:`GuardViolation` rather than produce a wrong answer.

Enumerations are compiled, not interpreted: each one becomes a generated
function, a sweep, that walks the stream of points itself, unpacks each
into locals ``x0, x1, ...``, tests the domain, and counts the point and
records its image or orbit inline, with every polynomial written as source
such as ``(3*x0*x1**2+4*x2) % 5``.  This is safe because the source is
generated here from the reduced coefficients (ints below p), the variable
indices and the exponents (ints), joined by ``*``, ``+``, ``%``,
comparisons and ``and``/``or``/``not`` in a fixed scaffold; no text from
the caller reaches it, and it runs without builtins.  Arithmetic stays in
exact Python ints, reduced mod p once per polynomial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .polyring import Polynomial
from .geometry import ConstructibleSet
from .action import GroupActionSpec
from .morphism import PolyMap
from .report import KIND_BY_REPRESENTATION, KIND_VERIFIED, CheckResult, Report
from . import scenarios as _scenarios

__all__ = [
    "DEFAULT_PRIMES",
    "FpConfig",
    "GuardViolation",
    "enumerate_image",
    "enumerate_orbits",
    "group_elements",
    "ImageEnumeration",
    "OrbitCensus",
    "cross_check",
]

DEFAULT_PRIMES = (3, 5, 7)


class GuardViolation(ArithmeticError, ValueError):
    """A rational coefficient cannot be reduced mod p (denominator in pZ)."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FpConfig:
    """Prime field selector for the oracle."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")


def _join(parts: list, op: str) -> str:
    # CPython's compiler recurses once per binary operator, so a flat chain
    # of a few thousand terms overflows it; chunking keeps nesting shallow
    while len(parts) > 64:
        parts = [f"({op.join(parts[i:i + 64])})" for i in range(0, len(parts), 64)]
    return op.join(parts)


def _names(var: str, indices) -> str:
    """``x0, x1, ``: the generated locals holding one point's coordinates."""
    return "".join(f"{var}{i}, " for i in indices)


def _poly_source(poly: Polynomial, p: int, var: str = "x") -> str:
    """Source of the value of ``poly`` in range(p) over the locals ``x0, x1,
    ...``, which hold ints in range(p), e.g. ``(3*x0*x1**2+4*x2) % 5``:
    made only of ints and names.  A lone name or int needs no ``% p``."""
    terms = []
    for exps, coeff in poly.terms.items():
        den = coeff.denominator % p
        if den == 0:
            raise GuardViolation(
                f"coefficient {coeff} has denominator divisible by {p}"
            )
        c = coeff.numerator * pow(den, -1, p) % p
        if c:
            factors = [f"{var}{i}**{e}" if e > 1 else f"{var}{i}" for i, e in enumerate(exps) if e]
            if c != 1 or not factors:
                factors.insert(0, str(c))
            terms.append(_join(factors, "*"))
    src = _join(terms, "+") or "0"
    return src if src.isalnum() else f"({src}) % {p}"


def _tuple_source(polys, p: int) -> str:
    return f"({''.join(f'{_poly_source(f, p)}, ' for f in polys)})"


def _compile(source: str, name: str) -> Callable:
    """The one function ``source`` defines, run without builtins, under the
    file name ``name``; the source is not kept in ``linecache``."""
    namespace = {}
    exec(compile(source, name, "exec"), {"__builtins__": {}}, namespace)
    return namespace.popitem()[1]


def _vanish_source(gens, p: int, var: str = "x") -> str:
    return " and ".join(f"{_poly_source(g, p, var)} == 0" for g in gens) or "True"


def _set_source(s: ConstructibleSet | None, p: int, var: str = "x") -> str:
    """A point lies in V(I) minus V(J) when every generator of I vanishes
    there and some generator of J does not; None, or a piece with no
    generators and nothing excluded, is the whole space: ``True``."""
    if s is None or any(
        not piece.carrier.generators and piece.excluded is None for piece in s.pieces
    ):
        return "True"
    pieces = []
    for piece in s.pieces:
        clause = _vanish_source(piece.carrier.generators, p, var)
        if piece.excluded is not None:
            clause += f" and not ({_vanish_source(piece.excluded.generators, p, var)})"
        pieces.append(f"({clause})")
    return " or ".join(pieces) or "False"


def _sweep(kind: str, p: int, arity: int, test: str, body: str, args: str) -> Callable:
    """Compile one pass over F_p^arity: ``sweep(P, *args)`` walks the point
    stream P, unpacks each point ``x`` into the locals ``x0, x1, ...``, runs
    ``body`` on the points that pass ``test`` and returns how many did.
    The pass is one flat ``for`` whatever the arity, since CPython allows
    only 20 statically nested blocks.  Its file name gives kind and p."""
    body = body.replace("\n", "\n   ")
    xs = _names("x", range(arity))
    return _compile(
        f"def sweep(P, {args}):\n n = 0\n for x in P:\n  [{xs}] = x\n"
        f"  if {test}:\n   n += 1\n   {body}\n return n",
        f"<dcoset {kind} sweep p={p}>",
    )


def enumerate_points(p: int, arity: int):
    return itertools.product(range(p), repeat=arity)


def _points(kind: str, p: int, arity: int, test: str) -> list:
    """The points of F_p^arity that pass ``test``, in enumeration order;
    the test ``True`` passes every point, with no sweep compiled."""
    if test == "True":
        return list(enumerate_points(p, arity))
    points = []
    _sweep(kind, p, arity, test, "add(x)", "add")(enumerate_points(p, arity), points.append)
    return points


@dataclass(frozen=True)
class ImageEnumeration:
    p: int
    source_count: int
    points: tuple  # sorted target tuples actually attained


def enumerate_image(
    f: PolyMap, domain: ConstructibleSet | None, cfg: FpConfig
) -> ImageEnumeration:
    """Exhaustively apply ``f`` to the F_p-points of ``domain``."""
    p = cfg.p
    n = f.source.arity
    body = f"add({_tuple_source(f.coords, p)})"
    sweep = _sweep("image", p, n, _set_source(domain, p), body, "add")
    hit = set()
    n_source = sweep(enumerate_points(p, n), hit.add)
    return ImageEnumeration(p=p, source_count=n_source, points=tuple(sorted(hit)))


@dataclass(frozen=True)
class OrbitCensus:
    p: int
    point_count: int
    orbit_count: int
    sizes: dict  # orbit size -> number of orbits of that size
    fixed_points: tuple  # sorted points whose orbit is a singleton
    group_order: int
    stratum_points: tuple  # sorted domain points in the stratum given, if any


def group_elements(spec: GroupActionSpec, p: int) -> tuple:
    """All parameter tuples over F_p satisfying the constraint ideal."""
    test = _vanish_source(spec.constraint.generators, p)
    return tuple(_points("group", p, len(spec.params), test))


def enumerate_orbits(
    spec: GroupActionSpec,
    cfg: FpConfig,
    domain: ConstructibleSet | None = None,
    stratum: ConstructibleSet | None = None,
) -> OrbitCensus:
    """Partition the F_p-points of ``domain`` into orbits.

    One streaming pass over F_p^n counts the domain points; each point not
    yet placed starts an orbit.  ``group_elements`` lists all of G(F_p), so
    the orbit of x is {g·x} in one pass over the elements.  The domain must
    be action-stable; an orbit point outside it raises ValueError.  Checking
    the moves of x alone suffices, since G·y = G·x for every y in the orbit.
    The domain points in ``stratum``, if given, are collected in the same
    pass.
    """
    p = cfg.p
    n = spec.space.arity
    elements = group_elements(spec, p)
    # the parameters follow the space variables: x{n}, x{n+1}, ...
    g = _names("x", range(n, n + len(spec.params)))
    moves = f"{_tuple_source(spec.action, p)} for [{g}] in E"
    body = ["if x in seen: continue", f"orbit = {{{moves}}}", "orbit.add(x)"]
    if stratum is not None:
        body.insert(0, f"if {_set_source(stratum, p)}: stratum(x)")
    if domain is not None:
        # the error names the first escaping move in element order
        ys, out = _names("y", range(n)), f"not ({_set_source(domain, p, 'y')})"
        escaped = f"[({ys}) for [{ys}] in [{moves}] if {out}]"
        body.append(f"for [{ys}] in orbit:\n if {out}: escape(x, {escaped})")
    body += ["seen |= orbit", "size = len(orbit)", "sizes[size] = sizes.get(size, 0) + 1",
             "if size == 1: fixed(x)"]
    args = "E, seen, sizes, fixed, stratum, escape, len"
    sweep = _sweep("census", p, n, _set_source(domain, p), "\n".join(body), args)
    sizes: dict = {}
    fixed = []
    stratum_points = []
    point_count = sweep(enumerate_points(p, n), elements, set(), sizes, fixed.append,
                        stratum_points.append, _escape, len)
    return OrbitCensus(
        p=p,
        point_count=point_count,
        orbit_count=sum(sizes.values()),
        sizes=dict(sorted(sizes.items())),
        fixed_points=tuple(fixed),
        group_order=len(elements),
        stratum_points=tuple(stratum_points),
    )


def _escape(start, escaped):
    raise ValueError(f"action moved {start} outside the domain to {escaped[0]}")


def _runs_at(shadow, p: int) -> bool:
    """Is the shadow declared for p?  Shadows declared for other primes are
    skipped without enumerating."""
    return shadow.primes is None or p in shadow.primes


def oracle_work(shadows, p: int) -> int:
    """Upper bound on the points cross_check enumerates at p, counted from
    arities alone: a census visits points x group elements, at most
    p^(arity + parameters); an image check enumerates source and target."""
    work = 0
    for shadow in shadows:
        if not _runs_at(shadow, p):
            continue
        if isinstance(shadow, _scenarios.CensusShadow):
            spec = shadow.action
            work += p ** (spec.space.arity + len(spec.params))
        else:
            work += p ** shadow.map.source.arity + p ** shadow.map.target.arity
    return work


def _image_check(shadow, cfg: FpConfig) -> tuple:
    p = cfg.p
    arity = shadow.map.target.arity
    image = set(enumerate_image(shadow.map, shadow.domain, cfg).points)
    predicted = set(_points("predicted", p, arity, _set_source(shadow.predicted, p)))
    mismatched = image ^ predicted
    total = p**arity
    detail = (
        f"{total - len(mismatched)}/{total} points agree; enumerated image has "
        f"{len(image)} points; predicted set has {len(predicted)}"
    )
    if mismatched:
        # enumeration is lexicographic, so the least mismatch comes first
        q = min(mismatched)
        detail += (
            f"; first mismatch at {q}: enumerated={'in' if q in image else 'out'}, "
            f"predicted={'in' if q in predicted else 'out'}"
        )
    return not mismatched, detail


def _census_check(shadow, cfg: FpConfig) -> tuple:
    p = cfg.p
    census = enumerate_orbits(shadow.action, cfg, shadow.domain, shadow.fixed_stratum)
    want_points, want_orbits, want_sizes = shadow.expected(p)
    want_sizes = dict(sorted(want_sizes.items()))
    shape_ok = (
        census.point_count == want_points
        and census.orbit_count == want_orbits
        and census.sizes == want_sizes
    )
    # the declared stratum must be exactly the enumerated fixed points;
    # both come out in the sorted enumeration order
    fixed_ok = census.stratum_points == census.fixed_points
    partition_ok = (
        sum(size * count for size, count in census.sizes.items())
        == census.point_count
    )
    divides_ok = all(
        census.group_order % size == 0 for size in census.sizes
    )
    ok = shape_ok and fixed_ok and partition_ok and divides_ok
    detail = (
        f"{census.point_count} points, {census.orbit_count} orbits, sizes "
        f"{census.sizes}; expected ({want_points}, {want_orbits}, "
        f"{want_sizes}); fixed points match declared stratum: {fixed_ok}; "
        f"sizes sum to the point count: {partition_ok}; every size divides "
        f"the group order {census.group_order}: {divides_ok}"
    )
    return ok, detail


def cross_check(name: str, cfg: FpConfig) -> Report:
    """Run the finite-field shadows a scenario declares, at one prime."""
    spec = _scenarios.get_scenario(name)
    if not spec.shadows:
        raise ValueError(f"scenario {name!r} declares no finite-field shadows")
    p = cfg.p
    checks = []
    for shadow in spec.shadows:
        if not _runs_at(shadow, p):
            status, kind = "skip", KIND_BY_REPRESENTATION
            detail = f"shadow declared only for primes {shadow.primes}; skipped at p={p}"
        else:
            if isinstance(shadow, _scenarios.ImageShadow):
                ok, detail = _image_check(shadow, cfg)
            elif isinstance(shadow, _scenarios.CensusShadow):
                ok, detail = _census_check(shadow, cfg)
            else:
                raise TypeError(f"unknown shadow type {type(shadow).__name__}")
            status, kind = ("pass" if ok else "fail"), KIND_VERIFIED
        checks.append(
            CheckResult(
                id=f"{shadow.id}-p{p}", status=status, kind=kind, detail=detail, claim=shadow.claim
            )
        )
    return Report(scenario=spec.name, checks=tuple(checks))
