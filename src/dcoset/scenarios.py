"""Executable verification scenarios for quotients of affine spaces by
polynomial group actions.

Four scenarios are registered, each bundling rings, actions, maps and
constructible sets with an ordered list of checks:

* ``background``: the row-shear action of a one-parameter unipotent group
  on 2x2 matrices, its invariants (a21, a22, det), and the constructible
  but non-open, non-closed image of the invariant map.
* ``example1``: the same engine packaged as a double-coset computation:
  a 5-parameter unitriangular group, the stabilizer of a distinguished
  4x2 matrix, and transport of the residual action to the top-block chart.
* ``example2``: a torus-scaling reduction: 4x2 matrices with nonzero
  columns project onto their top blocks, with the scaling limit point and
  density/openness premises checked symbolically.
* ``example3``: the isotropic shear on a quadric cone: quotient candidate
  assembled from two projective charts, incidence with the blown-up plane,
  and the collapse of distinct fixed orbits.

Every scenario also ships a ``<name>-mutated`` negative control that must
fail exactly one named check, and declares finite-field shadows consumed
by the brute-force oracle.  Checks come in three kinds: ``verified``
(recomputed here), ``by-criterion`` (conclusion lines justified by earlier
checks plus a quoted criterion), and ``by-representation`` (facts read off
a declared encoding).  The last two are declared: they carry their
justification as data and pass by declaration.

Each check is declared once, where it is computed, and a report lists
the checks in declaration order.  A verified check is its computation
decorated with ``@checks.verified(id, claim)``; a declared check is one
call, ``checks.declared(kind, id, claim, detail)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from .polyring import (
    RingCtx,
    evaluate,
    extend_ring,
    format_poly,
    lift,
    substitute,
)
from .groebner import (
    Ideal,
    equal_ideals,
    groebner_basis,
    ideal_member,
    ideal_product,
    ideal_sum,
    lift_ideal,
    radical_member,
)
from .geometry import (
    ConstructibleSet,
    closure,
    contains,
    contains_point,
    difference,
    is_empty,
    is_open_in,
    locally_closed,
    same_set,
    union,
    vanishing,
    whole_space,
)
from .morphism import (
    PolyMap,
    ProjectivePairPredicate,
    SectionSpec,
    check_consistent_on_overlap,
    image_closure,
    incidence_ok,
    parametric_image_constraints,
    point_in_image,
    proj_equal,
    verify_section,
)
from .action import (
    GroupActionSpec,
    base_in_all_orbit_closures,
    check_invariant,
    fixed_stratum_check,
    generic_orbit_closure,
    separation_report,
    separation_report_with,
)
from .report import (
    KIND_BY_CRITERION,
    KIND_BY_REPRESENTATION,
    KIND_VERIFIED,
    CheckResult,
    Report,
)

__all__ = [
    "Check",
    "ScenarioSpec",
    "ImageShadow",
    "CensusShadow",
    "get_scenario",
    "run_scenario",
    "scenario_names",
]


@dataclass(frozen=True)
class Check:
    """One verification step: id, how it concludes, what it certifies.

    A ``verified`` check recomputes its claim: ``run()`` returns (passed,
    detail), and passed is tested for truth.  Every other kind is declared:
    it has no ``run``, and ``detail`` says what the declaration rests on."""

    id: str
    kind: str
    claim: str
    run: Callable | None = None
    detail: str = ""

    def __post_init__(self):
        if (self.run is None) == (self.kind == KIND_VERIFIED):
            need = "a run" if self.kind == KIND_VERIFIED else "no run"
            raise ValueError(f"check {self.id!r} of kind {self.kind} needs {need}")


class _Checks(list):
    """A scenario's checks in report order, each appended where it is
    declared."""

    def verified(self, id: str, claim: str) -> Callable:
        """Decorator: the function computes (passed, detail) for the claim."""

        def declare(run: Callable) -> Callable:
            self.append(Check(id, KIND_VERIFIED, claim, run))
            return run

        return declare

    def declared(self, kind: str, id: str, claim: str, detail: str) -> None:
        self.append(Check(id, kind, claim, detail=detail))


@dataclass(frozen=True)
class ImageShadow:
    """Finite-field shadow of an image claim: enumerate f(domain) over F_p
    and compare pointwise with the predicted membership predicate.  Only
    declared for claims whose proof is field-independent."""

    id: str
    claim: str
    map: PolyMap
    domain: ConstructibleSet
    predicted: ConstructibleSet
    primes: tuple | None = None  # None: any prime passes the guard


@dataclass(frozen=True)
class CensusShadow:
    """Finite-field shadow of orbit structure: enumerate the orbit
    partition over F_p and compare against closed-form expectations plus
    the declared fixed stratum."""

    id: str
    claim: str
    action: GroupActionSpec
    domain: ConstructibleSet | None  # None: the whole space
    fixed_stratum: ConstructibleSet
    expected: Callable  # p -> (point count, orbit count, {size: count})
    primes: tuple | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    summary: str
    checks: tuple
    shadows: tuple = ()
    negative_control: bool = False
    targeted_check: str | None = None  # the one check a mutation must break


def _polys(gens) -> str:
    return "[" + ", ".join(format_poly(g) for g in gens) + "]"


# ---------------------------------------------------------------------------
# the group actions the scenarios study; the CLI's orbit verb offers them too


def row_shear_action() -> GroupActionSpec:
    """Add lam times the bottom row to the top row of a 2x2 matrix."""
    M = RingCtx(("a11", "a12", "a21", "a22"))
    C = extend_ring(M, ("lam",))
    a11, a12, a21, a22, lam = C.gens()
    return GroupActionSpec(
        space=M,
        params=("lam",),
        constraint=Ideal(RingCtx(("lam",)), []),
        action=(a11 + lam * a21, a12 + lam * a22, a21, a22),
        identity={"lam": 0},
    )


def scaling_action() -> GroupActionSpec:
    """The torus s (with s*u = 1) scaling every entry of a 2x2 matrix."""
    M = RingCtx(("m11", "m12", "m21", "m22"))
    C = extend_ring(M, ("s", "u"))
    P = RingCtx(("s", "u"))
    s = C.gen("s")
    return GroupActionSpec(
        space=M,
        params=("s", "u"),
        constraint=Ideal(P, [P.gen("s") * P.gen("u") - 1]),
        action=tuple(s * C.gen(v) for v in M.vars),
        identity={"s": 1, "u": 1},
    )


def isotropic_shear_action() -> GroupActionSpec:
    """(x1, x2, x3, x4) -> (x1 + a*x2, x2, x3 - a*x4, x4), which preserves
    the cone x1*x4 + x2*x3 = 0."""
    X = RingCtx(("x1", "x2", "x3", "x4"))
    C = extend_ring(X, ("a",))
    x1, x2, x3, x4, a = C.gens()
    return GroupActionSpec(
        space=X,
        params=("a",),
        constraint=Ideal(RingCtx(("a",)), []),
        action=(x1 + a * x2, x2, x3 - a * x4, x4),
        identity={"a": 0},
    )


# ---------------------------------------------------------------------------
# shared engine: row-shear action on 2x2 matrices and its invariant map


def _row_shear_checks(checks: _Checks, mutated: bool) -> tuple:
    """Declare the row-shear checks on ``checks``.  Returns the action, the
    invariant map (a21, a22, det), its predicted image and the orbit-census
    shadow."""
    shear = row_shear_action()
    M = shear.space
    a11, a12, a21, a22 = M.gens()
    det = a11 * a22 - a12 * a21

    T = RingCtx(("b1", "b2", "d"))
    b1, b2, d = T.gens()
    inv_map = PolyMap(M, T, (a21, a22, det))

    # predicted image: the whole target minus the punctured line b=0, d != 0
    predicted = difference(whole_space(T), locally_closed(Ideal(T, [b1, b2]), Ideal(T, [d])))

    # the negative control swaps det for a11 in the declared invariant list
    # only; downstream objects keep the true map so exactly one check breaks
    declared_invariants = (a21, a22, a11 if mutated else det)

    @checks.verified(
        "invariants-constant-on-orbits",
        "The bottom-row entries and the determinant are constant on "
        "orbits of the row-shear action.",
    )
    def _():
        results = [(g, check_invariant(shear, g)) for g in declared_invariants]
        detail = "; ".join(
            f"{format_poly(g)}: {'invariant' if ok else 'NOT invariant'}"
            for g, ok in results
        )
        return all(ok for _, ok in results), detail

    @checks.verified(
        "image-closure-full-space",
        "The closure of the image of the invariant map (a21, a22, det) "
        "is the whole affine 3-space.",
    )
    def _():
        cl = image_closure(inv_map, whole_space(M))
        return (
            cl.is_zero_ideal(),
            f"closure ideal of the image: {_polys(cl.generators) if cl.generators else '(0)'}",
        )

    @checks.verified(
        "stratum-constraints-punctured-line",
        "Over the stratum b1 = b2 = 0, image points satisfy exactly one "
        "new constraint: d = 0.",
    )
    def _():
        stratum = Ideal(T, [b1, b2])
        constraints = parametric_image_constraints(inv_map, whole_space(M), stratum)
        want = Ideal(T, [d])
        return (
            equal_ideals(constraints, want),
            f"constraints beyond the stratum: {_polys(constraints.generators)}",
        )

    @checks.verified(
        "punctured-line-excluded",
        "Points (0, 0, d) with d != 0 are not attained: a matrix with "
        "zero bottom row has zero determinant; the origin is attained.",
    )
    def _():
        misses = [(0, 0, 1), (0, 0, -2)]
        hit_origin = point_in_image(inv_map, whole_space(M), (0, 0, 0))
        miss_ok = [not point_in_image(inv_map, whole_space(M), q) for q in misses]
        detail = (
            "fibers over (0,0,1) and (0,0,-2) are empty; fiber over the origin is not"
        )
        return all(miss_ok) and hit_origin, detail

    @checks.verified(
        "image-matches-constructible-description",
        "The image equals the whole target minus the punctured line "
        "{b1 = b2 = 0, d != 0}: explicit sections cover every predicted "
        "point.",
    )
    def _():
        W4 = RingCtx(("b1", "b2", "d", "w"))
        wb1, wb2, wd, ww = W4.gens()
        zero4 = Ideal(W4, [])
        dom = whole_space(M)

        sec1 = SectionSpec(
            stratum=locally_closed(zero4, Ideal(W4, [wb1])),
            section=PolyMap(W4, M, (W4.zero(), -wd * ww, wb1, wb2)),
            witnesses=((ww, wb1),),
        )
        sec2 = SectionSpec(
            stratum=locally_closed(zero4, Ideal(W4, [wb2])),
            section=PolyMap(W4, M, (wd * ww, W4.zero(), wb1, wb2)),
            witnesses=((ww, wb2),),
        )
        sec0 = SectionSpec(
            stratum=vanishing(Ideal(T, [b1, b2, d])),
            section=PolyMap(T, M, (T.zero(), T.zero(), T.zero(), T.zero())),
        )
        ok1 = verify_section(inv_map, dom, sec1)
        ok2 = verify_section(inv_map, dom, sec2)
        ok0 = verify_section(inv_map, dom, sec0)

        covered = union(
            union(
                locally_closed(Ideal(T, []), Ideal(T, [b1])),
                locally_closed(Ideal(T, []), Ideal(T, [b2])),
            ),
            vanishing(Ideal(T, [b1, b2, d])),
        )
        cover_ok = same_set(covered, predicted)
        detail = (
            f"sections over b1 != 0 ({'ok' if ok1 else 'fail'}), "
            f"b2 != 0 ({'ok' if ok2 else 'fail'}), "
            f"origin ({'ok' if ok0 else 'fail'}); "
            f"strata cover the predicted set: {cover_ok}"
        )
        return ok1 and ok2 and ok0 and cover_ok, detail

    @checks.verified(
        "image-not-closed",
        "The image is not closed: its Zariski closure adds the "
        "punctured line back.",
    )
    def _():
        full = closure(predicted).is_zero_ideal()
        proper = not is_empty(difference(whole_space(T), predicted))
        return (
            full and proper,
            "closure of the image is the whole target, yet the image misses the punctured line",
        )

    @checks.verified("image-not-open", "The image is not open in the target space.")
    def _():
        open_ = is_open_in(predicted, whole_space(T))
        return not open_, f"is_open_in(image, target) = {open_}"

    @checks.verified(
        "fixed-stratum-collapse",
        "Matrices with zero bottom row are fixed points and are all "
        "mapped to the origin of the invariant space.",
    )
    def _():
        stratum_ideal = Ideal(M, [a21, a22])
        fixed_ok = fixed_stratum_check(shear, vanishing(stratum_ideal))
        to_origin = all(ideal_member(c, stratum_ideal) for c in inv_map.coords)
        return (
            fixed_ok and to_origin,
            "zero-bottom-row matrices are pointwise fixed; all invariant "
            "coordinates reduce to 0 on the stratum",
        )

    @checks.verified(
        "separation-trichotomy",
        "Invariant values separate generic orbits but collapse the "
        "fixed stratum: distinct fixed points share the value (0,0,0).",
    )
    def _():
        pairs = [
            ((0, 0, 1, 1), (3, 3, 1, 1)),
            ((0, 0, 1, 0), (0, 0, 0, 1)),
            ((1, 0, 0, 0), (0, 1, 0, 0)),
        ]
        verdicts = separation_report(shear, inv_map, pairs)
        detail = "; ".join(v.describe() for v in verdicts)
        want = ["same-orbit", "separated", "collapsed"]
        return [v.verdict for v in verdicts] == want, detail

    checks.declared(
        KIND_BY_CRITERION,
        "constructible-quotient-conclusion",
        "The orbit-space candidate is constructible but neither open "
        "nor closed, so it is not realized by any subvariety of the "
        "invariant space; the quotient exists only constructibly.",
        "criterion: a candidate orbit space realizable as a variety must "
        "be open or closed in the target; the image is neither (see "
        "image-not-open, image-not-closed) but is a finite union of "
        "locally closed pieces",
    )

    def expected(p: int):
        fixed = p * p
        moving = (p**4 - p * p) // p
        return (p**4, fixed + moving, {1: fixed, p: moving})

    census = CensusShadow(
        id="orbit-census",
        claim="Orbits of the row-shear action over a finite field partition "
        "the matrix space into fixed points (zero bottom row) and free "
        "orbits of size p; the partition is field-independent in shape.",
        action=shear,
        domain=None,
        fixed_stratum=vanishing(Ideal(M, [a21, a22])),
        expected=expected,
    )
    return shear, inv_map, predicted, census


def build_background(mutated: bool = False) -> ScenarioSpec:
    checks = _Checks()
    census = _row_shear_checks(checks, mutated)[-1]
    return ScenarioSpec(
        name="background",
        summary="Row-shear action on 2x2 matrices: invariants, orbit "
        "structure, and the constructible non-open non-closed image of the "
        "invariant map.",
        checks=tuple(checks),
        shadows=(census,),
    )


# ---------------------------------------------------------------------------
# example1: the double-coset packaging of the shear engine


def _matmul(rows_a, rows_b):
    n = len(rows_b)
    out = []
    for row in rows_a:
        assert len(row) == n
        out_row = []
        for j in range(len(rows_b[0])):
            acc = None
            for k in range(n):
                term = row[k] * rows_b[k][j]
                acc = term if acc is None else acc + term
            out_row.append(acc)
        out.append(out_row)
    return out


def build_example1(mutated: bool = False) -> ScenarioSpec:
    checks = _Checks()
    shear, inv_map, predicted, census = _row_shear_checks(checks, mutated)

    # 5-parameter unitriangular 4x4 group (the (3,4) slot is absent) acting
    # on 4x2 matrices by left multiplication; distinguished matrix has zero
    # top block and identity bottom block
    G = RingCtx(("g12", "g13", "g14", "g23", "g24"))
    g12, g13, g14, g23, g24 = G.gens()
    one, zero = G.one(), G.zero()
    g_mat = [
        [one, g12, g13, g14],
        [zero, one, g23, g24],
        [zero, zero, one, zero],
        [zero, zero, zero, one],
    ]
    m_mat = [
        [zero, zero],
        [zero, zero],
        [one, zero],
        [zero, one],
    ]

    @checks.verified(
        "stabilizer-is-shear-group",
        "Inside the 5-parameter unitriangular group, the stabilizer of "
        "the distinguished 4x2 matrix is cut out by g13 = g14 = g23 = "
        "g24 = 0, leaving exactly the one-parameter shear subgroup.",
    )
    def _():
        gm = _matmul(g_mat, m_mat)
        diff_entries = [
            gm[i][j] - m_mat[i][j] for i in range(4) for j in range(2)
        ]
        stab = Ideal(G, diff_entries)
        want = Ideal(G, [g13, g14, g23, g24])
        exact = equal_ideals(stab, want)
        free = not radical_member(g12, want)
        return (
            exact and free,
            f"stabilizer ideal: {_polys(groebner_basis(stab))}; "
            f"g12 remains free: {free}",
        )

    @checks.verified(
        "coset-transport-matches-shear",
        "Left multiplication by the one-parameter subgroup preserves "
        "the identity-bottom chart and acts on top rows exactly as the "
        "row-shear action.",
    )
    def _():
        T = RingCtx(("lam", "r11", "r12", "r21", "r22"))
        lam, r11, r12, r21, r22 = T.gens()
        tone, tzero = T.one(), T.zero()
        u_mat = [
            [tone, lam, tzero, tzero],
            [tzero, tone, tzero, tzero],
            [tzero, tzero, tone, tzero],
            [tzero, tzero, tzero, tone],
        ]
        r_mat = [
            [r11, r12],
            [r21, r22],
            [tone, tzero],
            [tzero, tone],
        ]
        prod = _matmul(u_mat, r_mat)
        chart_ok = (
            prod[2][0] == 1
            and prod[2][1] == 0
            and prod[3][0] == 0
            and prod[3][1] == 1
        )
        rename = {"a11": r11, "a12": r12, "a21": r21, "a22": r22, "lam": lam}
        shear_polys = [substitute(a, rename, into=T) for a in shear.action]
        top_ok = (
            prod[0][0] == shear_polys[0]
            and prod[0][1] == shear_polys[1]
            and prod[1][0] == shear_polys[2]
            and prod[1][1] == shear_polys[3]
        )
        return (
            chart_ok and top_ok,
            "bottom block stays the identity; top rows transform as "
            f"({format_poly(prod[0][0])}, {format_poly(prod[0][1])})",
        )

    checks.declared(
        KIND_BY_REPRESENTATION,
        "coset-reduction-declared",
        "The chart of identity-bottom representatives identifies the "
        "coset space with the space of 2x2 top blocks; the quotient "
        "question reduces to the row-shear analysis.",
        "declared chart: representatives with identity bottom block are "
        "parametrized by their 2x2 top block; the residual action is "
        "the row-shear action checked above",
    )

    if mutated:
        # oracle negative control: pretend the image is everything
        predicted = whole_space(inv_map.target)
    image_shadow = ImageShadow(
        id="image-agreement",
        claim="Membership in the image of the invariant map is "
        "field-independent: the fiber system (bottom row fixed, determinant "
        "fixed) is linear in the top row, solvable over any field exactly "
        "off the punctured line.",
        map=inv_map,
        domain=whole_space(inv_map.source),
        predicted=predicted,
    )
    return ScenarioSpec(
        name="example1",
        summary="Double-coset packaging of the row-shear engine: stabilizer "
        "computation, chart transport, and the constructible quotient of "
        "the top-block space.",
        checks=tuple(checks),
        shadows=(image_shadow, census),
    )


# ---------------------------------------------------------------------------
# example2: scaling reduction for 4x2 matrices with nonzero columns


def build_example2(mutated: bool = False) -> ScenarioSpec:
    checks = _Checks()
    # space of 4x2 matrices; rows 1,2 are the top block, rows 3,4 the bottom
    W8 = RingCtx(("w11", "w12", "w21", "w22", "w31", "w32", "w41", "w42"))
    w11, w12, w21, w22, w31, w32, w41, w42 = W8.gens()
    col1 = Ideal(W8, [w11, w21, w31, w41])
    col2 = Ideal(W8, [w12, w22, w32, w42])
    admissible = locally_closed(Ideal(W8, []), ideal_product(col1, col2))

    top_ring = RingCtx(("x11", "x12", "x21", "x22"))
    x11, x12, x21, x22 = top_ring.gens()
    pr = PolyMap(W8, top_ring, (w11, w12, w21, w22))

    # good top blocks: both top columns nonzero
    top_col1 = Ideal(top_ring, [x11, x21])
    top_col2 = Ideal(top_ring, [x12, x22])
    good_tops = locally_closed(Ideal(top_ring, []), ideal_product(top_col1, top_col2))
    # the same condition read inside the 8-dim space, bottoms unconstrained
    c1t = Ideal(W8, [w11, w21])
    c2t = Ideal(W8, [w12, w22])
    good_pairs = locally_closed(Ideal(W8, []), ideal_product(c1t, c2t))

    # combined group: shear of row 1 by row 2, torus scaling rows 3 and 4
    WC = extend_ring(W8, ("a", "s", "u"))
    cw = {v: WC.gen(v) for v in WC.vars}
    P = RingCtx(("a", "s", "u"))
    full_action = GroupActionSpec(
        space=W8,
        params=P.vars,
        constraint=Ideal(P, [P.gen("s") * P.gen("u") - 1]),
        action=(
            cw["w11"] + cw["a"] * cw["w21"],
            cw["w12"] + cw["a"] * cw["w22"],
            cw["w21"],
            cw["w22"],
            cw["s"] * cw["w31"],
            cw["s"] * cw["w32"],
            cw["s"] * cw["w41"],
            cw["s"] * cw["w42"],
        ),
        identity={"a": 0, "s": 1, "u": 1},
    )

    # abstract scaling action on a 4-dim bottom-block space
    scaling = scaling_action()

    base_point = (1, 0, 0, 0) if mutated else (0, 0, 0, 0)

    @checks.verified(
        "scaling-limit-point",
        "The zero matrix lies in the closure of every orbit of the "
        "bottom-block scaling action, verified with a fully symbolic "
        "start point.",
    )
    def _():
        ok = base_in_all_orbit_closures(scaling, base_point)
        return (
            ok,
            f"start point {base_point}: contained in every orbit closure of "
            f"the scaling action = {ok}",
        )

    @checks.verified(
        "scaling-orbit-closure-line",
        "Eliminating the scale from the graph of the scaling action "
        "yields exactly the 2x2 minors tying a point to its image: "
        "orbit closures are lines through the origin.",
    )
    def _():
        E = generic_orbit_closure(scaling)
        ms = [E.ring.gen(v) for v in scaling.space.vars]
        starts = [E.ring.gen(f"{v}_0") for v in scaling.space.vars]
        minors = [
            ms[i] * starts[j] - ms[j] * starts[i]
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        ok = equal_ideals(E, Ideal(E.ring, minors))
        return (
            ok,
            f"eliminated ideal has {len(E.generators)} generators and "
            f"equals the ideal of 2x2 minors pairing a point with its image",
        )

    checks.declared(
        KIND_BY_REPRESENTATION,
        "column-condition-encoded",
        "The admissible 4x2 matrices are those with both columns "
        "nonzero, encoded as the complement of two closed column loci; "
        "in particular the set is open by construction.",
        "admissible matrices are encoded as the complement of the union "
        "of V(column 1) and V(column 2): one locally closed piece whose "
        "excluded ideal is the product of the two column ideals",
    )

    @checks.verified(
        "good-tops-times-bottoms-inside",
        "Every matrix whose top block has two nonzero columns is "
        "admissible, whatever its bottom block.",
    )
    def _():
        ok = contains(admissible, good_pairs)
        return ok, f"contains(admissible, good-tops x bottoms) = {ok}"

    @checks.verified(
        "good-top-locus-dense",
        "Top blocks with two nonzero columns are dense in the top-block "
        "space.",
    )
    def _():
        ok = closure(good_tops).is_zero_ideal()
        return ok, "closure of the good top-block locus is the whole space"

    @checks.verified(
        "good-top-locus-open",
        "Top blocks with two nonzero columns form an open subset of the "
        "top-block space.",
    )
    def _():
        ok = is_open_in(good_tops, whole_space(top_ring))
        return ok, f"is_open_in(good tops, top space) = {ok}"

    @checks.verified(
        "admissible-set-stable",
        "The admissible set is preserved by the combined shear and "
        "scaling action.",
    )
    def _():
        big, cons = full_action.combined, full_action.constraint_in_combined
        ok = True
        for colideal in (col1, col2):
            target = ideal_sum(lift_ideal(colideal, big), cons)
            for g in colideal.generators:
                if not ideal_member(full_action.pullback(g), target):
                    ok = False
        return (
            ok,
            "each column-vanishing locus is carried into itself by the "
            "group, so the admissible complement is preserved",
        )

    @checks.verified(
        "projection-onto-top-block",
        "Projection of the admissible set onto the top block is onto: "
        "the parametric constraint ideal is zero and the zero top block "
        "is attained.",
    )
    def _():
        constraints = parametric_image_constraints(
            pr, admissible, Ideal(top_ring, [])
        )
        zero_ok = constraints.is_zero_ideal()
        worst = point_in_image(pr, admissible, (0, 0, 0, 0))
        return (
            zero_ok and worst,
            f"parametric constraint ideal: "
            f"{_polys(constraints.generators) if constraints.generators else '(0)'}; "
            f"zero top block attained: {worst}",
        )

    checks.declared(
        KIND_BY_CRITERION,
        "scaling-reduction-chain",
        "With the verified premises, the quotient computation reduces "
        "first along the scaling factor and then to the row-shear "
        "analysis of top blocks.",
        "criterion: with the limit point in every scaling-orbit closure, "
        "a stable admissible set, and the projection onto the top block "
        "surjective, the quotient analysis reduces along the scaling "
        "factor to the row-shear engine on top blocks",
    )

    image_shadow = ImageShadow(
        id="projection-agreement",
        claim="Surjectivity of the top-block projection from admissible "
        "matrices is field-independent: bottom entries can always fill a "
        "zero column.",
        map=pr,
        domain=admissible,
        predicted=whole_space(top_ring),
        primes=(3,),
    )
    return ScenarioSpec(
        name="example2",
        summary="Scaling reduction: 4x2 matrices with nonzero columns, "
        "their projection onto top blocks, and the limit point premise for "
        "the scaling factor.",
        checks=tuple(checks),
        shadows=(image_shadow,),
    )


# ---------------------------------------------------------------------------
# example3: isotropic shear on a quadric cone and the blown-up plane


def build_example3(mutated: bool = False) -> ScenarioSpec:
    checks = _Checks()
    act = isotropic_shear_action()
    X4 = act.space
    x1, x2, x3, x4 = X4.gens()
    cone_poly = x1 * x4 + x2 * x3
    cone_ideal = Ideal(X4, [cone_poly])
    origin = Ideal(X4, [x1, x2, x3, x4])
    cone = vanishing(cone_ideal)
    punctured_cone = locally_closed(cone_ideal, origin)

    B2 = RingCtx(("b2", "b4"))
    b2, b4 = B2.gens()
    proj = PolyMap(X4, B2, (x2, x4))

    pred = ProjectivePairPredicate(X4, (x1, -x3), (x2, x4))

    @checks.verified(
        "base-space-nonempty",
        "The cone x1*x4 + x2*x3 = 0 minus the origin is nonempty.",
    )
    def _():
        ok = not is_empty(punctured_cone)
        witness = contains_point(punctured_cone, (0, 1, 0, 0))
        return ok and witness, "witness point (0, 1, 0, 0) lies on the punctured cone"

    @checks.verified(
        "base-invariants",
        "The coordinates x2 and x4 are constant on orbits of the "
        "isotropic shear.",
    )
    def _():
        ok2 = check_invariant(act, x2)
        ok4 = check_invariant(act, x4)
        return ok2 and ok4, f"x2 invariant: {ok2}; x4 invariant: {ok4}"

    @checks.verified(
        "cone-preserved",
        "The cone equation is invariant and the origin is fixed, so "
        "the punctured cone is preserved by the action.",
    )
    def _():
        inv = check_invariant(act, cone_poly)
        fixes_origin = act.act_on_point((5,), (0, 0, 0, 0)) == (0, 0, 0, 0)
        return (
            inv and fixes_origin,
            "the cone equation is invariant and the origin is fixed, so the "
            "punctured cone is preserved",
        )

    @checks.verified(
        "orbit-normal-form",
        "On each chart x2 != 0, x4 != 0 an explicit group element moves "
        "any cone point to the slice (0, x2, 0, x4).",
    )
    def _():
        # on the chart x2 != 0 the element a = -x1/x2, on x4 != 0 the element
        # a = x3/x4, sends the point to (0, x2, 0, x4); w inverts the chart
        R5 = extend_ring(X4, ("w",))
        r1, r2, r3, r4, rw = R5.gens()
        ok = True
        for unit, a_val in ((r2, -r1 * rw), (r4, r3 * rw)):
            chart = Ideal(R5, [lift(cone_poly, R5), rw * unit - 1])
            moved = (r1 + a_val * r2, r3 - a_val * r4)
            ok &= all(ideal_member(m, chart) for m in moved)
        return (
            ok,
            "on each unit chart an explicit group element kills x1 and x3 "
            "simultaneously, reaching the normal form (0, x2, 0, x4)",
        )

    @checks.verified(
        "fixed-plane-pointwise",
        "Every point with x2 = x4 = 0 is fixed by the whole group.",
    )
    def _():
        ok = fixed_stratum_check(act, vanishing(Ideal(X4, [x2, x4])))
        return ok, "action polynomials reduce to the coordinates on x2 = x4 = 0"

    @checks.verified(
        "projection-onto-base",
        "The projection to (x2, x4) maps the punctured cone onto the "
        "whole plane.",
    )
    def _():
        full = image_closure(proj, punctured_cone).is_zero_ideal()
        over_origin = point_in_image(proj, punctured_cone, (0, 0))
        return (
            full and over_origin,
            f"image closure is the whole plane: {full}; fiber over the "
            f"origin nonempty: {over_origin}",
        )

    third_slot = B2.one() if mutated else B2.zero()

    @checks.verified(
        "section-zero-slice",
        "The slice (0, b2, 0, b4) is a polynomial section of the "
        "projection over the entire plane, landing inside the cone.",
    )
    def _():
        sec = SectionSpec(
            stratum=whole_space(B2),
            section=PolyMap(B2, X4, (B2.zero(), b2, third_slot, b4)),
        )
        ok = verify_section(proj, cone, sec)
        return ok, f"section (0, b2, {format_poly(third_slot)}, b4) into the cone: {ok}"

    @checks.verified(
        "section-punctured-chart",
        "Restricted to the punctured plane, the same slice lands in "
        "the punctured cone.",
    )
    def _():
        sec = SectionSpec(
            stratum=locally_closed(Ideal(B2, []), Ideal(B2, [b2, b4])),
            section=PolyMap(B2, X4, (B2.zero(), b2, B2.zero(), b4)),
        )
        ok = verify_section(proj, punctured_cone, sec)
        return ok, f"section over the punctured plane lands in the punctured cone: {ok}"

    @checks.verified(
        "pair-consistent-on-cone",
        "The pairs (x1 : -x3) and (x2 : x4) agree as projective values "
        "on the cone: their cross product is the cone equation.",
    )
    def _():
        ok = check_consistent_on_overlap(pred, cone)
        swapped = ProjectivePairPredicate(X4, (x2, x4), (x1, -x3))
        ok2 = check_consistent_on_overlap(swapped, cone)
        return (
            ok and ok2,
            "cross product of the two pairs is the cone equation, a member "
            "of the cone ideal (checked with either pair preferred)",
        )

    @checks.verified(
        "pair-orbit-constant",
        "Both coordinate pairs are constant along orbits up to scale, "
        "so the projective value descends to orbits.",
    )
    def _():
        big = act.combined
        cross_pref = act.pullback(x1) * lift(-x3, big) - act.pullback(-x3) * lift(x1, big)
        cross_fall = act.pullback(x2) * lift(x4, big) - act.pullback(x4) * lift(x2, big)
        ideal_big = Ideal(big, [lift(cone_poly, big)])
        ok = ideal_member(cross_pref, ideal_big) and cross_fall.is_zero()
        return (
            ok,
            "moving a point along the group changes the preferred pair by a "
            "multiple of the cone equation; the fallback pair is unchanged",
        )

    @checks.verified(
        "blowup-incidence-symbolic",
        "Base point and projective value of any cone point satisfy the "
        "incidence equation of the blown-up plane.",
    )
    def _():
        lhs = x2 * (-x3) - x4 * x1
        ok = ideal_member(lhs, cone_ideal)
        return (
            ok,
            f"b2*v - b4*u pulled back along the preferred pair is "
            f"{format_poly(lhs)}, a member of the cone ideal",
        )

    @checks.verified(
        "blowup-incidence-sampled",
        "Fifty pseudorandom cone points all satisfy the incidence "
        "equation numerically.",
    )
    def _():
        rng = random.Random(20260822)
        pts = []
        while len(pts) < 35:
            t = rng.randint(-9, 9)
            u2 = rng.randint(-9, 9)
            u4 = rng.randint(-9, 9)
            if u2 == 0 and u4 == 0:
                continue
            pts.append((t * u2, u2, -t * u4, u4))
        while len(pts) < 50:
            u = rng.randint(-9, 9)
            v = rng.randint(-9, 9)
            if u == 0 and v == 0:
                continue
            pts.append((u, 0, -v, 0))
        good = 0
        for pt in pts:
            if evaluate(cone_poly, pt) == 0 and incidence_ok(pred, (x2, x4), pt):
                good += 1
        return good == 50, f"{good}/50 sampled cone points satisfy the incidence equation"

    @checks.verified(
        "separation-trichotomy",
        "The candidate value separates generic orbits, but the distinct "
        "fixed points (1,0,2,0) and (3,0,6,0) receive the same value.",
    )
    def _():
        pairs = [
            ((1, 0, 2, 0), (3, 0, 6, 0)),
            ((1, 0, 2, 0), (2, 0, 1, 0)),
            ((1, 1, -1, 1), (0, 1, 0, 1)),
            ((0, 1, 0, 1), (0, 1, 0, 2)),
            ((2, 1, -2, 1), (-3, 1, 3, 1)),
        ]
        verdicts = separation_report_with(
            act, pairs, lambda p, q: proj_equal(pred, p, q) and proj.apply(p) == proj.apply(q)
        )
        want = ["collapsed", "separated", "same-orbit", "separated", "same-orbit"]
        detail = "; ".join(v.describe() for v in verdicts)
        return [v.verdict for v in verdicts] == want, detail

    @checks.verified(
        "exceptional-fiber-hit",
        "Over the origin the fiber consists of fixed points "
        "(u, 0, -v, 0) realizing every projective value of the "
        "exceptional line.",
    )
    def _():
        params = [(1, 0), (0, 1), (1, 1), (2, 3), (-1, 2)]
        pts = [(u, 0, -v, 0) for u, v in params]
        on_fiber = all(
            contains_point(punctured_cone, pt) and proj.apply(pt) == (0, 0)
            for pt in pts
        )
        values = [pred.value_at(pt) for pt in pts]
        expected = params
        values_ok = values == expected
        distinct = all(
            values[i][0] * values[j][1] - values[j][0] * values[i][1] != 0
            for i in range(len(values))
            for j in range(i + 1, len(values))
        )
        return (
            on_fiber and values_ok and distinct,
            "witness family (u, 0, -v, 0) sits over the origin and realizes "
            "5 pairwise distinct projective values",
        )

    checks.declared(
        KIND_BY_REPRESENTATION,
        "quotient-target-described",
        "The comparison target is the incidence surface of the plane "
        "blown up at the origin.",
        "comparison target: the incidence surface {((b2, b4), (u : v)) "
        ": b2*v = b4*u}, the plane blown up at the origin, with values "
        "assembled from the two charts",
    )
    checks.declared(
        KIND_BY_CRITERION,
        "blowup-collapse-conclusion",
        "A map constant on orbits that identifies two distinct closed "
        "orbits admits no geometric quotient structure; the blow-up "
        "candidate works only constructibly.",
        "criterion: a quotient map must separate closed orbits; the "
        "separation check shows two distinct fixed orbits share one "
        "value, so the blow-up candidate is only a constructible "
        "quotient",
    )

    def census_expected(p: int):
        points = p**3 + p**2 - p - 1
        fixed = p * p - 1
        moving = (points - fixed) // p
        return (points, fixed + moving, {1: fixed, p: moving})

    census = CensusShadow(
        id="orbit-census",
        claim="Over a finite field the punctured cone splits into fixed "
        "points (x2 = x4 = 0, not the origin) and free orbits of size p.",
        action=act,
        domain=punctured_cone,
        fixed_stratum=locally_closed(Ideal(X4, [x2, x4]), origin),
        expected=census_expected,
    )
    image_shadow = ImageShadow(
        id="image-agreement",
        claim="Surjectivity of the projection from the punctured cone is "
        "field-independent: the slice section works over any field.",
        map=proj,
        domain=punctured_cone,
        predicted=whole_space(B2),
    )
    return ScenarioSpec(
        name="example3",
        summary="Isotropic shear on a quadric cone: projection onto two "
        "invariant coordinates, projective charts gluing to the blown-up "
        "plane, and the collapse of distinct fixed orbits.",
        checks=tuple(checks),
        shadows=(image_shadow, census),
    )



# ---------------------------------------------------------------------------
# registry


# canonical name -> (builder, the one check its mutant must break); builders
# use the canonical name, and get_scenario names and marks each mutant
_BUILDERS = {
    "background": (build_background, "invariants-constant-on-orbits"),
    "example1": (build_example1, "invariants-constant-on-orbits"),
    "example2": (build_example2, "scaling-limit-point"),
    "example3": (build_example3, "section-zero-slice"),
}


def scenario_names() -> tuple:
    return tuple(n for base in _BUILDERS for n in (base, f"{base}-mutated"))


def get_scenario(name: str) -> ScenarioSpec:
    mutated = name.endswith("-mutated")
    try:
        builder, target = _BUILDERS[name.removesuffix("-mutated")]
    except KeyError:
        known = ", ".join(scenario_names())
        raise ValueError(f"unknown scenario {name!r}; known: {known}") from None
    spec = builder(mutated)
    if not mutated:
        return spec
    return replace(spec, name=name, negative_control=True, targeted_check=target)


def run_scenario(name: str) -> Report:
    spec = get_scenario(name)
    results = []
    for check in spec.checks:
        passed, detail = (True, check.detail) if check.run is None else check.run()
        results.append(
            CheckResult(
                id=check.id,
                status="pass" if passed else "fail",
                kind=check.kind,
                detail=detail,
                claim=check.claim,
            )
        )
    return Report(spec.name, tuple(results))

