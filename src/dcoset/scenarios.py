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
a declared encoding).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
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
    eliminate,
    equal_ideals,
    groebner_basis,
    ideal_member,
    ideal_product,
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
    "scenario_catalog",
    "scenario_names",
]


@dataclass(frozen=True)
class Check:
    """One verification step: id, how it concludes, what it certifies."""

    id: str
    kind: str
    claim: str
    run: Callable  # () -> (passed: bool, detail: str)


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


def _ok(flag: bool, detail: str):
    return bool(flag), detail


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


def _shear_core():
    shear = row_shear_action()
    M = shear.space
    a11, a12, a21, a22 = M.gens()
    det = a11 * a22 - a12 * a21

    T = RingCtx(("b1", "b2", "d"))
    b1, b2, d = T.gens()
    inv_map = PolyMap(M, T, (a21, a22, det))

    # predicted image: the whole target minus the punctured line b=0, d != 0
    missing = locally_closed(Ideal(T, [b1, b2]), Ideal(T, [d]))
    predicted = difference(whole_space(T), missing)

    return {
        "M": M,
        "det": det,
        "shear": shear,
        "T": T,
        "inv_map": inv_map,
        "missing": missing,
        "predicted": predicted,
    }


def _quotient_core_checks(core, mutated: bool):
    M = core["M"]
    T = core["T"]
    det = core["det"]
    shear = core["shear"]
    inv_map = core["inv_map"]
    predicted = core["predicted"]
    a11, a12, a21, a22 = M.gens()
    b1, b2, d = T.gens()

    # the negative control swaps det for a11 in the declared invariant list
    # only; downstream objects keep the true map so exactly one check breaks
    declared_invariants = (a21, a22, a11 if mutated else det)

    def run_invariants():
        results = [(g, check_invariant(shear, g)) for g in declared_invariants]
        detail = "; ".join(
            f"{format_poly(g)}: {'invariant' if ok else 'NOT invariant'}"
            for g, ok in results
        )
        return _ok(all(ok for _, ok in results), detail)

    def run_image_closure():
        cl = image_closure(inv_map, whole_space(M))
        return _ok(
            cl.is_zero_ideal(),
            f"closure ideal of the image: {_polys(cl.generators) if cl.generators else '(0)'}",
        )

    def run_stratum_constraints():
        stratum = Ideal(T, [b1, b2])
        constraints = parametric_image_constraints(inv_map, whole_space(M), stratum)
        want = Ideal(T, [d])
        return _ok(
            equal_ideals(constraints, want),
            f"constraints beyond the stratum: {_polys(constraints.generators)}",
        )

    def run_punctured_line():
        misses = [(0, 0, 1), (0, 0, -2)]
        hit_origin = point_in_image(inv_map, whole_space(M), (0, 0, 0))
        miss_ok = [not point_in_image(inv_map, whole_space(M), q) for q in misses]
        detail = (
            "fibers over (0,0,1) and (0,0,-2) are empty; fiber over the origin is not"
        )
        return _ok(all(miss_ok) and hit_origin, detail)

    def run_image_description():
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
        return _ok(ok1 and ok2 and ok0 and cover_ok, detail)

    def run_not_closed():
        full = closure(predicted).is_zero_ideal()
        proper = not is_empty(difference(whole_space(T), predicted))
        return _ok(
            full and proper,
            "closure of the image is the whole target, yet the image misses the punctured line",
        )

    def run_not_open():
        open_ = is_open_in(predicted, whole_space(T))
        return _ok(not open_, f"is_open_in(image, target) = {open_}")

    def run_fixed_stratum():
        stratum_ideal = Ideal(M, [a21, a22])
        fixed_ok = fixed_stratum_check(shear, vanishing(stratum_ideal))
        to_origin = all(ideal_member(c, stratum_ideal) for c in inv_map.coords)
        return _ok(
            fixed_ok and to_origin,
            "zero-bottom-row matrices are pointwise fixed; all invariant "
            "coordinates reduce to 0 on the stratum",
        )

    def run_separation():
        pairs = [
            ((0, 0, 1, 1), (3, 3, 1, 1)),
            ((0, 0, 1, 0), (0, 0, 0, 1)),
            ((1, 0, 0, 0), (0, 1, 0, 0)),
        ]
        verdicts = separation_report(shear, inv_map, pairs)
        detail = "; ".join(v.describe() for v in verdicts)
        want = ["same-orbit", "separated", "collapsed"]
        return _ok([v.verdict for v in verdicts] == want, detail)

    def run_conclusion():
        return _ok(
            True,
            "criterion: a candidate orbit space realizable as a variety must "
            "be open or closed in the target; the image is neither (see "
            "image-not-open, image-not-closed) but is a finite union of "
            "locally closed pieces",
        )

    return [
        Check(
            "invariants-constant-on-orbits",
            KIND_VERIFIED,
            "The bottom-row entries and the determinant are constant on "
            "orbits of the row-shear action.",
            run_invariants,
        ),
        Check(
            "image-closure-full-space",
            KIND_VERIFIED,
            "The closure of the image of the invariant map (a21, a22, det) "
            "is the whole affine 3-space.",
            run_image_closure,
        ),
        Check(
            "stratum-constraints-punctured-line",
            KIND_VERIFIED,
            "Over the stratum b1 = b2 = 0, image points satisfy exactly one "
            "new constraint: d = 0.",
            run_stratum_constraints,
        ),
        Check(
            "punctured-line-excluded",
            KIND_VERIFIED,
            "Points (0, 0, d) with d != 0 are not attained: a matrix with "
            "zero bottom row has zero determinant; the origin is attained.",
            run_punctured_line,
        ),
        Check(
            "image-matches-constructible-description",
            KIND_VERIFIED,
            "The image equals the whole target minus the punctured line "
            "{b1 = b2 = 0, d != 0}: explicit sections cover every predicted "
            "point.",
            run_image_description,
        ),
        Check(
            "image-not-closed",
            KIND_VERIFIED,
            "The image is not closed: its Zariski closure adds the "
            "punctured line back.",
            run_not_closed,
        ),
        Check(
            "image-not-open",
            KIND_VERIFIED,
            "The image is not open in the target space.",
            run_not_open,
        ),
        Check(
            "fixed-stratum-collapse",
            KIND_VERIFIED,
            "Matrices with zero bottom row are fixed points and are all "
            "mapped to the origin of the invariant space.",
            run_fixed_stratum,
        ),
        Check(
            "separation-trichotomy",
            KIND_VERIFIED,
            "Invariant values separate generic orbits but collapse the "
            "fixed stratum: distinct fixed points share the value (0,0,0).",
            run_separation,
        ),
        Check(
            "constructible-quotient-conclusion",
            KIND_BY_CRITERION,
            "The orbit-space candidate is constructible but neither open "
            "nor closed, so it is not realized by any subvariety of the "
            "invariant space; the quotient exists only constructibly.",
            run_conclusion,
        ),
    ]


def _shear_census_shadow(core) -> CensusShadow:
    M = core["M"]
    a21 = M.gen("a21")
    a22 = M.gen("a22")

    def expected(p: int):
        fixed = p * p
        moving = (p**4 - p * p) // p
        return (p**4, fixed + moving, {1: fixed, p: moving})

    return CensusShadow(
        id="orbit-census",
        claim="Orbits of the row-shear action over a finite field partition "
        "the matrix space into fixed points (zero bottom row) and free "
        "orbits of size p; the partition is field-independent in shape.",
        action=core["shear"],
        domain=None,
        fixed_stratum=vanishing(Ideal(M, [a21, a22])),
        expected=expected,
    )


def build_background(mutated: bool = False) -> ScenarioSpec:
    core = _shear_core()
    return ScenarioSpec(
        name="background",
        summary="Row-shear action on 2x2 matrices: invariants, orbit "
        "structure, and the constructible non-open non-closed image of the "
        "invariant map.",
        checks=tuple(_quotient_core_checks(core, mutated)),
        shadows=(_shear_census_shadow(core),),
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


def _example1_extra_checks(core):
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

    def run_stabilizer():
        gm = _matmul(g_mat, m_mat)
        diff_entries = [
            gm[i][j] - m_mat[i][j] for i in range(4) for j in range(2)
        ]
        stab = Ideal(G, diff_entries)
        want = Ideal(G, [g13, g14, g23, g24])
        exact = equal_ideals(stab, want)
        free = not radical_member(g12, want)
        return _ok(
            exact and free,
            f"stabilizer ideal: {_polys(groebner_basis(stab))}; "
            f"g12 remains free: {free}",
        )

    def run_transport():
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
        shear_polys = [
            substitute(a, rename, into=T) for a in core["shear"].action
        ]
        top_ok = (
            prod[0][0] == shear_polys[0]
            and prod[0][1] == shear_polys[1]
            and prod[1][0] == shear_polys[2]
            and prod[1][1] == shear_polys[3]
        )
        return _ok(
            chart_ok and top_ok,
            "bottom block stays the identity; top rows transform as "
            f"({format_poly(prod[0][0])}, {format_poly(prod[0][1])})",
        )

    def run_reduction():
        return _ok(
            True,
            "declared chart: representatives with identity bottom block are "
            "parametrized by their 2x2 top block; the residual action is "
            "the row-shear action checked above",
        )

    return [
        Check(
            "stabilizer-is-shear-group",
            KIND_VERIFIED,
            "Inside the 5-parameter unitriangular group, the stabilizer of "
            "the distinguished 4x2 matrix is cut out by g13 = g14 = g23 = "
            "g24 = 0, leaving exactly the one-parameter shear subgroup.",
            run_stabilizer,
        ),
        Check(
            "coset-transport-matches-shear",
            KIND_VERIFIED,
            "Left multiplication by the one-parameter subgroup preserves "
            "the identity-bottom chart and acts on top rows exactly as the "
            "row-shear action.",
            run_transport,
        ),
        Check(
            "coset-reduction-declared",
            KIND_BY_REPRESENTATION,
            "The chart of identity-bottom representatives identifies the "
            "coset space with the space of 2x2 top blocks; the quotient "
            "question reduces to the row-shear analysis.",
            run_reduction,
        ),
    ]


def build_example1(mutated: bool = False) -> ScenarioSpec:
    core = _shear_core()
    checks = _quotient_core_checks(core, mutated) + _example1_extra_checks(core)

    predicted = core["predicted"]
    if mutated:
        # oracle negative control: pretend the image is everything
        predicted = whole_space(core["T"])
    image_shadow = ImageShadow(
        id="image-agreement",
        claim="Membership in the image of the invariant map is "
        "field-independent: the fiber system (bottom row fixed, determinant "
        "fixed) is linear in the top row, solvable over any field exactly "
        "off the punctured line.",
        map=core["inv_map"],
        domain=whole_space(core["M"]),
        predicted=predicted,
    )
    return ScenarioSpec(
        name="example1",
        summary="Double-coset packaging of the row-shear engine: stabilizer "
        "computation, chart transport, and the constructible quotient of "
        "the top-block space.",
        checks=tuple(checks),
        shadows=(image_shadow, _shear_census_shadow(core)),
    )


# ---------------------------------------------------------------------------
# example2: scaling reduction for 4x2 matrices with nonzero columns


def build_example2(mutated: bool = False) -> ScenarioSpec:
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
    group_params = ("a", "s", "u")
    constraint = Ideal(
        RingCtx(group_params), [RingCtx(group_params).gen("s") * RingCtx(group_params).gen("u") - 1]
    )
    full_action = GroupActionSpec(
        space=W8,
        params=group_params,
        constraint=constraint,
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
    B4 = scaling.space

    base_point = (1, 0, 0, 0) if mutated else (0, 0, 0, 0)

    def run_limit_point():
        ok = base_in_all_orbit_closures(scaling, base_point)
        return _ok(
            ok,
            f"start point {base_point}: contained in every orbit closure of "
            f"the scaling action = {ok}",
        )

    def run_minors():
        R10 = RingCtx(B4.vars + ("s", "u") + ("y11", "y12", "y21", "y22"))
        sv, uv = R10.gen("s"), R10.gen("u")
        ms = [R10.gen(v) for v in ("m11", "m12", "m21", "m22")]
        ys = [R10.gen(v) for v in ("y11", "y12", "y21", "y22")]
        gens = [m - sv * y for m, y in zip(ms, ys)]
        gens.append(sv * uv - 1)
        E = eliminate(Ideal(R10, gens), {"s", "u"})
        small = E.ring
        msmall = [small.gen(v) for v in ("m11", "m12", "m21", "m22")]
        ysmall = [small.gen(v) for v in ("y11", "y12", "y21", "y22")]
        minors = [
            msmall[i] * ysmall[j] - msmall[j] * ysmall[i]
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        ok = equal_ideals(E, Ideal(small, minors))
        return _ok(
            ok,
            f"eliminated ideal has {len(E.generators)} generators and "
            f"equals the ideal of 2x2 minors pairing a point with its image",
        )

    def run_encoded():
        return _ok(
            True,
            "admissible matrices are encoded as the complement of the union "
            "of V(column 1) and V(column 2): one locally closed piece whose "
            "excluded ideal is the product of the two column ideals",
        )

    def run_contains():
        ok = contains(admissible, good_pairs)
        return _ok(ok, f"contains(admissible, good-tops x bottoms) = {ok}")

    def run_dense():
        ok = closure(good_tops).is_zero_ideal()
        return _ok(ok, "closure of the good top-block locus is the whole space")

    def run_open():
        ok = is_open_in(good_tops, whole_space(top_ring))
        return _ok(ok, f"is_open_in(good tops, top space) = {ok}")

    def run_stable():
        assignment = dict(zip(W8.vars, full_action.action))
        cons = full_action.constraint_in_combined()
        big = full_action.combined
        ok = True
        for colideal in (col1, col2):
            target = Ideal(big, [lift(g, big) for g in colideal.generators] + list(cons.generators))
            for g in colideal.generators:
                moved = substitute(g, assignment, into=big)
                if not ideal_member(moved, target):
                    ok = False
        return _ok(
            ok,
            "each column-vanishing locus is carried into itself by the "
            "group, so the admissible complement is preserved",
        )

    def run_projection():
        constraints = parametric_image_constraints(
            pr, admissible, Ideal(top_ring, [])
        )
        zero_ok = constraints.is_zero_ideal()
        worst = point_in_image(pr, admissible, (0, 0, 0, 0))
        return _ok(
            zero_ok and worst,
            f"parametric constraint ideal: "
            f"{_polys(constraints.generators) if constraints.generators else '(0)'}; "
            f"zero top block attained: {worst}",
        )

    def run_chain():
        return _ok(
            True,
            "criterion: with the limit point in every scaling-orbit closure, "
            "a stable admissible set, and the projection onto the top block "
            "surjective, the quotient analysis reduces along the scaling "
            "factor to the row-shear engine on top blocks",
        )

    checks = (
        Check(
            "scaling-limit-point",
            KIND_VERIFIED,
            "The zero matrix lies in the closure of every orbit of the "
            "bottom-block scaling action, verified with a fully symbolic "
            "start point.",
            run_limit_point,
        ),
        Check(
            "scaling-orbit-closure-line",
            KIND_VERIFIED,
            "Eliminating the scale from the graph of the scaling action "
            "yields exactly the 2x2 minors tying a point to its image: "
            "orbit closures are lines through the origin.",
            run_minors,
        ),
        Check(
            "column-condition-encoded",
            KIND_BY_REPRESENTATION,
            "The admissible 4x2 matrices are those with both columns "
            "nonzero, encoded as the complement of two closed column loci; "
            "in particular the set is open by construction.",
            run_encoded,
        ),
        Check(
            "good-tops-times-bottoms-inside",
            KIND_VERIFIED,
            "Every matrix whose top block has two nonzero columns is "
            "admissible, whatever its bottom block.",
            run_contains,
        ),
        Check(
            "good-top-locus-dense",
            KIND_VERIFIED,
            "Top blocks with two nonzero columns are dense in the top-block "
            "space.",
            run_dense,
        ),
        Check(
            "good-top-locus-open",
            KIND_VERIFIED,
            "Top blocks with two nonzero columns form an open subset of the "
            "top-block space.",
            run_open,
        ),
        Check(
            "admissible-set-stable",
            KIND_VERIFIED,
            "The admissible set is preserved by the combined shear and "
            "scaling action.",
            run_stable,
        ),
        Check(
            "projection-onto-top-block",
            KIND_VERIFIED,
            "Projection of the admissible set onto the top block is onto: "
            "the parametric constraint ideal is zero and the zero top block "
            "is attained.",
            run_projection,
        ),
        Check(
            "scaling-reduction-chain",
            KIND_BY_CRITERION,
            "With the verified premises, the quotient computation reduces "
            "first along the scaling factor and then to the row-shear "
            "analysis of top blocks.",
            run_chain,
        ),
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
        checks=checks,
        shadows=(image_shadow,),
    )


# ---------------------------------------------------------------------------
# example3: isotropic shear on a quadric cone and the blown-up plane


def build_example3(mutated: bool = False) -> ScenarioSpec:
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

    def run_nonempty():
        ok = not is_empty(punctured_cone)
        witness = contains_point(punctured_cone, (0, 1, 0, 0))
        return _ok(ok and witness, "witness point (0, 1, 0, 0) lies on the punctured cone")

    def run_invariants():
        ok2 = check_invariant(act, x2)
        ok4 = check_invariant(act, x4)
        return _ok(ok2 and ok4, f"x2 invariant: {ok2}; x4 invariant: {ok4}")

    def run_preserved():
        inv = check_invariant(act, cone_poly)
        fixes_origin = act.act_on_point((5,), (0, 0, 0, 0)) == (0, 0, 0, 0)
        return _ok(
            inv and fixes_origin,
            "the cone equation is invariant and the origin is fixed, so the "
            "punctured cone is preserved",
        )

    def run_normal_form():
        # on the chart x2 != 0 the element a = -x1/x2, on x4 != 0 the element
        # a = x3/x4, sends the point to (0, x2, 0, x4); w inverts the chart
        R5 = extend_ring(X4, ("w",))
        r1, r2, r3, r4, rw = R5.gens()
        ok = True
        for unit, a_val in ((r2, -r1 * rw), (r4, r3 * rw)):
            chart = Ideal(R5, [lift(cone_poly, R5), rw * unit - 1])
            moved = (r1 + a_val * r2, r3 - a_val * r4)
            ok &= all(ideal_member(m, chart) for m in moved)
        return _ok(
            ok,
            "on each unit chart an explicit group element kills x1 and x3 "
            "simultaneously, reaching the normal form (0, x2, 0, x4)",
        )

    def run_fixed_plane():
        ok = fixed_stratum_check(act, vanishing(Ideal(X4, [x2, x4])))
        return _ok(ok, "action polynomials reduce to the coordinates on x2 = x4 = 0")

    def run_projection():
        full = image_closure(proj, punctured_cone).is_zero_ideal()
        over_origin = point_in_image(proj, punctured_cone, (0, 0))
        return _ok(
            full and over_origin,
            f"image closure is the whole plane: {full}; fiber over the "
            f"origin nonempty: {over_origin}",
        )

    third_slot = B2.one() if mutated else B2.zero()

    def run_section_zero_slice():
        sec = SectionSpec(
            stratum=whole_space(B2),
            section=PolyMap(B2, X4, (B2.zero(), b2, third_slot, b4)),
        )
        ok = verify_section(proj, cone, sec)
        return _ok(ok, f"section (0, b2, {format_poly(third_slot)}, b4) into the cone: {ok}")

    def run_section_punctured():
        sec = SectionSpec(
            stratum=locally_closed(Ideal(B2, []), Ideal(B2, [b2, b4])),
            section=PolyMap(B2, X4, (B2.zero(), b2, B2.zero(), b4)),
        )
        ok = verify_section(proj, punctured_cone, sec)
        return _ok(ok, f"section over the punctured plane lands in the punctured cone: {ok}")

    def run_consistent():
        ok = check_consistent_on_overlap(pred, cone)
        swapped = ProjectivePairPredicate(X4, (x2, x4), (x1, -x3))
        ok2 = check_consistent_on_overlap(swapped, cone)
        return _ok(
            ok and ok2,
            "cross product of the two pairs is the cone equation, a member "
            "of the cone ideal (checked with either pair preferred)",
        )

    def run_orbit_constant():
        big = act.combined
        assignment = dict(zip(X4.vars, act.action))
        p1 = substitute(x1, assignment, into=big)
        p2 = substitute(-x3, assignment, into=big)
        cross_pref = p1 * lift(-x3, big) - p2 * lift(x1, big)
        q1 = substitute(x2, assignment, into=big)
        q2 = substitute(x4, assignment, into=big)
        cross_fall = q1 * lift(x4, big) - q2 * lift(x2, big)
        ideal_big = Ideal(big, [lift(cone_poly, big)])
        ok = ideal_member(cross_pref, ideal_big) and cross_fall.is_zero()
        return _ok(
            ok,
            "moving a point along the group changes the preferred pair by a "
            "multiple of the cone equation; the fallback pair is unchanged",
        )

    def run_incidence_symbolic():
        lhs = x2 * (-x3) - x4 * x1
        ok = ideal_member(lhs, cone_ideal)
        return _ok(
            ok,
            f"b2*v - b4*u pulled back along the preferred pair is "
            f"{format_poly(lhs)}, a member of the cone ideal",
        )

    def run_incidence_sampled():
        rng = random.Random(20260822)
        pts = []
        while len(pts) < 35:
            t = Fraction(rng.randint(-9, 9))
            u2 = Fraction(rng.randint(-9, 9))
            u4 = Fraction(rng.randint(-9, 9))
            if u2 == 0 and u4 == 0:
                continue
            pts.append((t * u2, u2, -t * u4, u4))
        while len(pts) < 50:
            u = Fraction(rng.randint(-9, 9))
            v = Fraction(rng.randint(-9, 9))
            if u == 0 and v == 0:
                continue
            pts.append((u, Fraction(0), -v, Fraction(0)))
        good = 0
        for pt in pts:
            if evaluate(cone_poly, pt) == 0 and incidence_ok(pred, (x2, x4), pt):
                good += 1
        return _ok(good == 50, f"{good}/50 sampled cone points satisfy the incidence equation")

    def run_separation():
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
        return _ok([v.verdict for v in verdicts] == want, detail)

    def run_exceptional():
        params = [(1, 0), (0, 1), (1, 1), (2, 3), (-1, 2)]
        pts = [(Fraction(u), Fraction(0), Fraction(-v), Fraction(0)) for u, v in params]
        on_fiber = all(
            contains_point(punctured_cone, pt) and proj.apply(pt) == (0, 0)
            for pt in pts
        )
        values = [pred.value_at(pt) for pt in pts]
        expected = [(Fraction(u), Fraction(v)) for u, v in params]
        values_ok = values == expected
        distinct = all(
            values[i][0] * values[j][1] - values[j][0] * values[i][1] != 0
            for i in range(len(values))
            for j in range(i + 1, len(values))
        )
        return _ok(
            on_fiber and values_ok and distinct,
            "witness family (u, 0, -v, 0) sits over the origin and realizes "
            "5 pairwise distinct projective values",
        )

    def run_target():
        return _ok(
            True,
            "comparison target: the incidence surface {((b2, b4), (u : v)) "
            ": b2*v = b4*u}, the plane blown up at the origin, with values "
            "assembled from the two charts",
        )

    def run_conclusion():
        return _ok(
            True,
            "criterion: a quotient map must separate closed orbits; the "
            "separation check shows two distinct fixed orbits share one "
            "value, so the blow-up candidate is only a constructible "
            "quotient",
        )

    checks = (
        Check(
            "base-space-nonempty",
            KIND_VERIFIED,
            "The cone x1*x4 + x2*x3 = 0 minus the origin is nonempty.",
            run_nonempty,
        ),
        Check(
            "base-invariants",
            KIND_VERIFIED,
            "The coordinates x2 and x4 are constant on orbits of the "
            "isotropic shear.",
            run_invariants,
        ),
        Check(
            "cone-preserved",
            KIND_VERIFIED,
            "The cone equation is invariant and the origin is fixed, so "
            "the punctured cone is preserved by the action.",
            run_preserved,
        ),
        Check(
            "orbit-normal-form",
            KIND_VERIFIED,
            "On each chart x2 != 0, x4 != 0 an explicit group element moves "
            "any cone point to the slice (0, x2, 0, x4).",
            run_normal_form,
        ),
        Check(
            "fixed-plane-pointwise",
            KIND_VERIFIED,
            "Every point with x2 = x4 = 0 is fixed by the whole group.",
            run_fixed_plane,
        ),
        Check(
            "projection-onto-base",
            KIND_VERIFIED,
            "The projection to (x2, x4) maps the punctured cone onto the "
            "whole plane.",
            run_projection,
        ),
        Check(
            "section-zero-slice",
            KIND_VERIFIED,
            "The slice (0, b2, 0, b4) is a polynomial section of the "
            "projection over the entire plane, landing inside the cone.",
            run_section_zero_slice,
        ),
        Check(
            "section-punctured-chart",
            KIND_VERIFIED,
            "Restricted to the punctured plane, the same slice lands in "
            "the punctured cone.",
            run_section_punctured,
        ),
        Check(
            "pair-consistent-on-cone",
            KIND_VERIFIED,
            "The pairs (x1 : -x3) and (x2 : x4) agree as projective values "
            "on the cone: their cross product is the cone equation.",
            run_consistent,
        ),
        Check(
            "pair-orbit-constant",
            KIND_VERIFIED,
            "Both coordinate pairs are constant along orbits up to scale, "
            "so the projective value descends to orbits.",
            run_orbit_constant,
        ),
        Check(
            "blowup-incidence-symbolic",
            KIND_VERIFIED,
            "Base point and projective value of any cone point satisfy the "
            "incidence equation of the blown-up plane.",
            run_incidence_symbolic,
        ),
        Check(
            "blowup-incidence-sampled",
            KIND_VERIFIED,
            "Fifty pseudorandom cone points all satisfy the incidence "
            "equation numerically.",
            run_incidence_sampled,
        ),
        Check(
            "separation-trichotomy",
            KIND_VERIFIED,
            "The candidate value separates generic orbits, but the distinct "
            "fixed points (1,0,2,0) and (3,0,6,0) receive the same value.",
            run_separation,
        ),
        Check(
            "exceptional-fiber-hit",
            KIND_VERIFIED,
            "Over the origin the fiber consists of fixed points "
            "(u, 0, -v, 0) realizing every projective value of the "
            "exceptional line.",
            run_exceptional,
        ),
        Check(
            "quotient-target-described",
            KIND_BY_REPRESENTATION,
            "The comparison target is the incidence surface of the plane "
            "blown up at the origin.",
            run_target,
        ),
        Check(
            "blowup-collapse-conclusion",
            KIND_BY_CRITERION,
            "A map constant on orbits that identifies two distinct closed "
            "orbits admits no geometric quotient structure; the blow-up "
            "candidate works only constructibly.",
            run_conclusion,
        ),
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
        checks=checks,
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
        passed, detail = check.run()
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


def scenario_catalog() -> tuple:
    """Static listing: (name, summary, ((check id, kind, claim), ...),
    negative_control, targeted_check)."""
    out = []
    for name in scenario_names():
        spec = get_scenario(name)
        out.append(
            (
                spec.name,
                spec.summary,
                tuple((c.id, c.kind, c.claim) for c in spec.checks),
                spec.negative_control,
                spec.targeted_check,
            )
        )
    return tuple(out)
