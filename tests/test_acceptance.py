"""Acceptance gate: the six headline requirements, one test each.

Each test prints a single PASS/FAIL summary line (visible with ``-v`` or
``-s``) and enforces the stated wall-clock budget where one applies.
"""

import random
import time
from fractions import Fraction

from dcoset.polyring import RingCtx, extend_ring
from dcoset.groebner import (
    Ideal,
    equal_ideals,
    groebner_basis,
    ideal_member,
    normal_form,
)
from dcoset.geometry import (
    closure,
    contains,
    is_open_in,
    locally_closed,
    vanishing,
    whole_space,
)
from dcoset.morphism import (
    PolyMap,
    SectionSpec,
    image_closure,
    parametric_image_constraints,
    verify_section,
)
from dcoset.action import (
    GroupActionSpec,
    base_in_all_orbit_closures,
    check_invariant,
    separation_report,
    separation_report_with,
)
from dcoset.morphism import ProjectivePairPredicate, proj_equal
from dcoset.fforacle import FpConfig, cross_check, enumerate_orbits
from dcoset.cli import main as cli_main
from dcoset.groebner import ideal_product


def _line(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_shear_quotient_under_10s():
    start = time.monotonic()

    M = RingCtx(("a11", "a12", "a21", "a22"))
    a11, a12, a21, a22 = M.gens()
    det = a11 * a22 - a12 * a21
    C = extend_ring(M, ("lam",))
    c11, c12, c21, c22, lam = C.gens()
    shear = GroupActionSpec(
        space=M,
        params=("lam",),
        constraint=Ideal(RingCtx(("lam",)), []),
        action=(c11 + lam * c21, c12 + lam * c22, c21, c22),
        identity={"lam": 0},
    )
    T = RingCtx(("b1", "b2", "d"))
    b1, b2, d = T.gens()
    inv = PolyMap(M, T, (a21, a22, det))

    invariant_ok = all(check_invariant(shear, g) for g in (a21, a22, det))
    closure_ok = image_closure(inv, whole_space(M)).is_zero_ideal()
    stratum = parametric_image_constraints(inv, whole_space(M), Ideal(T, [b1, b2]))
    stratum_ok = equal_ideals(stratum, Ideal(T, [d]))
    missing = locally_closed(Ideal(T, [b1, b2]), Ideal(T, [d]))
    from dcoset.geometry import difference

    image_set = difference(whole_space(T), missing)
    open_ok = not is_open_in(image_set, whole_space(T))
    verdicts = separation_report(shear, inv, [((1, 0, 0, 0), (0, 1, 0, 0))])
    collapsed_ok = verdicts[0].verdict == "collapsed"

    elapsed = time.monotonic() - start
    ok = invariant_ok and closure_ok and stratum_ok and open_ok and collapsed_ok and elapsed < 10
    _line(
        1,
        ok,
        f"invariance {invariant_ok}, dense image {closure_ok}, stratum ideal "
        f"(d) {stratum_ok}, image not open {open_ok}, fixed pair collapsed "
        f"{collapsed_ok}, in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_scaling_reduction_symbolic():
    B4 = RingCtx(("m11", "m12", "m21", "m22"))
    BC = extend_ring(B4, ("s", "u"))
    P = RingCtx(("s", "u"))
    scaling = GroupActionSpec(
        space=B4,
        params=("s", "u"),
        constraint=Ideal(P, [P.gen("s") * P.gen("u") - 1]),
        action=tuple(BC.gen("s") * BC.gen(v) for v in B4.vars),
        identity={"s": 1, "u": 1},
    )
    limit_ok = base_in_all_orbit_closures(scaling, (0, 0, 0, 0))

    W8 = RingCtx(("w11", "w12", "w21", "w22", "w31", "w32", "w41", "w42"))
    col1 = Ideal(W8, [W8.gen(v) for v in ("w11", "w21", "w31", "w41")])
    col2 = Ideal(W8, [W8.gen(v) for v in ("w12", "w22", "w32", "w42")])
    admissible = locally_closed(Ideal(W8, []), ideal_product(col1, col2))
    c1t = Ideal(W8, [W8.gen("w11"), W8.gen("w21")])
    c2t = Ideal(W8, [W8.gen("w12"), W8.gen("w22")])
    good_pairs = locally_closed(Ideal(W8, []), ideal_product(c1t, c2t))
    contains_ok = contains(admissible, good_pairs)

    top = RingCtx(("x11", "x12", "x21", "x22"))
    tc1 = Ideal(top, [top.gen("x11"), top.gen("x21")])
    tc2 = Ideal(top, [top.gen("x12"), top.gen("x22")])
    good_tops = locally_closed(Ideal(top, []), ideal_product(tc1, tc2))
    dense_ok = closure(good_tops).is_zero_ideal()

    pr = PolyMap(W8, top, tuple(W8.gen(v) for v in ("w11", "w12", "w21", "w22")))
    constraints = parametric_image_constraints(pr, admissible, Ideal(top, []))
    onto_ok = constraints.is_zero_ideal()

    ok = limit_ok and contains_ok and dense_ok and onto_ok
    _line(
        2,
        ok,
        f"symbolic limit point {limit_ok}, admissible contains good pairs "
        f"{contains_ok}, good tops dense {dense_ok}, projection constraint "
        f"ideal zero {onto_ok}",
    )


def test_criterion_3_cone_charts_and_collapse():
    X = RingCtx(("x1", "x2", "x3", "x4"))
    x1, x2, x3, x4 = X.gens()
    cone_poly = x1 * x4 + x2 * x3
    cone = vanishing(Ideal(X, [cone_poly]))
    punctured = locally_closed(Ideal(X, [cone_poly]), Ideal(X, [x1, x2, x3, x4]))
    XC = extend_ring(X, ("a",))
    c1, c2, c3, c4, a = XC.gens()
    act = GroupActionSpec(
        space=X,
        params=("a",),
        constraint=Ideal(RingCtx(("a",)), []),
        action=(c1 + a * c2, c2, c3 - a * c4, c4),
        identity={"a": 0},
    )
    inv_ok = check_invariant(act, x2) and check_invariant(act, x4)

    B = RingCtx(("b2", "b4"))
    b2, b4 = B.gens()
    proj = PolyMap(X, B, (x2, x4))
    sigma = SectionSpec(
        stratum=whole_space(B),
        section=PolyMap(B, X, (B.zero(), b2, B.zero(), b4)),
    )
    tau = SectionSpec(
        stratum=locally_closed(Ideal(B, []), Ideal(B, [b2, b4])),
        section=PolyMap(B, X, (B.zero(), b2, B.zero(), b4)),
    )
    sections_ok = verify_section(proj, cone, sigma) and verify_section(
        proj, punctured, tau
    )

    pred = ProjectivePairPredicate(X, (x1, -x3), (x2, x4))
    cross = x2 * (-x3) - x4 * x1
    cross_ok = ideal_member(cross, Ideal(X, [cone_poly]))

    pairs = [
        ((1, 0, 2, 0), (3, 0, 6, 0)),
        ((1, 0, 2, 0), (2, 0, 1, 0)),
        ((1, 1, -1, 1), (0, 1, 0, 1)),
        ((0, 1, 0, 1), (0, 1, 0, 2)),
        ((2, 1, -2, 1), (-3, 1, 3, 1)),
    ]
    verdicts = separation_report_with(
        act,
        pairs,
        lambda p, q: proj_equal(pred, p, q) and proj.apply(p) == proj.apply(q),
    )
    collapse_ok = verdicts[0].verdict == "collapsed"
    generic = [v.verdict for v in verdicts[1:]]
    generic_ok = len(generic) >= 3 and all(
        v in ("separated", "same-orbit") for v in generic
    )

    ok = inv_ok and sections_ok and cross_ok and collapse_ok and generic_ok
    _line(
        3,
        ok,
        f"x2/x4 invariant {inv_ok}, both sections verified {sections_ok}, "
        f"cross product in cone ideal {cross_ok}, z/z' collapsed "
        f"{collapse_ok}, {len(generic)} generic pairs resolved {generic_ok}",
    )


def _spair(f, g):
    """S(f, g) = (L/lt f)·f - (L/lt g)·g with L the lcm of the leading
    monomials, from ring arithmetic alone."""
    (mf, cf), (mg, cg) = f.sorted_terms()[0], g.sorted_terms()[0]
    top = tuple(map(max, mf, mg))

    def cofactor(m, c):
        return f.ring.monomial([t - e for t, e in zip(top, m)], Fraction(1, c))

    return cofactor(mf, cf) * f - cofactor(mg, cg) * g


def test_criterion_4_random_groebner_sanity_under_60s():
    start = time.monotonic()
    rng = random.Random(424242)
    names = ("x", "y", "z")
    checked = 0
    while checked < 100:
        nvars = rng.randint(1, 3)
        ring = RingCtx(names[:nvars])
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = ring.zero()
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 3) for _ in range(nvars))
                if sum(exps) > 3:
                    continue
                p = p + ring.monomial(exps, Fraction(rng.randint(-6, 6)))
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        ideal = Ideal(ring, gens)
        gb = groebner_basis(ideal)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                s = _spair(gb[i], gb[j])
                assert normal_form(s, gb).is_zero()
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert groebner_basis(Ideal(ring, shuffled)) == gb
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 100 and elapsed < 60
    _line(
        4,
        ok,
        f"{checked} random ideals: all S-polynomials reduce to zero and "
        f"bases are permutation-invariant, in {elapsed:.2f}s (< 60s)",
    )


def test_criterion_5_oracle_agreement_under_5s():
    start = time.monotonic()
    r3 = cross_check("example1", FpConfig(3))
    r5 = cross_check("example1", FpConfig(5))
    by3 = {c.id: c for c in r3.checks}
    by5 = {c.id: c for c in r5.checks}
    img3 = "27/27 points agree" in by3["image-agreement-p3"].detail
    img5 = "125/125 points agree" in by5["image-agreement-p5"].detail
    counts_ok = (
        "25 points" in by3["image-agreement-p3"].detail
        and "121 points" in by5["image-agreement-p5"].detail
    )
    census1 = "33 orbits, sizes {1: 9, 3: 24}" in by3["orbit-census-p3"].detail

    r3c = cross_check("example3", FpConfig(3))
    by3c = {c.id: c for c in r3c.checks}
    census3 = "16 orbits, sizes {1: 8, 3: 8}" in by3c["orbit-census-p3"].detail

    all_pass = r3.verdict == r5.verdict == r3c.verdict == "pass"
    elapsed = time.monotonic() - start
    ok = img3 and img5 and counts_ok and census1 and census3 and all_pass and elapsed < 5
    _line(
        5,
        ok,
        f"image agreement 25/27 at p=3 {img3 and counts_ok}, 121/125 at p=5 "
        f"{img5}, censuses 33 orbits {{1:9,3:24}} {census1} and 16 orbits "
        f"{{1:8,3:8}} {census3}, in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_6_negative_controls_fail_exactly_right():
    from dcoset.scenarios import get_scenario, run_scenario

    results = []
    for name in ("background", "example1", "example2", "example3"):
        mutant = f"{name}-mutated"
        spec = get_scenario(mutant)
        report = run_scenario(mutant)
        exact = [c.id for c in report.failing()] == [spec.targeted_check]
        exit_code = cli_main(["verify", mutant])
        results.append((mutant, exact, exit_code))
    ok = all(exact and code == 1 for _, exact, code in results)
    detail = "; ".join(
        f"{m}: exact-fail={e}, exit={c}" for m, e, c in results
    )
    _line(6, ok, detail)
