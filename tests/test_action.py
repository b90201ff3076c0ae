from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcoset.polyring import RingCtx, as_point, evaluate, extend_ring, substitute
from dcoset.groebner import Ideal, equal_ideals, is_unit_ideal
from dcoset.geometry import vanishing, whole_space
from dcoset.morphism import PolyMap
from dcoset.parsing import parse_point
from dcoset.action import (
    GroupActionSpec,
    NonInvariantMapError,
    base_in_all_orbit_closures,
    check_invariant,
    fixed_stratum_check,
    generic_orbit_closure,
    orbit_closure,
    same_orbit,
    separation_report,
    separation_report_with,
)
from dcoset.scenarios import isotropic_shear_action, row_shear_action, scaling_action


@pytest.fixture
def shear():
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


@pytest.fixture
def scaling():
    B = RingCtx(("m1", "m2"))
    C = extend_ring(B, ("s", "u"))
    P = RingCtx(("s", "u"))
    return GroupActionSpec(
        space=B,
        params=("s", "u"),
        constraint=Ideal(P, [P.gen("s") * P.gen("u") - 1]),
        action=(C.gen("s") * C.gen("m1"), C.gen("s") * C.gen("m2")),
        identity={"s": 1, "u": 1},
    )


def test_identity_must_act_trivially():
    M = RingCtx(("x",))
    C = extend_ring(M, ("g",))
    with pytest.raises(ValueError):
        GroupActionSpec(
            space=M,
            params=("g",),
            constraint=Ideal(RingCtx(("g",)), []),
            action=(C.gen("x") + C.gen("g"),),
            identity={"g": 1},  # shifts by 1, not the identity
        )


def test_act_on_point(shear):
    assert shear.act_on_point((2,), (1, 1, 3, 4)) == (7, 9, 3, 4)


def test_act_on_point_checks_constraint(scaling):
    with pytest.raises(ValueError):
        scaling.act_on_point((2, 3), (1, 1))  # 2*3 != 1
    assert scaling.act_on_point((2, Fraction(1, 2)), (1, 1)) == (2, 2)


def test_invariants(shear):
    M = shear.space
    a11, a12, a21, a22 = M.gens()
    det = a11 * a22 - a12 * a21
    assert check_invariant(shear, a21)
    assert check_invariant(shear, det)
    assert not check_invariant(shear, a11)


def test_invariant_modulo_constraint(scaling):
    B = scaling.space
    m1, m2 = B.gens()
    # ratios are invariant only as far as polynomials allow; products with
    # the inverse parameter are not polynomial, but m1*m2 scales by s^2
    assert not check_invariant(scaling, m1 * m2)


def test_orbit_closure_line(shear):
    M = shear.space
    a11, a12, a21, a22 = M.gens()
    cl = orbit_closure(shear, (0, 0, 1, 0))
    want = Ideal(M, [a12, a21 - 1, a22])
    assert equal_ideals(cl, want)


def test_orbit_closure_of_fixed_point(shear):
    M = shear.space
    a11, a12, a21, a22 = M.gens()
    cl = orbit_closure(shear, (1, 0, 0, 0))
    want = Ideal(M, [a11 - 1, a12, a21, a22])
    assert equal_ideals(cl, want)


def test_scaling_orbit_closure_is_the_line(scaling):
    cl = orbit_closure(scaling, (2, 3))
    B = scaling.space
    m1, m2 = B.gens()
    assert equal_ideals(cl, Ideal(B, [3 * m1 - 2 * m2]))


def test_same_orbit(shear):
    assert same_orbit(shear, (0, 0, 1, 1), (3, 3, 1, 1))
    assert not same_orbit(shear, (0, 0, 1, 0), (0, 0, 0, 1))
    assert not same_orbit(shear, (1, 0, 0, 0), (0, 1, 0, 0))


def test_fixed_stratum(shear):
    M = shear.space
    a21, a22 = M.gen("a21"), M.gen("a22")
    assert fixed_stratum_check(shear, vanishing(Ideal(M, [a21, a22])))
    assert not fixed_stratum_check(shear, whole_space(M))


def test_generic_orbit_closure_of_the_row_shear(shear):
    closed = generic_orbit_closure(shear)
    R = closed.ring
    assert R.vars == shear.space.vars + ("a11_0", "a12_0", "a21_0", "a22_0")
    a11, a12, a21, a22, b11, b12, b21, b22 = R.gens()
    want = [a21 - b21, a22 - b22, (a11 * a22 - a12 * a21) - (b11 * b22 - b12 * b21)]
    assert equal_ideals(closed, Ideal(R, want))


def test_generic_orbit_closure_of_scaling_is_the_minors_ideal(scaling):
    closed = generic_orbit_closure(scaling)
    R = closed.ring
    m1, m2, m1_0, m2_0 = R.gens()
    assert R.vars == ("m1", "m2", "m1_0", "m2_0")
    assert equal_ideals(closed, Ideal(R, [m1 * m2_0 - m2 * m1_0]))


def test_base_in_all_orbit_closures(scaling):
    assert base_in_all_orbit_closures(scaling, (0, 0))
    assert not base_in_all_orbit_closures(scaling, (1, 0))


def test_separation_report(shear):
    M = shear.space
    a11, a12, a21, a22 = M.gens()
    det = a11 * a22 - a12 * a21
    T = RingCtx(("b1", "b2", "d"))
    inv = PolyMap(M, T, (a21, a22, det))
    verdicts = separation_report(
        shear,
        inv,
        [
            ((0, 0, 1, 1), (3, 3, 1, 1)),
            ((0, 0, 1, 0), (0, 0, 0, 1)),
            ((1, 0, 0, 0), (0, 1, 0, 0)),
        ],
    )
    assert [v.verdict for v in verdicts] == ["same-orbit", "separated", "collapsed"]
    assert "collapsed" in verdicts[2].describe()


def test_separation_report_rejects_non_invariant(shear):
    M = shear.space
    T = RingCtx(("c",))
    bad = PolyMap(M, T, (M.gen("a11"),))
    with pytest.raises(NonInvariantMapError):
        separation_report(shear, bad, [((0, 0, 0, 0), (1, 0, 0, 0))])


def test_separation_report_with_custom_equality(shear):
    verdicts = separation_report_with(
        shear,
        [((0, 0, 1, 1), (3, 3, 1, 1))],
        lambda p, q: True,
    )
    assert verdicts[0].verdict == "same-orbit"


def test_points_are_plain_tuples(shear, scaling):
    """Every point the API takes in or hands back is a plain tuple, its
    integral coordinates ints, normalized by `as_point` alone."""
    half = Fraction(1, 2)
    M = shear.space
    a11, a12, a21, a22 = M.gens()
    inv = PolyMap(M, RingCtx(("b1", "b2", "d")), (a21, a22, a11 * a22 - a12 * a21))
    p = (Fraction(4, 2), half, 1, 0)
    [v] = separation_report(shear, inv, [(p, (Fraction(6, 2), half, 1, 0))])
    points = [
        (as_point(M, p), (2, half, 1, 0)),
        (parse_point("4/2,1/2,1,0", 4), (2, half, 1, 0)),
        (inv.apply(p), (1, 0, -half)),
        (shear.act_on_point((Fraction(2),), p), (4, half, 1, 0)),
        (scaling.act_on_point((2, half), (half, 3)), (1, 6)),
        (v.p, (2, half, 1, 0)),
        (v.q, (3, half, 1, 0)),
    ]
    for got, want in points:
        assert type(got) is tuple and got == want
        assert all(type(c) is int or c.denominator != 1 for c in got)
    assert v.verdict == "same-orbit"
    with pytest.raises(ValueError, match="point has 3 coordinates, ring .* has arity 4"):
        as_point(M, (1, 2, 3))
    with pytest.raises(TypeError):
        as_point(M, (1.0, 0, 0, 0))


# the three built-in actions, each with a map from a nonzero rational t to
# a group element that satisfies its constraints
_ACTIONS = {
    "row-shear": (row_shear_action(), lambda t: (t,)),
    "scaling": (scaling_action(), lambda t: (t, 1 / t)),
    "isotropic-shear": (isotropic_shear_action(), lambda t: (t,)),
}
_SMALL = st.fractions(-3, 3, max_denominator=4)


@st.composite
def _action_cases(draw):
    """An action, a polynomial f and a point x on its space, a group
    element g, and a second point that is g·x or drawn at random."""
    spec, element = _ACTIONS[draw(st.sampled_from(sorted(_ACTIONS)))]
    space = spec.space
    exps = st.tuples(*[st.integers(0, 2)] * space.arity)
    f = space.zero()
    for e, c in draw(st.lists(st.tuples(exps, st.integers(-5, 5)), max_size=4)):
        f = f + space.monomial(e, c)
    x = tuple(draw(_SMALL) for _ in range(space.arity))
    g = element(draw(_SMALL.filter(bool)))
    if draw(st.booleans()):
        y = spec.act_on_point(g, x)
    else:
        y = tuple(draw(_SMALL) for _ in range(space.arity))
    return spec, f, as_point(space, x), g, y


@settings(max_examples=150, deadline=None)
@given(_action_cases())
def test_pullback_evaluates_to_f_at_the_moved_point(case):
    spec, f, x, g, _ = case
    pulled = spec.pullback(f)
    assert pulled.ring == spec.combined
    assert evaluate(pulled, x + as_point(spec.constraint.ring, g)) == evaluate(
        f, spec.act_on_point(g, x)
    )


def _same_orbit_by_hand(spec, p, q):
    """The system action(g, p) - q plus the group constraints, written out
    in the parameter ring: the reference for same_orbit."""
    pring = spec.constraint.ring
    assignment = dict(zip(spec.space.vars, as_point(spec.space, p)))
    gens = [
        substitute(a, assignment, into=pring) - pring.const(t)
        for a, t in zip(spec.action, as_point(spec.space, q))
    ]
    gens.extend(spec.constraint.generators)
    return not is_unit_ideal(Ideal(pring, gens))


@pytest.mark.parametrize(
    "name,pairs,want",
    [
        (
            "row-shear",
            [
                ((0, 0, 1, 1), (3, 3, 1, 1)),
                ((0, 0, 1, 0), (0, 0, 0, 1)),
                ((1, 0, 0, 0), (0, 1, 0, 0)),
            ],
            [True, False, False],
        ),
        (
            "isotropic-shear",
            [
                ((1, 0, 2, 0), (3, 0, 6, 0)),
                ((1, 0, 2, 0), (2, 0, 1, 0)),
                ((1, 1, -1, 1), (0, 1, 0, 1)),
                ((0, 1, 0, 1), (0, 1, 0, 2)),
                ((2, 1, -2, 1), (-3, 1, 3, 1)),
            ],
            [False, False, True, False, True],
        ),
    ],
)
def test_same_orbit_on_the_scenario_separation_pairs(name, pairs, want):
    spec, _ = _ACTIONS[name]
    assert [same_orbit(spec, p, q) for p, q in pairs] == want
    assert [_same_orbit_by_hand(spec, p, q) for p, q in pairs] == want


@settings(max_examples=150, deadline=None)
@given(_action_cases())
def test_same_orbit_agrees_with_the_system_by_hand(case):
    spec, _, x, g, y = case
    assert same_orbit(spec, x, y) == _same_orbit_by_hand(spec, x, y)
    assert same_orbit(spec, x, spec.act_on_point(g, x))
