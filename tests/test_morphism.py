from fractions import Fraction

import pytest

from dcoset.polyring import RingCtx
from dcoset.groebner import Ideal, equal_ideals, groebner_basis
from dcoset.geometry import locally_closed, vanishing, whole_space
from dcoset.morphism import (
    MalformedSectionError,
    OutsideDomainError,
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


@pytest.fixture
def shear_map():
    M = RingCtx(("a11", "a12", "a21", "a22"))
    a11, a12, a21, a22 = M.gens()
    T = RingCtx(("b1", "b2", "d"))
    return PolyMap(M, T, (a21, a22, a11 * a22 - a12 * a21))


def test_apply(shear_map):
    assert shear_map.apply((1, 2, 3, 4)) == (3, 4, -2)


def test_map_arity_checked():
    R = RingCtx(("x",))
    T = RingCtx(("u", "v"))
    with pytest.raises(ValueError):
        PolyMap(R, T, (R.gen("x"),))


def test_clashing_names_rejected():
    R = RingCtx(("x",))
    with pytest.raises(ValueError):
        image_closure(PolyMap(R, R, (R.gen("x"),)), whole_space(R))


def test_image_closure_twisted_cubic():
    R = RingCtx(("t",))
    t = R.gen("t")
    T = RingCtx(("x", "y", "z"))
    x, y, z = T.gens()
    f = PolyMap(R, T, (t, t ** 2, t ** 3))
    cl = image_closure(f, whole_space(R))
    want = Ideal(T, [y - x ** 2, z - x ** 3])
    assert equal_ideals(cl, want)


def test_image_closure_respects_domain():
    R = RingCtx(("s", "t"))
    s, t = R.gens()
    T = RingCtx(("x", "y"))
    f = PolyMap(R, T, (s, t))
    dom = vanishing(Ideal(R, [s * t - 1]))
    cl = image_closure(f, dom)
    x, y = T.gens()
    assert equal_ideals(cl, Ideal(T, [x * y - 1]))


def test_empty_domain_gives_unit_ideal(shear_map):
    T = shear_map.target
    empty = vanishing(Ideal(shear_map.source, [shear_map.source.one()]))
    assert image_closure(shear_map, empty).generators == (T.one(),)
    # returned as is, not reduced modulo the (unit) stratum
    cons = parametric_image_constraints(shear_map, empty, Ideal(T, [T.one()]))
    assert cons.generators == (T.one(),)


def test_point_in_image(shear_map):
    dom = whole_space(shear_map.source)
    assert point_in_image(shear_map, dom, (0, 0, 0))
    assert point_in_image(shear_map, dom, (1, 0, 5))
    assert not point_in_image(shear_map, dom, (0, 0, 1))


def test_parametric_constraints_on_bad_stratum(shear_map):
    T = shear_map.target
    b1, b2, d = T.gens()
    stratum = Ideal(T, [b1, b2])
    cons = parametric_image_constraints(shear_map, whole_space(shear_map.source), stratum)
    assert equal_ideals(cons, Ideal(T, [d]))


def test_parametric_constraints_trivial_on_good_stratum(shear_map):
    T = shear_map.target
    b1 = T.gen("b1")
    cons = parametric_image_constraints(
        shear_map, whole_space(shear_map.source), Ideal(T, [b1 - 1])
    )
    assert cons.is_zero_ideal()


def test_verify_section_good(shear_map):
    M, T = shear_map.source, shear_map.target
    W = RingCtx(("b1", "b2", "d", "w"))
    b1, b2, d, w = W.gens()
    sec = SectionSpec(
        stratum=locally_closed(Ideal(W, []), Ideal(W, [b1])),
        section=PolyMap(W, M, (W.zero(), -d * w, b1, b2)),
        witnesses=((w, b1),),
    )
    assert verify_section(shear_map, whole_space(M), sec)


def test_verify_section_wrong_formula(shear_map):
    M = shear_map.source
    W = RingCtx(("b1", "b2", "d", "w"))
    b1, b2, d, w = W.gens()
    sec = SectionSpec(
        stratum=locally_closed(Ideal(W, []), Ideal(W, [b1])),
        section=PolyMap(W, M, (W.zero(), d * w, b1, b2)),  # sign flipped
        witnesses=((w, b1),),
    )
    assert not verify_section(shear_map, whole_space(M), sec)


def test_verify_section_rejects_non_unit_witness(shear_map):
    M = shear_map.source
    W = RingCtx(("b1", "b2", "d", "w"))
    b1, b2, d, w = W.gens()
    # w inverting a polynomial that uses w, and a target coordinate as u
    for witness in ((w, w * b1), (b1, w)):
        sec = SectionSpec(
            stratum=locally_closed(Ideal(W, []), Ideal(W, [b1])),
            section=PolyMap(W, M, (W.zero(), -d * w, b1, b2)),
            witnesses=(witness,),
        )
        with pytest.raises(MalformedSectionError, match="not a witness variable"):
            verify_section(shear_map, whole_space(M), sec)


def test_verify_section_rejects_unsolvable_witness(shear_map):
    M = shear_map.source
    W = RingCtx(("b1", "b2", "d", "w"))
    b1, b2, d, w = W.gens()
    sec = SectionSpec(
        stratum=vanishing(Ideal(W, [b1])),  # w*b1 - 1 has no solution here
        section=PolyMap(W, M, (W.zero(), -d * w, b1, b2)),
        witnesses=((w, b1),),
    )
    with pytest.raises(MalformedSectionError):
        verify_section(shear_map, whole_space(M), sec)


@pytest.fixture
def cone_pred():
    X = RingCtx(("x1", "x2", "x3", "x4"))
    x1, x2, x3, x4 = X.gens()
    return X, ProjectivePairPredicate(X, (x1, -x3), (x2, x4))


def test_pair_value_prefers_first(cone_pred):
    X, pred = cone_pred
    assert pred.value_at((1, 0, -2, 0)) == (1, 2)
    assert pred.value_at((0, 1, 0, 1)) == (1, 1)  # falls back


def test_pair_value_outside_domain(cone_pred):
    X, pred = cone_pred
    with pytest.raises(OutsideDomainError):
        pred.value_at((0, 0, 0, 0))


def test_proj_equal_up_to_scale(cone_pred):
    X, pred = cone_pred
    assert proj_equal(pred, (1, 0, 2, 0), (3, 0, 6, 0))
    assert not proj_equal(pred, (1, 0, 2, 0), (2, 0, 1, 0))


def test_consistency_on_carrier(cone_pred):
    X, pred = cone_pred
    x1, x2, x3, x4 = X.gens()
    cone = vanishing(Ideal(X, [x1 * x4 + x2 * x3]))
    assert check_consistent_on_overlap(pred, cone)
    assert not check_consistent_on_overlap(pred, whole_space(X))


def test_incidence(cone_pred):
    X, pred = cone_pred
    x1, x2, x3, x4 = X.gens()
    assert incidence_ok(pred, (x2, x4), (2, 1, -2, 1))
    assert not incidence_ok(pred, (x2, x4), (1, 1, 1, 1))
