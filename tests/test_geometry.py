import itertools
from fractions import Fraction

import pytest

from dcoset.polyring import RingCtx
from dcoset.groebner import Ideal, equal_ideals, ideal_product
from dcoset.geometry import (
    ConstructibleSet,
    closure,
    contains,
    contains_point,
    difference,
    intersection,
    is_empty,
    is_open_in,
    locally_closed,
    same_set,
    union,
    vanishing,
    whole_space,
)
from dcoset.fforacle import _points, _set_source
from dcoset.scenarios import _shear_core


@pytest.fixture
def xy():
    return RingCtx(("x", "y"))


def test_whole_and_empty(xy):
    assert not is_empty(whole_space(xy))
    assert is_empty(ConstructibleSet(xy))
    assert is_empty(vanishing(Ideal(xy, [xy.one()])))


def test_piece_emptiness_when_excluded_covers(xy):
    x, y = xy.gens()
    # V(x) minus V(x*y): removing a superset leaves nothing
    s = locally_closed(Ideal(xy, [x]), Ideal(xy, [x * y]))
    assert is_empty(s)


def test_membership(xy):
    x, y = xy.gens()
    # V(x*y) minus V(x): the x-axis with the origin removed
    s = locally_closed(Ideal(xy, [x * y]), Ideal(xy, [x]))
    assert contains_point(s, (3, 0))
    assert not contains_point(s, (0, 3))
    assert not contains_point(s, (0, 0))


def test_closure_adds_boundary(xy):
    x, y = xy.gens()
    s = locally_closed(Ideal(xy, [x * y]), Ideal(xy, [x]))
    cl = closure(s)
    assert list(cl.generators) == [y]


def test_closure_of_empty_is_empty(xy):
    cl = closure(ConstructibleSet(xy))
    assert is_empty(vanishing(cl))


def test_complement_of_complement(xy):
    x, _ = xy.gens()
    v = vanishing(Ideal(xy, [x]))
    w = difference(whole_space(xy), difference(whole_space(xy), v))
    assert same_set(w, v)


def test_union_and_intersection(xy):
    x, y = xy.gens()
    a = vanishing(Ideal(xy, [x]))
    b = vanishing(Ideal(xy, [y]))
    u = union(a, b)
    assert contains_point(u, (0, 5))
    assert contains_point(u, (5, 0))
    assert not contains_point(u, (1, 1))
    i = intersection(a, b)
    assert same_set(i, vanishing(Ideal(xy, [x, y])))


def test_difference_and_contains(xy):
    x, y = xy.gens()
    axis = vanishing(Ideal(xy, [x]))
    punctured = difference(axis, vanishing(Ideal(xy, [x, y])))
    assert contains(axis, punctured)
    assert not contains(punctured, axis)
    assert not is_empty(punctured)
    assert is_empty(difference(punctured, axis))


def test_open_and_closed(xy):
    x, _ = xy.gens()
    v = vanishing(Ideal(xy, [x]))
    assert not is_open_in(v, whole_space(xy))
    assert is_open_in(difference(whole_space(xy), v), whole_space(xy))
    assert is_open_in(whole_space(xy), whole_space(xy))


def test_is_open_in_requires_containment(xy):
    x, y = xy.gens()
    with pytest.raises(ValueError):
        is_open_in(whole_space(xy), vanishing(Ideal(xy, [x])))


def _open_by_containment(subset, ambient):
    """Openness read as two containments: ambient minus subset equals its
    own closure intersected with ambient."""
    rest = difference(ambient, subset)
    return same_set(rest, intersection(vanishing(closure(rest)), ambient))


def test_is_open_in_matches_the_containment_formula(xy):
    x, y = xy.gens()
    plane = whole_space(xy)
    off_y_axis = locally_closed(Ideal(xy, []), Ideal(xy, [x]))
    core = _shear_core()
    top = RingCtx(("x11", "x12", "x21", "x22"))
    x11, x12, x21, x22 = top.gens()
    good_tops = locally_closed(
        Ideal(top, []), ideal_product(Ideal(top, [x11, x21]), Ideal(top, [x12, x22]))
    )
    cases = [
        (off_y_axis, plane, True),
        (vanishing(Ideal(xy, [x])), plane, False),
        # multi-piece subsets: the plane minus the origin, and the plane minus
        # the y-axis with the origin put back
        (union(off_y_axis, locally_closed(Ideal(xy, []), Ideal(xy, [y]))), plane, True),
        (union(off_y_axis, vanishing(Ideal(xy, [x, y]))), plane, False),
        # inside the two axes, one axis is not open: they meet at the origin
        (vanishing(Ideal(xy, [x])), vanishing(Ideal(xy, [x * y])), False),
        (core["predicted"], whole_space(core["T"]), False),
        (good_tops, whole_space(top), True),
    ]
    for subset, ambient, expected in cases:
        assert is_open_in(subset, ambient) is expected
        assert _open_by_containment(subset, ambient) is expected


def test_set_algebra_keeps_empty_pieces_and_predicates_skip_them(xy):
    x, y = xy.gens()
    a = locally_closed(Ideal(xy, [x * y]), Ideal(xy, [x]))
    # empty over the algebraic closure: (x^2 - 1)*y/3 vanishes wherever x^2 - 1 does
    ghost = locally_closed(
        Ideal(xy, [x ** 2 - 1]), Ideal(xy, [Fraction(1, 3) * (x ** 2 - 1) * y])
    )
    both = union(a, ghost)
    assert both.pieces == a.pieces + ghost.pieces
    assert ghost.pieces[0].is_empty()
    assert is_empty(both) is is_empty(a) is False
    assert is_empty(union(ConstructibleSet(xy), ghost))
    assert same_set(both, a) and same_set(a, both)
    assert equal_ideals(closure(both), closure(a))
    for pt in itertools.product(range(-3, 4), repeat=2):
        assert contains_point(both, pt) == contains_point(a, pt)
    for p in (5, 7):  # no denominator of the pieces is divisible by p
        in_both, in_a = (_points("predicted", p, 2, _set_source(s, p)) for s in (both, a))
        assert in_both == in_a


def test_same_set_is_representation_independent(xy):
    x, y = xy.gens()
    # two pieces vs one: V(xy) = V(x) u V(y)
    split = union(vanishing(Ideal(xy, [x])), vanishing(Ideal(xy, [y])))
    joined = vanishing(Ideal(xy, [x * y]))
    assert same_set(split, joined)


def _grid_points(s, bound=4):
    pts = []
    for coords in itertools.product(range(-bound, bound + 1), repeat=s.ring.arity):
        if contains_point(s, coords):
            pts.append(coords)
    return pts


def test_boolean_ops_agree_with_pointwise_semantics(xy):
    """Rational grid sanity: symbolic Boolean algebra matches point logic."""
    x, y = xy.gens()
    sets = {
        "axis": vanishing(Ideal(xy, [x])),
        "hyper": vanishing(Ideal(xy, [x * y - 1])),
        "punctured": locally_closed(Ideal(xy, [y]), Ideal(xy, [x, y])),
    }
    grid = list(itertools.product(range(-3, 4), repeat=2))
    for a in sets.values():
        for b in sets.values():
            u = union(a, b)
            i = intersection(a, b)
            d = difference(a, b)
            for pt in grid:
                ina, inb = contains_point(a, pt), contains_point(b, pt)
                assert contains_point(u, pt) == (ina or inb)
                assert contains_point(i, pt) == (ina and inb)
                assert contains_point(d, pt) == (ina and not inb)


def test_closure_is_idempotent_and_monotone(xy):
    x, y = xy.gens()
    s = locally_closed(Ideal(xy, [x * y]), Ideal(xy, [y]))
    cl1 = vanishing(closure(s))
    cl2 = vanishing(closure(cl1))
    assert same_set(cl1, cl2)
    assert contains(cl1, s)
