from fractions import Fraction

import pytest

from dcoset.polyring import RingCtx, extend_ring
from dcoset.groebner import Ideal
from dcoset.geometry import locally_closed, vanishing, whole_space
from dcoset.morphism import PolyMap
from dcoset.action import GroupActionSpec
from dcoset.fforacle import (
    DEFAULT_PRIMES,
    FpConfig,
    GuardViolation,
    compile_poly,
    cross_check,
    enumerate_image,
    enumerate_orbits,
    group_elements,
    oracle_work,
    set_pred_mod_p,
)
from dcoset.scenarios import CensusShadow, get_scenario, scenario_names


def test_default_primes():
    assert DEFAULT_PRIMES == (3, 5, 7)


def test_fpconfig_requires_prime():
    FpConfig(3)
    with pytest.raises(ValueError):
        FpConfig(4)
    with pytest.raises(ValueError):
        FpConfig(1)


def test_compile_poly_basic():
    R = RingCtx(("x", "y"))
    x, y = R.gens()
    f = compile_poly(x * x - y + 2, 5)
    assert f((3, 1)) == (9 - 1 + 2) % 5
    assert f((0, 2)) == 0


def test_compile_poly_rational_coefficient():
    R = RingCtx(("x",))
    f = compile_poly(Fraction(1, 2) * R.gen("x"), 5)
    # 1/2 = 3 mod 5
    assert f((2,)) == 1
    assert f((1,)) == 3


def test_guard_violation():
    R = RingCtx(("x",))
    with pytest.raises(GuardViolation):
        compile_poly(Fraction(1, 3) * R.gen("x"), 3)
    # the CLI reports every ValueError as one `error:` line with exit 2
    assert issubclass(GuardViolation, ValueError)
    assert issubclass(GuardViolation, ArithmeticError)


def test_set_pred_mod_p():
    R = RingCtx(("x", "y"))
    x, y = R.gens()
    s = locally_closed(Ideal(R, [x * y]), Ideal(R, [x]))
    member = set_pred_mod_p(s, 3)
    assert member((1, 0))
    assert not member((0, 1))
    assert not member((0, 0))
    assert not member((1, 1))


def test_enumerate_image_parabola():
    R = RingCtx(("t",))
    T = RingCtx(("x", "y"))
    f = PolyMap(R, T, (R.gen("t"), R.gen("t") ** 2))
    enum = enumerate_image(f, None, FpConfig(5))
    assert enum.source_count == 5
    assert len(enum.points) == 5
    assert (2, 4) in enum.points
    assert enum.points == tuple(sorted(enum.points))


def _trivial_action(n=2):
    R = RingCtx(tuple(f"x{i}" for i in range(1, n + 1)))
    C = extend_ring(R, ("g",))
    return GroupActionSpec(
        space=R,
        params=("g",),
        constraint=Ideal(RingCtx(("g",)), []),
        action=tuple(C.gen(v) for v in R.vars),
        identity={"g": 0},
    )


def test_trivial_action_census():
    census = enumerate_orbits(_trivial_action(), FpConfig(3))
    assert census.point_count == 9
    assert census.orbit_count == 9
    assert census.sizes == {1: 9}
    assert len(census.fixed_points) == 9


def test_group_elements_respect_constraint():
    P = RingCtx(("s", "u"))
    B = RingCtx(("m",))
    C = extend_ring(B, ("s", "u"))
    spec = GroupActionSpec(
        space=B,
        params=("s", "u"),
        constraint=Ideal(P, [P.gen("s") * P.gen("u") - 1]),
        action=(C.gen("s") * C.gen("m"),),
        identity={"s": 1, "u": 1},
    )
    els = group_elements(spec, 5)
    assert len(els) == 4  # the units of F_5
    assert all((s * u) % 5 == 1 for s, u in els)


def test_census_partition_invariants():
    """Orbit sizes sum to the point count and divide the group order."""
    spec = _shear_spec()
    for p in (3, 5):
        census = enumerate_orbits(spec, FpConfig(p))
        assert sum(s * c for s, c in census.sizes.items()) == census.point_count
        assert all(census.group_order % s == 0 for s in census.sizes)


def _shear_spec():
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


def test_shear_census_frozen_values():
    census = enumerate_orbits(_shear_spec(), FpConfig(3))
    assert census.point_count == 81
    assert census.orbit_count == 33
    assert census.sizes == {1: 9, 3: 24}


def test_unstable_domain_rejected():
    spec = _shear_spec()
    M = spec.space
    a11 = M.gen("a11")
    # the hyperplane a11 = 0 is not shear-stable
    dom = vanishing(Ideal(M, [a11]))
    with pytest.raises(ValueError) as info:
        enumerate_orbits(spec, FpConfig(3), dom)
    assert str(info.value) == "action moved (0, 0, 1, 0) outside the domain to (1, 0, 1, 0)"


def test_cross_check_example1_agreement():
    r = cross_check("example1", FpConfig(3))
    assert r.verdict == "pass"
    by_id = {c.id: c for c in r.checks}
    assert "27/27 points agree" in by_id["image-agreement-p3"].detail
    assert "33 orbits" in by_id["orbit-census-p3"].detail


def test_cross_check_example1_p5():
    r = cross_check("example1", FpConfig(5))
    by_id = {c.id: c for c in r.checks}
    assert "125/125 points agree" in by_id["image-agreement-p5"].detail
    assert "121 points" in by_id["image-agreement-p5"].detail
    assert r.verdict == "pass"


def test_cross_check_example3():
    r = cross_check("example3", FpConfig(3))
    assert r.verdict == "pass"
    by_id = {c.id: c for c in r.checks}
    assert "32 points, 16 orbits" in by_id["orbit-census-p3"].detail


def test_cross_check_mutant_mismatch_witness():
    r = cross_check("example1-mutated", FpConfig(3))
    assert r.verdict == "fail"
    failing = {c.id: c for c in r.checks if c.status == "fail"}
    assert set(failing) == {"image-agreement-p3"}
    assert "first mismatch at (0, 0, 1)" in failing["image-agreement-p3"].detail


def test_cross_check_skips_undeclared_prime():
    r = cross_check("example2", FpConfig(5))
    assert r.verdict == "skip"
    assert [c.status for c in r.checks] == ["skip"]
    assert any("skipped at p=5" in c.detail for c in r.checks)
    # a skipped shadow costs the CLI's work estimate nothing
    assert oracle_work(get_scenario("example2").shadows, 5) == 0


def test_cross_check_monotone_in_p():
    """Larger fields see more points; shapes follow the closed forms."""
    small = cross_check("background", FpConfig(3))
    large = cross_check("background", FpConfig(5))
    assert small.verdict == large.verdict == "pass"


@pytest.mark.parametrize("p", (3, 5))
def test_work_estimate_bounds_the_real_work(p):
    """The CLI's up-front estimate is at least what each shadow enumerates."""
    cfg = FpConfig(p)
    for name in scenario_names():
        for shadow in get_scenario(name).shadows:
            if shadow.primes is not None and p not in shadow.primes:
                continue
            if isinstance(shadow, CensusShadow):
                census = enumerate_orbits(shadow.action, cfg, shadow.domain)
                real = census.point_count * census.group_order
            else:
                enum = enumerate_image(shadow.map, shadow.domain, cfg)
                real = enum.source_count + p ** shadow.map.target.arity
            assert oracle_work((shadow,), p) >= real, (name, shadow.id)
