import functools
import io
import itertools
import json
import re
import tokenize
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcoset.polyring import Polynomial, RingCtx, evaluate, extend_ring, lift
from dcoset.groebner import Ideal
from dcoset.geometry import (
    ConstructibleSet,
    LocallyClosedPiece,
    locally_closed,
    vanishing,
    whole_space,
)
from dcoset.morphism import PolyMap
from dcoset.action import GroupActionSpec
from dcoset.parsing import MAX_EXPONENT
import dcoset.fforacle as fforacle
from dcoset.fforacle import (
    DEFAULT_PRIMES,
    FpConfig,
    GuardViolation,
    ImageEnumeration,
    OrbitCensus,
    _census_check,
    _sweep,
    _tuple_source,
    cross_check,
    enumerate_image,
    enumerate_orbits,
    group_elements,
    oracle_work,
    set_pred_mod_p,
)
from dcoset.scenarios import CensusShadow, get_scenario, scenario_names


def _compile_map(polys, p, arity=3):
    """Evaluator of a coordinate map mod p at one point, through the sweep
    `enumerate_image` builds for `cross_check`."""
    sweep = _sweep(arity, "True", f"add({_tuple_source(polys, p)})", "add")

    def values(point):
        out = []
        assert sweep([point], out.append) == 1
        return out[0]

    return values


def _compile_one(poly, p):
    values = _compile_map([poly], p, poly.ring.arity)
    return lambda point: values(point)[0]


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
    f = _compile_one(x * x - y + 2, 5)
    assert f((3, 1)) == (9 - 1 + 2) % 5
    assert f((0, 2)) == 0


def test_compile_poly_rational_coefficient():
    R = RingCtx(("x",))
    f = _compile_one(Fraction(1, 2) * R.gen("x"), 5)
    # 1/2 = 3 mod 5
    assert f((2,)) == 1
    assert f((1,)) == 3


def test_guard_violation():
    R = RingCtx(("x",))
    with pytest.raises(GuardViolation):
        _compile_one(Fraction(1, 3) * R.gen("x"), 3)
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


# -- compiled evaluators against polyring.evaluate, reduced mod p

_R3 = RingCtx(("x", "y", "z"))
_TEST_PRIMES = st.sampled_from((2, 3, 5, 7, 11, 13))
_EXPONENT = st.one_of(st.integers(0, 3), st.just(MAX_EXPONENT), st.integers(0, MAX_EXPONENT))
_RATIONALS = st.fractions(-50, 50, max_denominator=15)


def _polys(exponent=_EXPONENT, coeff=_RATIONALS, ring=_R3):
    term = st.tuples(st.tuples(*[exponent] * ring.arity), coeff)
    return st.lists(term, max_size=5).map(
        lambda terms: sum((ring.monomial(e, c) for e, c in terms), ring.zero())
    )


@st.composite
def _cases(draw):
    poly = draw(_polys())
    p = draw(_TEST_PRIMES)
    return poly, p, draw(st.tuples(*[st.integers(0, p - 1)] * 3))


def _mod_p(value: Fraction, p: int) -> int:
    return value.numerator * pow(value.denominator, -1, p) % p


def _reducible_polys(p):
    """Polynomials whose coefficients all have an image mod p."""
    return _polys(coeff=_RATIONALS.filter(lambda c: c.denominator % p))


@settings(max_examples=300, deadline=None)
@given(_cases())
@example((_R3.zero(), 5, (1, 2, 3)))
@example((_R3.monomial((0, 0, 0), Fraction(7, 2)), 5, (4, 4, 4)))
@example((_R3.monomial((MAX_EXPONENT, 1, 0), Fraction(-3, 4)), 13, (12, 5, 0)))
def test_compile_poly_matches_evaluate_mod_p(case):
    poly, p, point = case
    bad = [c for c in poly.terms.values() if c.denominator % p == 0]
    if bad:
        with pytest.raises(GuardViolation) as info:
            _compile_one(poly, p)
        assert str(info.value) == f"coefficient {bad[0]} has denominator divisible by {p}"
        return
    assert _compile_one(poly, p)(point) == _mod_p(evaluate(poly, point), p)


@settings(max_examples=100, deadline=None)
@given(_TEST_PRIMES, st.data())
def test_compiled_map_matches_compile_poly(p, data):
    polys = data.draw(st.lists(_reducible_polys(p), max_size=4))
    point = data.draw(st.tuples(*[st.integers(0, p - 1)] * 3))
    values = _compile_map(polys, p)(point)
    assert values == tuple(_mod_p(evaluate(f, point), p) for f in polys)


def _in_set_mod_p(s, point, p):
    """LocallyClosedPiece.contains_point, with each value reduced mod p."""

    def vanishes(ideal):
        return all(_mod_p(evaluate(g, point), p) == 0 for g in ideal.generators)

    return any(
        vanishes(piece.carrier) and (piece.excluded is None or not vanishes(piece.excluded))
        for piece in s.pieces
    )


def _small_polys(ring):
    """Low degrees and small integer coefficients, so generators vanish mod
    p often."""
    return _polys(st.integers(0, 2), st.integers(-3, 3).map(Fraction), ring)


def _pieces(ring):
    gens = st.lists(_small_polys(ring), max_size=2).map(lambda g: Ideal(ring, g))
    return st.builds(LocallyClosedPiece, gens, st.none() | gens)


_PIECES = _pieces(_R3)


@settings(max_examples=200, deadline=None)
@given(st.lists(_PIECES, max_size=3).map(lambda ps: ConstructibleSet(_R3, ps)), _TEST_PRIMES, st.data())
def test_set_pred_mod_p_matches_piece_membership(s, p, data):
    member = set_pred_mod_p(s, p)
    for _ in range(5):
        point = data.draw(st.tuples(*[st.integers(0, p - 1)] * 3))
        assert member(point) is _in_set_mod_p(s, point, p)


# -- the generated sweeps against enumerations written out in the test

_SPACES = {1: RingCtx(_R3.vars[:1]), 2: RingCtx(_R3.vars[:2]), 3: _R3}
_SMALL_PRIMES = st.sampled_from((2, 3, 5))


def _sets(ring):
    return st.none() | st.lists(_pieces(ring), max_size=2).map(
        lambda ps: ConstructibleSet(ring, ps)
    )


@st.composite
def _census_cases(draw):
    """x -> x + g*b(x) (+ h*c(x)) on a space of arity 1-3, in a group cut out
    by at most one constraint without constant term, so g = h = 0 is the
    identity; a random domain, not always stable, and a random stratum."""
    space = _SPACES[draw(st.integers(1, 3))]
    params = ("g", "h")[: draw(st.integers(1, 2))]
    combined = extend_ring(space, params)
    action = []
    for v in space.vars:
        a = combined.gen(v)
        for g in params:
            a = a + lift(draw(_small_polys(space)), combined) * combined.gen(g)
        action.append(a)
    group = RingCtx(params)
    constraint = [
        Polynomial(group, {e: c for e, c in f.terms.items() if any(e)})
        for f in draw(st.lists(_small_polys(group), max_size=1))
    ]
    spec = GroupActionSpec(
        space=space,
        params=params,
        constraint=Ideal(group, constraint),
        action=tuple(action),
        identity=dict.fromkeys(params, 0),
    )
    return spec, draw(_sets(space)), draw(_sets(space)), draw(_SMALL_PRIMES)


@st.composite
def _image_cases(draw):
    source = _SPACES[draw(st.integers(1, 3))]
    target = _SPACES[draw(st.integers(1, 3))]
    f = PolyMap(source, target, [draw(_small_polys(source)) for _ in target.vars])
    return f, draw(_sets(source)), draw(_SMALL_PRIMES)


def _all_points(p, arity):
    return itertools.product(range(p), repeat=arity)


def _reference_census(spec, p, domain=None, stratum=None, points=None):
    """enumerate_orbits point by point, with evaluate mod p."""
    elements = [
        g
        for g in _all_points(p, len(spec.params))
        if all(_mod_p(evaluate(c, g), p) == 0 for c in spec.constraint.generators)
    ]
    count, seen, sizes, fixed, in_stratum = 0, set(), {}, [], []
    for x in _all_points(p, spec.space.arity) if points is None else points:
        if domain is not None and not _in_set_mod_p(domain, x, p):
            continue
        count += 1
        if stratum is not None and _in_set_mod_p(stratum, x, p):
            in_stratum.append(x)
        if x in seen:
            continue
        orbit = {x}
        for g in elements:
            y = tuple(_mod_p(evaluate(a, x + g), p) for a in spec.action)
            if domain is not None and not _in_set_mod_p(domain, y, p):
                raise ValueError(f"action moved {x} outside the domain to {y}")
            orbit.add(y)
        seen |= orbit
        sizes[len(orbit)] = sizes.get(len(orbit), 0) + 1
        if len(orbit) == 1:
            fixed.append(x)
    return OrbitCensus(
        p=p,
        point_count=count,
        orbit_count=sum(sizes.values()),
        sizes=dict(sorted(sizes.items())),
        fixed_points=tuple(sorted(fixed)),
        group_order=len(elements),
        stratum_points=tuple(in_stratum),
    )


def _reference_image(f, domain, p):
    """enumerate_image point by point, with evaluate mod p."""
    sources = [
        x
        for x in _all_points(p, f.source.arity)
        if domain is None or _in_set_mod_p(domain, x, p)
    ]
    hit = {tuple(_mod_p(evaluate(c, x), p) for c in f.coords) for x in sources}
    return ImageEnumeration(p=p, source_count=len(sources), points=tuple(sorted(hit)))


@settings(max_examples=100, deadline=None)
@given(_census_cases())
def test_enumerate_orbits_matches_reference(case):
    spec, domain, stratum, p = case
    try:
        want = _reference_census(spec, p, domain, stratum)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            enumerate_orbits(spec, FpConfig(p), domain, stratum)
        assert str(info.value) == str(exc)
    else:
        assert enumerate_orbits(spec, FpConfig(p), domain, stratum) == want


@settings(max_examples=150, deadline=None)
@given(_image_cases())
def test_enumerate_image_matches_reference(case):
    f, domain, p = case
    assert enumerate_image(f, domain, FpConfig(p)) == _reference_image(f, domain, p)


# every name the generated code may use besides the locals x0, x1, ... and
# y0, y1, ...: the sweep's own locals and arguments and the methods it calls
_SCAFFOLD = frozenset(
    "def return for in if and or not continue True False "
    "sweep member P E n x seen sizes fixed stratum escape len add orbit size get".split()
)
_OPERATORS = frozenset("( ) [ ] { } , : . = += |= * ** + % ==".split())
_LAYOUT = (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def _assert_generated_grammar(source):
    """No caller text can reach exec: the source is ints, generated names,
    the scaffold's keywords and names, and operators."""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert tok.string in _SCAFFOLD or re.fullmatch(r"[xy][0-9]+", tok.string), tok
        elif tok.type == tokenize.NUMBER:
            assert re.fullmatch(r"[0-9]+", tok.string), tok
        elif tok.type == tokenize.OP:
            assert tok.string in _OPERATORS, tok
        else:
            assert tok.type in _LAYOUT, tok


@settings(max_examples=60, deadline=None)
@given(_census_cases(), _image_cases(), _TEST_PRIMES, st.data())
def test_generated_source_is_ints_and_indices(census, image, p, data):
    """Every source the oracle compiles: the group, census and image sweeps,
    a membership predicate, and a map with rational coefficients and large
    exponents."""
    spec, domain, stratum, q = census
    f, source_domain, r = image
    polys = data.draw(st.lists(_reducible_polys(p), max_size=4))
    with mock.patch.object(fforacle, "_compile", wraps=fforacle._compile) as spy:
        try:
            enumerate_orbits(spec, FpConfig(q), domain, stratum)
        except ValueError:  # the domain is not stable under the action
            pass
        enumerate_image(f, source_domain, FpConfig(r))
        set_pred_mod_p(ConstructibleSet(_R3, data.draw(st.lists(_PIECES, max_size=3))), p)
        _compile_map(polys, p)
    sources = [call.args[0] for call in spy.call_args_list]
    assert [s.split("(")[0] for s in sources] == ["def sweep"] * 3 + ["def member", "def sweep"]
    for source in sources:
        _assert_generated_grammar(source)


def test_sweeps_take_thirty_variables(monkeypatch):
    """Each sweep unpacks a point of a 30-variable space in one flat loop;
    one nested block per variable would pass CPython's limit of 20."""
    ring = RingCtx(tuple(f"v{i}" for i in range(30)))
    v = ring.gens()
    combined = extend_ring(ring, ("g",))
    w = combined.gens()
    shear = GroupActionSpec(
        space=ring,
        params=("g",),
        constraint=Ideal(RingCtx(("g",)), []),
        action=(w[0] + w[30] * w[29], *w[1:30]),
        identity={"g": 0},
    )
    domain = locally_closed(Ideal(ring, [v[1] * v[2] - v[3]]), Ideal(ring, [v[28]]))
    stratum = vanishing(Ideal(ring, [v[29]]))

    def point(v0, v28, v29):
        return (v0, 2, 3, 1) + (4,) * 24 + (v28, v29)

    points = [point(0, 1, 0), point(3, 1, 1), point(1, 0, 1), point(3, 1, 0)]
    monkeypatch.setattr(
        fforacle,
        "enumerate_points",
        lambda p, arity: iter(points) if arity == 30 else _all_points(p, arity),
    )
    census = enumerate_orbits(shear, FpConfig(5), domain, stratum)
    assert (census.point_count, census.orbit_count, census.sizes) == (3, 3, {1: 2, 5: 1})
    assert census.stratum_points == census.fixed_points == (point(0, 1, 0), point(3, 1, 0))
    assert census == _reference_census(shear, 5, domain, stratum, points)
    ends = PolyMap(ring, RingCtx(("a", "b")), (v[0], v[29]))
    enum = enumerate_image(ends, domain, FpConfig(5))
    assert enum == ImageEnumeration(p=5, source_count=3, points=((0, 0), (3, 0), (3, 1)))


def test_compile_poly_handles_long_polynomials():
    """6400 terms and a 100-variable monomial: summed or multiplied in one
    flat chain, either would overflow CPython's compiler recursion."""
    ring = RingCtx(tuple(f"v{i}" for i in range(100)))
    terms = {(a, b) + (0,) * 98: Fraction(a - b, 1 + a) for a in range(80) for b in range(80)}
    terms[(1,) * 100] = Fraction(1)
    poly = Polynomial(ring, terms)
    point = tuple(i % 13 for i in range(100))
    assert _compile_one(poly, 101)(point) == _mod_p(evaluate(poly, point), 101)


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


def test_census_collects_the_stratum_in_its_pass():
    spec = _shear_spec()
    M = spec.space
    stratum = vanishing(Ideal(M, [M.gen("a21"), M.gen("a22")]))
    census = enumerate_orbits(spec, FpConfig(3), stratum=stratum)
    assert census.stratum_points == census.fixed_points
    assert len(census.stratum_points) == 9
    assert enumerate_orbits(spec, FpConfig(3)).stratum_points == ()


def test_cross_check_runs_its_census_through_enumerate_orbits(monkeypatch):
    import dcoset.fforacle as fforacle

    censuses = []

    def counting(*args, **kwargs):
        census = enumerate_orbits(*args, **kwargs)
        censuses.append(census)
        return census

    monkeypatch.setattr(fforacle, "enumerate_orbits", counting)
    report = cross_check("background", FpConfig(3))
    assert [c.point_count for c in censuses] == [81]
    assert all(c.status == "pass" for c in report.checks)


@pytest.mark.parametrize("too_large", (False, True))
def test_census_compares_the_whole_declared_stratum(too_large):
    """The stratum is read on every domain point, not only on the first
    point of each orbit: here the extra points V(a22) minus V(a11) are
    never the first of their shear orbit, whose first point has a11 = 0."""
    spec = _shear_spec()
    M = spec.space
    a11, a12, a21, a22 = M.gens()
    pieces = [LocallyClosedPiece(Ideal(M, [a21, a22]))]
    if too_large:
        pieces.append(LocallyClosedPiece(Ideal(M, [a22]), Ideal(M, [a11])))
    shadow = CensusShadow(
        id="census",
        claim="",
        action=spec,
        domain=None,
        fixed_stratum=ConstructibleSet(M, pieces),
        expected=lambda p: (81, 33, {1: 9, 3: 24}),
    )
    ok, detail = _census_check(shadow, FpConfig(3))
    assert ok is not too_large
    assert f"fixed points match declared stratum: {not too_large};" in detail


def test_unstable_domain_rejected():
    spec = _shear_spec()
    M = spec.space
    a11 = M.gen("a11")
    # the hyperplane a11 = 0 is not shear-stable; the error names the first
    # escaping move in element order, lam = 1, of the p - 1 that escape
    dom = vanishing(Ideal(M, [a11]))
    for p in (3, 5):
        with pytest.raises(ValueError) as info:
            enumerate_orbits(spec, FpConfig(p), dom)
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


# Golden oracle reports: cross_check(name, FpConfig(p)).to_json() must stay
# byte-identical.  Rewrite the file after an intended output change with::
#
#     PYTHONPATH=src python tests/test_fforacle.py
REPORTS = Path(__file__).with_name("oracle_reports.json")
_GOLDEN_SCENARIOS = tuple(
    name + suffix
    for suffix in ("", "-mutated")
    for name in ("background", "example1", "example3")
)
_GOLDEN_PRIMES = (3, 5, 7, 11)


def _golden_key(name, p):
    return f"{name} p={p}"


@functools.cache
def _golden():
    return json.loads(REPORTS.read_text())


@pytest.mark.parametrize("p", _GOLDEN_PRIMES)
@pytest.mark.parametrize("name", _GOLDEN_SCENARIOS)
def test_cross_check_report_is_unchanged(name, p):
    recorded = _golden()[_golden_key(name, p)]
    assert cross_check(name, FpConfig(p)).to_json() == json.dumps(
        recorded, indent=2, sort_keys=True
    )


if __name__ == "__main__":
    records = {
        _golden_key(name, p): cross_check(name, FpConfig(p)).to_dict()
        for name in _GOLDEN_SCENARIOS
        for p in _GOLDEN_PRIMES
    }
    REPORTS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} reports to {REPORTS.name}")
