import pytest

from dcoset import groebner
from dcoset.report import KIND_BY_CRITERION, KIND_BY_REPRESENTATION, KIND_VERIFIED
from dcoset.scenarios import (
    Check,
    get_scenario,
    run_scenario,
    scenario_names,
)

CANONICAL = ("background", "example1", "example2", "example3")


def test_registry_contents():
    names = scenario_names()
    for name in CANONICAL:
        assert name in names
        assert f"{name}-mutated" in names


def test_unknown_scenario():
    with pytest.raises(ValueError):
        get_scenario("nope")


@pytest.mark.parametrize("name", CANONICAL)
def test_canonical_scenarios_pass(name):
    report = run_scenario(name)
    assert report.verdict == "pass", report.to_text()


@pytest.mark.parametrize("name", CANONICAL)
def test_mutants_fail_exactly_their_target(name):
    spec = get_scenario(f"{name}-mutated")
    assert spec.negative_control
    report = run_scenario(f"{name}-mutated")
    assert report.verdict == "fail"
    assert [c.id for c in report.failing()] == [spec.targeted_check]


def _count_engine(monkeypatch) -> tuple:
    """Lists that record each fresh basis, as the audit accepts it, and each
    Buchberger run."""
    certify, buchberger = groebner._certify, groebner._buchberger
    bases, runs = [], []

    def counted_certify(*a):
        out = certify(*a)
        if out[2] is None:
            bases.append(a[0])
        return out

    monkeypatch.setattr(groebner, "_certify", counted_certify)
    monkeypatch.setattr(groebner, "_buchberger", lambda *a: runs.append(a) or buchberger(*a))
    return bases, runs


def test_example2_eliminates_the_scaling_orbit_closure_once(monkeypatch):
    # scaling-limit-point and scaling-orbit-closure-line share the scaling
    # action's generic orbit closure, eliminated once; example2's true
    # radical answers are settled by membership in the ideal, with no
    # extended-ring run, a sum with the zero ideal keeps the other summand
    # and its basis, and the zero ideal's basis costs no run: 14 fresh
    # bases in all, and only 2 of them need Buchberger, since the other
    # inputs already are their reduced bases and pass the audit as they are
    bases, runs = _count_engine(monkeypatch)
    assert run_scenario("example2").verdict == "pass"
    assert len(bases) == 14
    assert len(runs) == 2


def test_a_pass_runs_the_extended_ring_only_off_the_ideal(monkeypatch):
    # radical membership runs 1 - t*f only when f is not in the ideal itself,
    # and saturation always does: 48 extended rings over all 8 scenarios
    inverting = groebner._inverting
    calls = []
    monkeypatch.setattr(groebner, "_inverting", lambda *a: calls.append(a) or inverting(*a))
    for name in scenario_names():
        run_scenario(name)
    assert len(calls) == 48


def test_a_pass_computes_no_basis_for_zero_and_keeps_lone_summands(monkeypatch):
    # f = 0 is a member of every ideal before any basis is computed, a sum
    # with zero ideals is the other summand itself, cached basis and all,
    # and the zero ideal's empty basis needs no run: 194 fresh bases over
    # all 8 scenarios, of which 58 need Buchberger and the other 136 inputs
    # pass the audit as they are
    bases, runs = _count_engine(monkeypatch)
    for name in scenario_names():
        run_scenario(name)
    assert len(bases) == 194
    assert len(runs) == 58


def test_reports_are_deterministic():
    for name in ("background", "example3"):
        a = run_scenario(name)
        b = run_scenario(name)
        assert a.to_json() == b.to_json()
        assert a.to_text() == b.to_text()


def test_catalog_shape():
    specs = {name: get_scenario(name) for name in scenario_names()}
    assert all(spec.name == name for name, spec in specs.items())
    spec = specs["example1"]
    assert len(spec.checks) >= 6
    assert not spec.negative_control
    assert spec.targeted_check is None
    mutant = specs["example1-mutated"]
    assert mutant.negative_control and mutant.targeted_check == "invariants-constant-on-orbits"


def test_every_check_has_claim_and_valid_kind():
    kinds = {KIND_VERIFIED, KIND_BY_CRITERION, KIND_BY_REPRESENTATION}
    for name in scenario_names():
        checks = get_scenario(name).checks
        ids = [c.id for c in checks]
        assert len(ids) == len(set(ids)), f"duplicate check ids in {name}"
        for c in checks:
            assert c.kind in kinds
            assert c.claim.strip()


@pytest.mark.parametrize("name", scenario_names())
def test_exactly_the_declared_checks_have_no_run(name):
    checks = get_scenario(name).checks
    declared = [c.id for c in checks if c.kind != KIND_VERIFIED]
    assert [c.id for c in checks if c.run is None] == declared
    assert all(c.detail.strip() for c in checks if c.run is None)


def test_check_kind_decides_whether_it_runs():
    def run():
        return True, "computed"

    Check("computed", KIND_VERIFIED, "claim", run)
    Check("declared", KIND_BY_CRITERION, "claim", detail="criterion")
    with pytest.raises(ValueError, match="'computed' of kind verified needs a run"):
        Check("computed", KIND_VERIFIED, "claim", detail="no computation")
    for kind in (KIND_BY_CRITERION, KIND_BY_REPRESENTATION):
        with pytest.raises(ValueError, match=f"'declared' of kind {kind} needs no run"):
            Check("declared", kind, "claim", run)


def test_conclusion_lines_are_by_criterion():
    spec = get_scenario("background")
    by_kind = {c.id: c.kind for c in spec.checks}
    assert by_kind["constructible-quotient-conclusion"] == KIND_BY_CRITERION
    spec3 = get_scenario("example3")
    by_kind3 = {c.id: c.kind for c in spec3.checks}
    assert by_kind3["blowup-collapse-conclusion"] == KIND_BY_CRITERION
    assert by_kind3["quotient-target-described"] == KIND_BY_REPRESENTATION


def test_example1_extends_background():
    bg = {c.id for c in get_scenario("background").checks}
    e1 = {c.id for c in get_scenario("example1").checks}
    assert bg < e1
    assert {"stabilizer-is-shear-group", "coset-transport-matches-shear"} <= e1


def test_shadows_declared():
    assert get_scenario("background").shadows
    assert len(get_scenario("example1").shadows) == 2
    assert get_scenario("example2").shadows
    assert len(get_scenario("example3").shadows) == 2


def test_scenario_reports_cover_all_checks():
    for name in CANONICAL:
        spec = get_scenario(name)
        report = run_scenario(name)
        assert [c.id for c in report.checks] == [c.id for c in spec.checks]
