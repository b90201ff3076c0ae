import json

import pytest

from dcoset.report import (
    KIND_BY_CRITERION,
    KIND_VERIFIED,
    CheckResult,
    Report,
    merge_reports,
)


def _check(i, status="pass", kind=KIND_VERIFIED):
    return CheckResult(
        id=f"check-{i}",
        status=status,
        kind=kind,
        detail=f"detail {i}",
        claim=f"claim {i}",
    )


def test_status_validated():
    with pytest.raises(ValueError):
        _check(1, status="maybe")


def test_kind_validated():
    with pytest.raises(ValueError):
        _check(1, kind="guessed")


def test_verdict_all_pass():
    r = Report("s", (_check(1), _check(2)))
    assert r.verdict == "pass"
    assert r.failing() == ()


def test_verdict_any_fail():
    r = Report("s", (_check(1), _check(2, status="fail")))
    assert r.verdict == "fail"
    assert [c.id for c in r.failing()] == ["check-2"]


def test_verdict_skips():
    # only skips: nothing was certified
    assert Report("s", (_check(1, status="skip"),)).verdict == "skip"
    # a skip next to a pass does not block it, nor does it hide a fail
    assert Report("s", (_check(1), _check(2, status="skip"))).verdict == "pass"
    r = Report("s", (_check(1, status="skip"), _check(2, status="fail")))
    assert r.verdict == "fail"
    assert "[skip] check-1" in r.to_text()


def test_to_text_layout():
    r = Report("s", (_check(1), _check(2, kind=KIND_BY_CRITERION)))
    text = r.to_text()
    lines = text.splitlines()
    assert lines[0] == "scenario: s"
    assert lines[-1] == "verdict: pass"
    assert "[pass] check-1" in lines[1]
    assert "by-criterion" in lines[2]


def test_json_schema_and_stability():
    r = Report("s", (_check(1),))
    payload = json.loads(r.to_json())
    assert set(payload) == {"scenario", "checks", "verdict"}
    assert set(payload["checks"][0]) == {"id", "status", "kind", "detail", "claim"}
    assert r.to_json() == r.to_json()


def test_merge_reports():
    a = Report("a", (_check(1),))
    b = Report("b", (_check(2, status="fail"),))
    m = merge_reports("both", [a, b])
    assert m.scenario == "both"
    assert [c.id for c in m.checks] == ["check-1", "check-2"]
    assert m.verdict == "fail"
