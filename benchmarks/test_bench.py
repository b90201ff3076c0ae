"""Checks on the benchmark itself: neither the seed nor the tracer may
change what dcoset outputs.

    PYTHONPATH=src python -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import dcoset  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)


def _pass(name: str, seed: int, tracer: Tracer | None = None) -> str:
    w = workloads.WORKLOADS[name]
    plan = next(w.plans(seed))
    if tracer is None:
        outputs = run.run_pass(w, plan)[0]
    else:
        with tracer:
            outputs = run.run_pass(w, plan)[0]
    return json.dumps(outputs, sort_keys=True)


@pytest.fixture(scope="module")
def seed1():
    return {name: _pass(name, 1) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_outputs_match_reference(name, seed1):
    reference = run.load_reference(name)
    assert run.count_failures(json.loads(seed1[name]), reference) == 0


def _unordered(plan) -> list:
    """A plan with its order, and the order of each ideal's generators, forgotten."""
    out = []
    for item in plan:
        if isinstance(item, tuple) and len(item) == 3:  # (family, ring, generators)
            item = (item[0], sorted(dcoset.format_poly(g) for g in item[2]))
        out.append(repr(item))
    return sorted(out)


@pytest.mark.parametrize("name", NAMES)
def test_seed_only_reorders(name, seed1):
    w = workloads.WORKLOADS[name]
    first, second = next(w.plans(1)), next(w.plans(2))
    assert repr(first) != repr(second)
    assert _unordered(first) == _unordered(second)
    assert _pass(name, 2) == seed1[name]


@pytest.mark.parametrize("name", NAMES)
def test_traced_outputs_are_byte_identical(name, seed1):
    tracer = Tracer()
    tracer.pass_id = 0
    assert _pass(name, 1, tracer) == seed1[name]
    assert tracer.spans


def test_tracer_restores_every_binding():
    originals = {
        (mod, attr): getattr(mod, attr)
        for mod in (dcoset, dcoset.groebner, dcoset.geometry, dcoset.scenarios)
        for attr in ("groebner_basis", "normal_form", "radical_member")
        if hasattr(mod, attr)
    }
    is_empty = dcoset.geometry.LocallyClosedPiece.is_empty
    with Tracer():
        assert dcoset.groebner.normal_form is not originals[(dcoset.groebner, "normal_form")]
        assert dcoset.scenarios.radical_member is not originals[(dcoset.scenarios, "radical_member")]
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in originals.items())
    assert dcoset.geometry.LocallyClosedPiece.is_empty is is_empty


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans[:] = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
    ]
    stats = tracer.per_pass()[0]
    assert stats["calls"] == {"a": 1, "b": 2, "c": 1}
    assert stats["self_s"] == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_a_differing_output_counts_as_failed():
    reference = {"x": [1], "y": [2]}
    assert run.count_failures({"x": [1], "y": [2]}, reference) == 0
    assert run.count_failures({"x": [1], "y": [3]}, reference) == 1
    assert run.count_failures({"x": [1]}, reference) == 1
