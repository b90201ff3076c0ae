"""Regenerate the benchmark's reference outputs in benchmarks/reference.

    PYTHONPATH=src python3 benchmarks/make_reference.py

Each output is produced once and checked against what it must say before
it is written:

* verify-suite: canonical scenarios pass; each mutant fails exactly its
  targeted check;
* oracle-census: every check passes with kind "verified" (a census check
  passes only when its counts equal the shadow's closed form);
* gb-families: each reduced basis equals sympy's reduced basis of the same
  ideal.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import dcoset

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference"


def _first_pass(name: str) -> dict:
    w = workloads.WORKLOADS[name]
    return dict(w.run_item(item) for item in next(w.plans(0)))


def verify_suite() -> dict:
    out = _first_pass("verify-suite")
    for name, report in out.items():
        spec = dcoset.get_scenario(name)
        failing = [c["id"] for c in report["checks"] if c["status"] != "pass"]
        want = [spec.targeted_check] if spec.negative_control else []
        if failing != want:
            raise SystemExit(f"{name}: failing checks {failing}, expected {want}")
    return out


def oracle_census() -> dict:
    out = _first_pass("oracle-census")
    for key, report in out.items():
        for c in report["checks"]:
            if c["status"] != "pass" or c["kind"] != "verified":
                raise SystemExit(f"{key}: check {c['id']} is {c['status']}/{c['kind']}")
    return out


def gb_families() -> dict:
    import sympy

    out = _first_pass("gb-families")
    for name, (ring, gens) in workloads.families().items():
        theirs, _ = workloads.sympy_groebner(ring, gens)
        syms = sympy.symbols(ring.vars)
        names = dict(zip(ring.vars, syms))
        ours = [
            sympy.Poly(sympy.sympify(g.replace("^", "**"), locals=names), *syms, domain="QQ")
            for g in out[name]
        ]
        if set(ours) != set(theirs) or len(ours) != len(theirs):
            raise SystemExit(f"{name}: reduced basis differs from sympy's")
    return out


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    for name, make in (
        ("verify-suite", verify_suite),
        ("gb-families", gb_families),
        ("oracle-census", oracle_census),
    ):
        with open(REFERENCE / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(make(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {REFERENCE / name}.json")


if __name__ == "__main__":
    main()
