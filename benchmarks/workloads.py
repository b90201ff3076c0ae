"""The three benchmark workloads and the inputs they generate from a seed.

A workload yields one *plan* per pass: the ordered list of items the pass
runs.  The seed only shuffles that order (and, for the Groebner families,
permutes generators), so every item's output is independent of the seed.

Every call into dcoset goes through a module attribute looked up at call
time (``dcoset.run_scenario``), so a tracer that rebinds those attributes
sees the benchmark's calls as well as the library's internal ones.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import dcoset
from dcoset import GREVLEX, LEX, RingCtx


def cyclic(n: int, order=GREVLEX):
    """The cyclic-n system: the elementary cyclic sums of degree 1..n-1
    and x0*...*x(n-1) - 1."""
    ring = RingCtx([f"x{i}" for i in range(n)], order)
    x = ring.gens()
    eqs = []
    for d in range(1, n):
        total = ring.zero()
        for i in range(n):
            term = ring.one()
            for k in range(d):
                term = term * x[(i + k) % n]
            total = total + term
        eqs.append(total)
    product = ring.one()
    for v in x:
        product = product * v
    eqs.append(product - 1)
    return ring, eqs


def katsura(n: int, order=GREVLEX):
    """The katsura-n system in n+1 unknowns u0..un, with u(-i) = u(i) and
    u(i) = 0 for i > n."""
    ring = RingCtx([f"u{i}" for i in range(n + 1)], order)
    u = ring.gens()

    def at(i):
        return u[abs(i)] if abs(i) <= n else ring.zero()

    eqs = []
    for m in range(n):
        total = ring.zero()
        for l in range(-n, n + 1):
            total = total + at(l) * at(m - l)
        eqs.append(total - u[m])
    linear = u[0]
    for v in u[1:]:
        linear = linear + 2 * v
    eqs.append(linear - 1)
    return ring, eqs


def families() -> dict:
    """Name -> (ring, generators); the ring carries the monomial order."""
    return {
        "cyclic5": cyclic(5),
        "katsura4": katsura(4),
        "katsura3_lex": katsura(3, LEX),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    plans: Callable[[int], Iterator[list]]  # seed -> endless pass plans
    run_item: Callable  # plan item -> (output key, JSON-able output)
    groups: dict  # per-group metric name -> the output keys it sums
    heavy: str  # the group reported as heavy_s; every other item is light_s


# -- verify-suite: every registered scenario, canonical and mutated


def _verify_plans(seed: int):
    names = list(dcoset.scenario_names())
    rng = random.Random(seed)
    while True:
        rng.shuffle(names)
        yield list(names)


def _verify_item(name: str):
    return name, dcoset.run_scenario(name).to_dict()


# -- gb-families: a few large Buchberger runs with no repeated input


def _gb_plans(seed: int):
    fams = families()
    names = list(fams)
    rng = random.Random(seed)
    while True:
        rng.shuffle(names)
        plan = []
        for name in names:
            ring, gens = fams[name]
            gens = list(gens)
            rng.shuffle(gens)
            plan.append((name, ring, gens))
        yield plan


def _gb_item(item):
    name, ring, gens = item
    basis = dcoset.groebner_basis(dcoset.Ideal(ring, gens))
    return name, [dcoset.format_poly(g) for g in basis]


# -- oracle-census: finite-field cross-checks at growing primes

ORACLE_CASES = tuple(
    (name, p) for name in ("background", "example1", "example3") for p in (5, 7, 11)
) + (("example2", 3),)


def oracle_key(name: str, p: int) -> str:
    return f"{name}@p{p}"


def _oracle_plans(seed: int):
    cases = list(ORACLE_CASES)
    rng = random.Random(seed)
    while True:
        rng.shuffle(cases)
        yield list(cases)


def _oracle_item(case):
    name, p = case
    return oracle_key(name, p), dcoset.cross_check(name, dcoset.FpConfig(p)).to_dict()


_HEAVY_SCENARIOS = frozenset({"example2", "example2-mutated"})
_SCENARIOS = frozenset(dcoset.scenario_names())

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-suite",
            plans=_verify_plans,
            run_item=_verify_item,
            groups={
                "example2_s": _HEAVY_SCENARIOS,
                "light_scenarios_s": _SCENARIOS - _HEAVY_SCENARIOS,
            },
            heavy="example2_s",
        ),
        Workload(
            name="gb-families",
            plans=_gb_plans,
            run_item=_gb_item,
            groups={
                "cyclic5_s": frozenset({"cyclic5"}),
                "katsura4_s": frozenset({"katsura4"}),
                "katsura3_lex_s": frozenset({"katsura3_lex"}),
            },
            heavy="cyclic5_s",
        ),
        Workload(
            name="oracle-census",
            plans=_oracle_plans,
            run_item=_oracle_item,
            groups={
                f"p{q}_s": frozenset(oracle_key(n, p) for n, p in ORACLE_CASES if p == q)
                for q in (3, 5, 7, 11)
            },
            heavy="p11_s",
        ),
    )
}


def sympy_groebner(ring, gens):
    """sympy's reduced Groebner basis of the same ideal, as Polys over QQ
    made monic in the ring's order, and the seconds sympy took."""
    import sympy

    syms = sympy.symbols(ring.vars)
    names = dict(zip(ring.vars, syms))
    exprs = [sympy.sympify(dcoset.format_poly(g).replace("^", "**"), locals=names) for g in gens]
    order = "lex" if ring.order is LEX else "grevlex"
    start = time.perf_counter()
    basis = sympy.groebner(exprs, *syms, order=order, domain="QQ")
    seconds = time.perf_counter() - start
    polys = [sympy.Poly(g, *syms, domain="QQ") for g in basis.exprs]
    return [g.quo_ground(g.LC(order=order)) for g in polys], seconds
