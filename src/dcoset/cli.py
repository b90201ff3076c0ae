"""Command-line interface.

Verbs operate on rings declared inline (``--ring x,y,z``) with polynomials
in the grammar of :mod:`.parsing`:

* ``gb`` / ``eliminate`` / ``saturate`` print reduced Groebner bases;
* ``member`` / ``radmember`` answer ideal and radical membership;
* ``image`` / ``fiber`` handle polynomial maps between affine spaces;
* ``orbit`` computes orbit closures of built-in or custom group actions;
* ``verify`` / ``oracle`` / ``catalog`` drive the bundled scenarios.

Exit codes: 0 for success (or a true/pass answer), 1 for a false/fail
answer, 2 for input errors.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .polyring import GREVLEX, LEX, RingCtx, extend_ring, format_poly
from .groebner import Ideal, eliminate, groebner_basis, ideal_member, radical_member, saturate
from .geometry import ConstructibleSet, locally_closed
from .morphism import PolyMap, image_closure, point_in_image
from .action import GroupActionSpec, orbit_closure, same_orbit
from .fforacle import DEFAULT_PRIMES, FpConfig, cross_check, oracle_work
from .parsing import parse_point, parse_poly, parse_polys
from .report import merge_reports
from .scenarios import (
    get_scenario,
    isotropic_shear_action,
    row_shear_action,
    run_scenario,
    scaling_action,
    scenario_names,
)

__all__ = ["main"]

# Refuse an oracle run estimated above this many point evaluations, roughly
# ten seconds of enumeration: `oracle example1 --prime 17` estimates 1.5e6
# and takes under two seconds on a 2-core CPython 3.11 machine, while
# `oracle background --prime 101` would need about 1e10.
MAX_ORACLE_WORK = 10**7


def _ring_from(names_arg: str, order_name: str) -> RingCtx:
    names = tuple(n.strip() for n in names_arg.split(",") if n.strip())
    if not names:
        raise ValueError("--ring needs at least one variable name")
    order = {"lex": LEX, "grevlex": GREVLEX}[order_name]
    return RingCtx(names, order)


def _ideal_from(args) -> Ideal:
    ring = _ring_from(args.ring, args.order)
    return Ideal(ring, list(parse_polys(args.ideal, ring)))


def _optional_ideal(text, ring: RingCtx) -> Ideal:
    """The ideal of an optional generator list; no list gives (0)."""
    return Ideal(ring, list(parse_polys(text, ring)) if text else [])


def _print_basis(gens) -> None:
    if not gens:
        print("0")
        return
    for g in gens:
        print(format_poly(g))


def _domain(ring: RingCtx, carrier_arg, excluded_arg) -> ConstructibleSet:
    excluded = _optional_ideal(excluded_arg, ring) if excluded_arg else None
    return locally_closed(_optional_ideal(carrier_arg, ring), excluded)


_BUILTIN_ACTIONS = {
    "shear-mat2": row_shear_action,
    "scale-mat2": scaling_action,
    "isotropic-shear": isotropic_shear_action,
}


def _custom_action(args) -> GroupActionSpec:
    if not (args.space and args.params and args.act and args.identity):
        raise ValueError(
            "custom actions need --space, --params, --act and --identity "
            "(and optionally --constraint)"
        )
    space = _ring_from(args.space, "grevlex")
    params = tuple(n.strip() for n in args.params.split(",") if n.strip())
    if not params:
        raise ValueError("--params needs at least one name")
    combined = extend_ring(space, params)
    action = parse_polys(args.act, combined)
    if len(action) != space.arity:
        raise ValueError(
            f"--act must give {space.arity} polynomials, got {len(action)}"
        )
    constraint = _optional_ideal(args.constraint, RingCtx(params))
    identity = dict(zip(params, parse_point(args.identity, len(params))))
    return GroupActionSpec(
        space=space,
        params=params,
        constraint=constraint,
        action=action,
        identity=identity,
    )


def _resolve_action(args) -> GroupActionSpec:
    if args.action:
        try:
            return _BUILTIN_ACTIONS[args.action]()
        except KeyError:
            known = ", ".join(_BUILTIN_ACTIONS)
            raise ValueError(f"unknown action {args.action!r}; built-ins: {known}") from None
    return _custom_action(args)


def _oracle_primes(args) -> tuple:
    if args.primes is None:
        return DEFAULT_PRIMES
    try:
        primes = tuple(int(tok) for tok in args.primes.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"bad prime list {args.primes!r}: {exc}") from None
    if not primes:
        raise ValueError(f"bad prime list {args.primes!r}: no primes given")
    for i, p in enumerate(primes):
        if p in primes[:i]:
            raise ValueError(f"bad prime list {args.primes!r}: prime {p} is repeated")
    return primes


def _cmd_gb(args) -> int:
    _print_basis(groebner_basis(_ideal_from(args)))
    return 0


def _cmd_eliminate(args) -> int:
    ideal = _ideal_from(args)
    drop = {n.strip() for n in args.drop.split(",") if n.strip()}
    for name in drop:
        if not ideal.ring.has_var(name):
            raise ValueError(f"--drop names unknown variable {name!r}")
    if drop >= set(ideal.ring.vars):
        raise ValueError("--drop would eliminate every variable")
    kept = RingCtx([v for v in ideal.ring.vars if v not in drop], ideal.ring.order)
    _print_basis(groebner_basis(eliminate(ideal, drop, into=kept)))
    return 0


def _cmd_member(args) -> int:
    ideal = _ideal_from(args)
    inside = args.test(parse_poly(args.poly, ideal.ring), ideal)
    print("true" if inside else "false")
    return 0 if inside else 1


def _cmd_saturate(args) -> int:
    ideal = _ideal_from(args)
    by = parse_poly(args.by, ideal.ring)
    _print_basis(groebner_basis(saturate(ideal, by)))
    return 0


def _map_from(args):
    source = _ring_from(args.ring, args.order)
    target = _ring_from(args.target, args.order)
    coords = parse_polys(args.map, source)
    if len(coords) != target.arity:
        raise ValueError(
            f"--map must give {target.arity} polynomials, got {len(coords)}"
        )
    return PolyMap(source, target, coords), _domain(source, args.carrier, args.excluded)


def _cmd_image(args) -> int:
    f, domain = _map_from(args)
    _print_basis(groebner_basis(image_closure(f, domain)))
    return 0


def _cmd_fiber(args) -> int:
    f, domain = _map_from(args)
    point = parse_point(args.point, f.target.arity)
    hit = point_in_image(f, domain, point)
    print("nonempty" if hit else "empty")
    return 0 if hit else 1


def _cmd_orbit(args) -> int:
    spec = _resolve_action(args)
    point = parse_point(args.point, spec.space.arity)
    if args.same_as:
        other = parse_point(args.same_as, spec.space.arity)
        same = same_orbit(spec, point, other)
        print("same-orbit" if same else "different-orbit")
        return 0 if same else 1
    _print_basis(groebner_basis(orbit_closure(spec, point)))
    return 0


def _cmd_verify(args) -> int:
    if args.all:
        names = tuple(n for n in scenario_names() if not n.endswith("-mutated"))
    elif args.scenario:
        names = (args.scenario,)
    else:
        raise ValueError("verify needs a scenario name or --all")
    reports = [run_scenario(name) for name in names]
    if args.json:
        if len(reports) == 1:
            print(reports[0].to_json())
        else:
            print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
    else:
        for i, rep in enumerate(reports):
            if i:
                print()
            print(rep.to_text())
        if len(reports) > 1:
            overall = "pass" if all(r.verdict == "pass" for r in reports) else "fail"
            print(f"\noverall: {overall}")
    return 0 if all(r.verdict == "pass" for r in reports) else 1


def _cmd_oracle(args) -> int:
    primes = _oracle_primes(args)
    shadows = get_scenario(args.scenario).shadows
    # bound the work before FpConfig tests primality by trial division,
    # which alone stalls on a large prime
    work = sum(oracle_work(shadows, abs(p)) for p in primes)
    if work > MAX_ORACLE_WORK:
        raise ValueError(
            f"oracle needs about {work:.1e} point evaluations, above the "
            f"limit of {MAX_ORACLE_WORK:.0e}; use smaller primes"
        )
    configs = [FpConfig(p) for p in primes]
    reports = [cross_check(args.scenario, cfg) for cfg in configs]
    merged = merge_reports(reports[0].scenario, reports)
    print(merged.to_json() if args.json else merged.to_text())
    return 0 if merged.verdict == "pass" else 1


def _cmd_catalog(args) -> int:
    specs = [get_scenario(name) for name in scenario_names()]
    if args.json:
        payload = [
            {
                "name": spec.name,
                "summary": spec.summary,
                "checks": [
                    {"id": c.id, "kind": c.kind, "claim": c.claim} for c in spec.checks
                ],
                "negative_control": spec.negative_control,
                "targeted_check": spec.targeted_check,
            }
            for spec in specs
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for spec in specs:
        print(f"{spec.name}: {spec.summary}")
        for c in spec.checks:
            print(f"  [{c.kind}] {c.id}: {c.claim}")
        if spec.negative_control:
            print(f"  negative control; must fail exactly: {spec.targeted_check}")
        print()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcoset",
        description="Exact constructible-quotient toolkit: Groebner bases, "
        "constructible sets, group actions, and scenario verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def ring_opts(p):
        p.add_argument("--ring", required=True, help="comma-separated variable names")
        p.add_argument("--order", choices=("lex", "grevlex"), default="grevlex")
        p.add_argument("--ideal", required=True, help="comma-separated generators")

    p = sub.add_parser("gb", help="reduced Groebner basis of an ideal")
    ring_opts(p)
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("eliminate", help="eliminate variables from an ideal")
    ring_opts(p)
    p.add_argument("--drop", required=True, help="comma-separated variables to eliminate")
    p.set_defaults(func=_cmd_eliminate)

    p = sub.add_parser("member", help="ideal membership test")
    ring_opts(p)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=_cmd_member, test=ideal_member)

    p = sub.add_parser("radmember", help="radical membership test")
    ring_opts(p)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=_cmd_member, test=radical_member)

    p = sub.add_parser("saturate", help="saturation of an ideal by a polynomial")
    ring_opts(p)
    p.add_argument("--by", required=True)
    p.set_defaults(func=_cmd_saturate)

    def map_opts(p):
        p.add_argument("--ring", required=True, help="source variables")
        p.add_argument("--order", choices=("lex", "grevlex"), default="grevlex")
        p.add_argument("--target", required=True, help="target variables")
        p.add_argument("--map", required=True, help="comma-separated coordinate polynomials")
        p.add_argument("--carrier", help="closed condition cutting out the domain")
        p.add_argument("--excluded", help="closed condition removed from the domain")

    p = sub.add_parser("image", help="closure of the image of a polynomial map")
    map_opts(p)
    p.set_defaults(func=_cmd_image)

    p = sub.add_parser("fiber", help="is a target point in the image?")
    map_opts(p)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.set_defaults(func=_cmd_fiber)

    p = sub.add_parser("orbit", help="orbit closure under a group action")
    p.add_argument("--action", help=f"built-in action: {', '.join(_BUILTIN_ACTIONS)}")
    p.add_argument("--space", help="custom action: space variables")
    p.add_argument("--params", help="custom action: group parameters")
    p.add_argument("--act", help="custom action: moved coordinates (in space+params)")
    p.add_argument("--constraint", help="custom action: group relations (params only)")
    p.add_argument("--identity", help="custom action: identity parameter values")
    p.add_argument("--point", required=True)
    p.add_argument("--same-as", dest="same_as", help="second point: same orbit?")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("verify", help="run a scenario's checks")
    p.add_argument("scenario", nargs="?", help=f"one of: {', '.join(scenario_names())}")
    p.add_argument("--all", action="store_true", help="run every canonical scenario")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="finite-field cross-check of a scenario")
    p.add_argument("scenario")
    p.add_argument("--primes", "--prime", help="comma-separated primes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("catalog", help="list scenarios and their checks")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # ValueError covers bad arguments, ParseError, RingMismatchError,
        # GuardViolation and every library rejection of malformed input
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _entry() -> None:
    # Die quietly when stdout is a pipe that closes early (e.g. `| head`).
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    _entry()
