"""dcoset benchmark: one closed-loop client sending back-to-back passes.

    python3 benchmarks/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0

Each pass runs one workload's items in a seed-shuffled order, in this
process and thread, and every output is compared with the committed
reference in ``benchmarks/reference``.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics instead, and the spans are written under
``benchmarks/out``.  The exit code is 1 when any output differs from the
reference and 2 when the dcoset sources are missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
OUT = BENCH / "out"
SETUP_PROBES = 9

# set-up as a user pays it: a fresh interpreter imports dcoset and builds
# the first pass's inputs
_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
next(workloads.WORKLOADS[sys.argv[3]].plans(int(sys.argv[4])))
print(time.perf_counter() - start)
"""


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(BENCH), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def load_reference(workload: str) -> dict:
    with open(REFERENCE / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def run_pass(workload, plan):
    """Run one pass; returns (outputs by key, seconds by key, pass seconds)."""
    outputs, seconds = {}, {}
    clock = time.perf_counter
    start = clock()
    for item in plan:
        t0 = clock()
        key, out = workload.run_item(item)
        seconds[key] = clock() - t0
        outputs[key] = out
    return outputs, seconds, clock() - start


def count_failures(outputs: dict, reference: dict) -> int:
    """Outputs that differ from the reference, plus reference keys not produced."""
    failed = sum(
        key not in reference or canonical(value) != canonical(reference[key])
        for key, value in outputs.items()
    )
    return failed + sum(key not in outputs for key in reference)


class Passes:
    """Per-pass timings plus the running output check."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.pass_s = []
        self.item_s = []
        self.attempted = 0
        self.failed = 0

    def run(self, plan):
        outputs, seconds, total = run_pass(self.workload, plan)
        self.pass_s.append(total)
        self.item_s.append(seconds)
        self.attempted += len(outputs)
        self.failed += count_failures(outputs, self.reference)

    def median_sum(self, keys) -> float:
        return statistics.median(sum(s[k] for k in keys if k in s) for s in self.item_s)


def end_to_end(passes: Passes, setup_s: float):
    """(bounded metrics, the workload's own per-group split)."""
    w = passes.workload
    heavy = w.groups[w.heavy]
    light = set(passes.reference) - heavy
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(passes.pass_s), "s"),
        "heavy_s": (passes.median_sum(heavy), "s"),
        "light_s": (passes.median_sum(light), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {name: (passes.median_sum(keys), "s") for name, keys in w.groups.items()}
    return metrics, extra


def per_layer(tracer, traced: Passes, untraced: Passes) -> dict:
    """Per-layer metrics of the traced passes: counts and self times are
    medians per pass, ratios are totals over all traced passes."""
    gb = "groebner.groebner_basis"
    nf = "groebner.normal_form"
    stats = tracer.per_pass()
    rows = [(stats[i], tracer.counts[i]) for i in range(len(traced.pass_s))]

    def median(f):
        return statistics.median(f(s, c) for s, c in rows)

    def ratio(num, den):
        total = sum(den(s, c) for s, c in rows)
        return sum(num(s, c) for s, c in rows) / total if total else 0.0

    def calls(name):
        return lambda s, c: s["calls"].get(name, 0)

    def self_s(name):
        return lambda s, c: s["self_s"].get(name, 0.0)

    def layer(kind, prefix):
        return lambda s, c: sum(v for k, v in s[kind].items() if k.startswith(prefix + "."))

    def count(key):
        return lambda s, c: c.get(key, 0)

    def computed(s, c):
        return s["calls"].get(gb, 0) - c.get("gb_hits", 0)

    m = {}
    for name in LAYERS:
        m[f"{name}.calls"] = (median(layer("calls", name)), "count")
        m[f"{name}.self_s"] = (median(layer("self_s", name)), "s")
    for name in (gb, nf, "groebner.spolynomial"):
        m[f"{name}.calls"] = (median(calls(name)), "count")
        m[f"{name}.self_s"] = (median(self_s(name)), "s")
    m[f"{gb}.max_basis_len"] = (max(c.get("gb_max_basis_len", 0) for _, c in rows), "count")
    m[f"{gb}.max_degree"] = (max(c.get("gb_max_degree", 0) for _, c in rows), "count")
    m[f"{gb}.hit_ratio"] = (ratio(count("gb_hits"), calls(gb)), "ratio")
    m[f"{gb}.repeat_ratio"] = (ratio(count("gb_repeats"), computed), "ratio")
    m[f"{nf}.zero_ratio"] = (ratio(count("nf_zero"), calls(nf)), "ratio")
    for name in (
        "groebner.radical_member",
        "groebner.eliminate",
        "groebner.saturate",
        "groebner.ideal_member",
        "geometry.piece_is_empty",
        "geometry.closure",
        "polyring.substitute",
        "polyring.evaluate",
        "fforacle.compile_poly",
    ):
        m[f"{name}.calls"] = (median(calls(name)), "count")
    m["scenarios.checks"] = (median(count("checks")), "count")
    for name in ("scenarios.run_scenario", "fforacle.enumerate_orbits", "fforacle.enumerate_image"):
        m[f"{name}.self_s"] = (median(self_s(name)), "s")
    m["fforacle.points"] = (median(count("ff_points")), "count")
    m["fforacle.action_evals_computed"] = (median(count("ff_action_evals")), "count")
    m["fforacle.shadows_skipped"] = (median(count("ff_skipped")), "count")
    m["trace_overhead_ratio"] = (
        statistics.median(traced.pass_s) / statistics.median(untraced.pass_s),
        "ratio",
    )
    return m


def sympy_column() -> dict:
    """sympy's Groebner time on the gb-families ideals, as a reference."""
    from workloads import families, sympy_groebner

    out = {}
    for name, (ring, gens) in families().items():
        out[f"sympy.{name}_s"] = (sympy_groebner(ring, gens)[1], "s")
    return out


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dcoset" / "__init__.py").is_file():
        print(f"error: dcoset sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dcoset
    import workloads

    if Path(dcoset.__file__).resolve().parent != SRC / "dcoset":
        print(f"error: imported dcoset from {dcoset.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")

    workload = workloads.WORKLOADS[args.workload]
    reference = load_reference(workload.name)
    plans = workload.plans(args.seed)
    setup_s = None if args.trace else measure_setup(workload.name, args.seed)

    untraced = Passes(workload, reference)
    start = time.perf_counter()
    if not args.trace:
        while not untraced.pass_s or time.perf_counter() - start < args.seconds:
            untraced.run(next(plans))
        passes = [untraced]
        metrics, extra = end_to_end(untraced, setup_s)
    else:
        # alternate untraced and traced passes so both see the same machine
        traced = Passes(workload, reference)
        tracer = Tracer()
        while not traced.pass_s or time.perf_counter() - start < args.seconds:
            untraced.run(next(plans))
            tracer.pass_id = len(traced.pass_s)
            with tracer:
                traced.run(next(plans))
        passes = [untraced, traced]
        metrics = per_layer(tracer, traced, untraced)
        extra = sympy_column() if workload.name == "gb-families" else {}
        OUT.mkdir(exist_ok=True)
        stem = f"{workload.name}-seed{args.seed}"
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")
        with open(OUT / f"{stem}.metrics.json", "w", encoding="utf-8") as fh:
            json.dump({**metrics, **extra}, fh, indent=2)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{sum(len(p.pass_s) for p in passes)} passes, {attempted} outputs, {failed} failed"
    )
    extra["fail_ratio"] = (failed / attempted, "ratio")
    _print_metrics(metrics)
    _print_metrics(extra)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
