"""Outside-in tracer for dcoset.

The tracer rebinds every public function of the library's layers with a
timing wrapper, in every ``dcoset.*`` namespace that holds it: several
modules bind these functions through ``from .groebner import ...``, and
the engine calls its own helpers through module globals, so each binding
has to be replaced for the inner calls to be seen.  ``uninstall`` puts the
original functions back.

Spans are kept in memory as ``[name, start, end, parent index, pass id]``
and written out once the run ends.  A few counters that need the
arguments or the result of a call (cache hits, zero remainders, points
enumerated) are kept per pass beside them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("polyring", "groebner", "geometry", "morphism", "action", "scenarios", "fforacle")

# per-term helpers: wrapping them would mostly time the wrapper
_UNTRACED = frozenset(
    {
        "polyring.mono_mul",
        "polyring.mono_div",
        "polyring.mono_divides",
        "polyring.mono_lcm",
        "polyring.mono_degree",
        "polyring.as_point",
        "polyring.as_rational",
        "polyring.compare_monomials",
    }
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))  # pass id -> counter -> n
        self.pass_id = None
        self._open = []
        self._seen = defaultdict(set)  # pass id -> Groebner inputs computed
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- installing and removing the wrappers

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"dcoset.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if inspect.isfunction(fn) and name not in _UNTRACED:
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "dcoset" and not modname.startswith("dcoset."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
        piece = sys.modules["dcoset.geometry"].LocallyClosedPiece
        self._patch(piece, "is_empty", self._wrap("geometry.piece_is_empty", piece.is_empty))

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.pass_id]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if after is not None:
                after(self.counts[self.pass_id], result)
            return result

        return traced

    # -- reading the trace

    def per_pass(self):
        """pass id -> {"calls": {name: n}, "self_s": {name: s}}.

        Self time is a span's duration minus the durations of its direct
        children, which are nested inside it."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": defaultdict(int), "self_s": defaultdict(float)})
        for i, (name, start, end, _, pass_id) in enumerate(self.spans):
            stats = out[pass_id]
            stats["calls"][name] += 1
            stats["self_s"][name] += end - start - child[i]
        return out

    def write(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, pass_id]) + "\n")


# -- counters that need a call's arguments or result


def _groebner_basis_before(tracer, args, kwargs):
    ideal = args[0]
    order = (args[1] if len(args) > 1 else kwargs.get("order")) or ideal.ring.order
    tag = order.tag()
    counts = tracer.counts[tracer.pass_id]
    # Ideal keeps its reduced bases per order tag; a hit never reaches Buchberger
    if tag in getattr(ideal, "_gb", {}):
        counts["gb_hits"] += 1
        return
    key = (ideal.ring.vars, tag, ideal.generators)
    seen = tracer._seen[tracer.pass_id]
    if key in seen:
        counts["gb_repeats"] += 1
    seen.add(key)


def _groebner_basis_after(counts, basis):
    counts["gb_max_basis_len"] = max(counts["gb_max_basis_len"], len(basis))
    degree = max((g.total_degree() for g in basis), default=0)
    counts["gb_max_degree"] = max(counts["gb_max_degree"], degree)


def _normal_form_after(counts, remainder):
    counts["nf_zero"] += remainder.is_zero()


def _enumerate_orbits_after(counts, census):
    counts["ff_points"] += census.point_count
    counts["ff_action_evals"] += census.point_count * census.group_order


def _enumerate_image_after(counts, enum):
    counts["ff_points"] += enum.source_count


def _cross_check_after(counts, report):
    # cross_check reports a shadow declared for other primes with a
    # non-"verified" kind; every enumerated check is "verified"
    counts["ff_skipped"] += sum(c.kind != "verified" for c in report.checks)


def _run_scenario_after(counts, report):
    counts["checks"] += len(report.checks)


_BEFORE = {"groebner.groebner_basis": _groebner_basis_before}
_AFTER = {
    "groebner.groebner_basis": _groebner_basis_after,
    "groebner.normal_form": _normal_form_after,
    "fforacle.enumerate_orbits": _enumerate_orbits_after,
    "fforacle.enumerate_image": _enumerate_image_after,
    "fforacle.cross_check": _cross_check_after,
    "scenarios.run_scenario": _run_scenario_after,
}
