"""Spans around tropfan's public functions, installed from outside the package.

`Tracer.install()` replaces each function listed in `TRACED` by a wrapper in
every `tropfan` module namespace that bound it: `from .linalg import
int_inverse` copies the binding into `fans`, so patching `tropfan.linalg`
alone would miss those callers. Spans (id, parent id, name, start, end) are
kept in memory; self time is computed from them after the command ends.
A layer's self time is the time spent in its listed functions minus the time
of the listed functions they call, so unlisted helpers (polynomial
arithmetic, `Fraction`, cone methods) count toward the nearest listed caller.
"""

from __future__ import annotations

import collections
import functools
import gzip
import json
import sys
import time

TRACED = {
    "linalg": ("solve_rational", "int_inverse", "hnf_completion",
               "hermite_normal_form", "smith_normal_form", "rational_rank",
               "cone_feasible", "lattice_index"),
    "polynomials": ("parse_polynomial", "newton_polytope"),
    "groebner": ("reduced_groebner_basis", "normal_form", "s_polynomial",
                 "saturate", "is_monomial_free", "groebner_fan"),
    "fans": ("cone_from_halfspaces", "cone_from_generators", "intersect",
             "facets_with_normals", "all_faces", "fan_from_cones"),
    "cycles": ("is_balanced", "cycle_from_dict", "weighted_from_cones"),
    "tropical": ("tropical_hypersurface", "tropical_prevariety",
                 "tropical_variety", "is_tropical_basis",
                 "stable_intersection"),
    "cli": ("main", "read_ideal_file", "read_cycle", "format_output"),
}

# Inclusive time is reported where a function is an entry point whose whole
# cost matters, not only the part outside the other listed functions.
INCLUSIVE = ("tropical",)

# Counters taken from return values: metric name -> (function, predicate).
# The predicate's result is summed over calls.
RESULT_COUNTERS = {
    "groebner.groebner_fan.cones": ("groebner.groebner_fan", len),
    "groebner.normal_form.zeros": ("groebner.normal_form",
                                   lambda p: p.is_zero()),
    "groebner.is_monomial_free.trues": ("groebner.is_monomial_free", bool),
}


def function_names():
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.names = function_names()
        self.spans = []       # [parent_id, name_index, start, end]
        self.stack = []       # ids of the open spans
        self.counters = {metric: 0 for metric in RESULT_COUNTERS}

    def _wrap(self, index, fn, counter):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [stack[-1] if stack else -1, index, clock(), None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self):
        """Wrap every listed function wherever a tropfan module bound it."""
        import tropfan.cli  # noqa: F401  (imports every traced module)
        modules = [m for name, m in sys.modules.items()
                   if name == "tropfan" or name.startswith("tropfan.")]
        for index, qualified in enumerate(self.names):
            layer, fn_name = qualified.split(".")
            original = getattr(sys.modules[f"tropfan.{layer}"], fn_name)
            counter = next(((metric, pred) for metric, (owner, pred)
                            in RESULT_COUNTERS.items() if owner == qualified),
                           None)
            wrapper = self._wrap(index, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def summary(self) -> dict:
        """Raw per-function totals: calls, self seconds, inclusive seconds,
        plus the result counters and the fan_cone cache statistics."""
        n = len(self.names)
        calls, self_s, incl_s = [0] * n, [0.0] * n, [0.0] * n
        for parent, index, start, end in self.spans:
            duration = end - start
            calls[index] += 1
            self_s[index] += duration
            incl_s[index] += duration
            if parent >= 0:
                self_s[self.spans[parent][1]] -= duration
        out = dict(self.counters)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
            out[f"{name}.incl_s"] = incl_s[i]
        info = sys.modules["tropfan.fans"].fan_cone.cache_info()
        out["fans.fan_cone.hits"] = info.hits
        out["fans.fan_cone.misses"] = info.misses
        return out

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (parent, index, start, end) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, self.names[index],
                                     start, end]) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from raw totals summed over
    the commands of one pass; missing totals count as zero."""
    raw = collections.defaultdict(int, raw)
    out = {}
    for layer, fns in TRACED.items():
        total = 0.0
        for fn in fns:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = (raw[f"{name}.calls"], "count")
            out[f"{name}.self_s"] = (raw[f"{name}.self_s"], "s")
            if layer in INCLUSIVE:
                out[f"{name}.incl_s"] = (raw[f"{name}.incl_s"], "s")
            total += raw[f"{name}.self_s"]
        out[f"{layer}.self_s"] = (total, "s")
    out["groebner.groebner_fan.cones"] = (
        raw["groebner.groebner_fan.cones"], "count")
    out["groebner.normal_form.zero_ratio"] = (
        _ratio(raw["groebner.normal_form.zeros"],
               raw["groebner.normal_form.calls"]), "ratio")
    out["groebner.is_monomial_free.true_ratio"] = (
        _ratio(raw["groebner.is_monomial_free.trues"],
               raw["groebner.is_monomial_free.calls"]), "ratio")
    hits, misses = raw["fans.fan_cone.hits"], raw["fans.fan_cone.misses"]
    out["fans.fan_cone.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    return out
