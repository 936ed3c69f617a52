"""Outside-in layer tracing for the benchmark.

`Tracer.install()` replaces selected public functions and methods of the
bfequiv modules with timing wrappers, patched wherever the package looks
them up (module attributes bound by ``from .x import f`` included).  Each
call records a span (target, start, end, parent, input size); spans stay
in memory until `summary()` turns them into per-layer metrics.

Metric conventions:

* ``<layer>.self_s`` -- time inside the layer's traced calls minus the
  time covered by their traced child calls; time spent in the integrand
  that a caller hands to ``integrate.quad`` counts for the caller's layer;
* ``<layer>.<category>_s`` -- inclusive time of the outermost calls of a
  category (nested calls of the same category are not counted twice);
* counts (``values``, ``draws``, ``moments``, ...) -- see ``METRICS``.

Functions called once per quadrature node (prior densities, integrands)
are deliberately not wrapped: a span per node would mostly measure the
tracer itself.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

LAYERS = (
    "cli",
    "problems",
    "rng",
    "bayes_factors",
    "priors",
    "calibrate",
    "distributions",
    "integrate",
    "power",
    "properties",
    "reports",
)


def _array_size(args, kwargs):
    """Number of statistic values in a Bayes-factor call (1 for scalars)."""
    size = 1
    for a in list(args) + list(kwargs.values()):
        if isinstance(a, np.ndarray) and a.ndim > 0:
            size = max(size, a.size)
    return size


def _draws(args, kwargs):
    # simulate_summary(self, rng, theta, size, ...)
    return int(kwargs["size"] if "size" in kwargs else args[3])


def _text_bytes(args, kwargs):
    # write_text(path, content)
    content = kwargs["content"] if "content" in kwargs else args[1]
    return {"reports.bytes": len(content.encode())}


def _mismatches(report):
    return {"calibrate.mismatches": report.n_mismatch}


def _catalogue(result):
    results, _ = result
    return {
        "properties.trials": sum(r.n_trials for r in results),
        "properties.failed": sum(1 for r in results if not r.passed),
    }


_BF_ENGINES = {
    "TTestBf": ("series", "__call__", "from_t_squared"),
    "RegressionKnownVarBf": ("series", "__call__"),
    "RegressionUnknownVarBf": ("series", "__call__", "from_f"),
    "TwoSampleKnownVarBf": ("__call__", "from_t"),
    "TwoSampleTBf": ("__call__", "from_t"),
    "VarianceRatioBf": ("__call__",),
    "SubsetSelectionBf": ("__call__", "from_f"),
}
_BF_ORACLES = {
    "TTestBf": ("crosscheck",),
    "RegressionKnownVarBf": ("quadrature", "crosscheck"),
    "RegressionUnknownVarBf": ("quadrature", "crosscheck"),
    "VarianceRatioBf": ("adaptive",),
}
_BF_LAZY_BUILD = ("TTestBf", "RegressionKnownVarBf", "RegressionUnknownVarBf")
_PROBLEM_METHODS = {
    "simulate_summary": "simulate",
    "decision_stat": "stat",
    "alt_cdf": "alt_cdf",
    "summarize": None,
    "null_law": None,
    "alt_law": None,
}


def targets():
    """(layer, module, owner class or None, attribute, category, hooks)."""
    out = []

    def add(layer, module, owner, attr, category=None, **hooks):
        out.append((layer, module, owner, attr, category, hooks))

    add("cli", "cli", None, "main", "op")
    for name in ("build_problem", "build_bf"):
        add("cli", "cli", None, name, "build")
    add("cli", "cli", None, "parse_config")
    add("cli", "cli", None, "load_observed_summary")

    bfm = "bayes_factors"
    for name in (
        "bf_one_sided",
        "bf_one_sided_normal_conjugate",
        "bf_one_sided_normal_halfnormal",
        "bf_one_sided_normal_exponential",
        "bf_two_sided_normal_conjugate",
        "bf_regression_known_var_gaussian",
        "bf_subjective_variance",
    ):
        add("bayes_factors", bfm, None, name, "eval", size=_array_size)
    for name in ("bf_two_sided", "bf_t_test_quadrature"):
        add("bayes_factors", bfm, None, name, "oracle")
    add("bayes_factors", bfm, None, "johnson_umpbt_threshold")
    for cls, methods in _BF_ENGINES.items():
        add("bayes_factors", bfm, cls, "__init__", "build")
        for meth in methods:
            add("bayes_factors", bfm, cls, meth, "eval", size=_array_size)
    for cls in _BF_LAZY_BUILD:
        add("bayes_factors", bfm, cls, "log_coefficient", "build")
    for cls, methods in _BF_ORACLES.items():
        for meth in methods:
            add("bayes_factors", bfm, cls, meth, "oracle")

    add("priors", "priors", "ScaledSymmetricPrior", "log_even_moment", "moment")
    for cls in ("DensityPrior", "SphericalPrior", "ScaledSymmetricPrior", "SymmetricPaired"):
        add("priors", "priors", cls, "__init__")
    add("priors", "priors", "SphericalPrior", "gaussian")
    for name in ("solve_pairing", "build_symmetric_class_member",
                 "half_normal_prior", "exponential_prior"):
        add("priors", "priors", None, name)

    problems = importlib.import_module("bfequiv.problems")
    for cls_name, cls in sorted(vars(problems).items()):
        if not (isinstance(cls, type) and issubclass(cls, problems.TestProblem)):
            continue
        for meth, category in _PROBLEM_METHODS.items():
            if meth in vars(cls):
                hooks = {"size": _draws} if category == "simulate" else {}
                add("problems", "problems", cls_name, meth, category, **hooks)
    add("problems", "problems", None, "orthonormalize")

    add("rng", "rng", "RngStream", "substream", "substream")

    for name in ("calibrate", "gamma_from_alpha", "lambda_from_gamma"):
        add("calibrate", "calibrate", None, name, "calibrate")
    add("calibrate", "calibrate", None, "gamma_from_lambda", "invert")
    add("calibrate", "calibrate", None, "verify_equivalence", "verify", result=_mismatches)
    add("calibrate", "calibrate", "DecisionRule", "classical", "compare")
    add("calibrate", "calibrate", "DecisionRule", "bayes", "compare")
    add("calibrate", "calibrate", "CriticalRegion", "size")

    add("distributions", "distributions", None, "quantile", "quantile")
    add("distributions", "distributions", None, "cdf", "cdf")
    add("distributions", "distributions", None, "pdf")
    add("distributions", "distributions", None, "sample")

    add("integrate", "integrate", None, "quad", "quad", callback=True)
    add("integrate", "integrate", None, "gauss_legendre_nodes")

    for name, category in (
        ("mc_power", "mc_power"),
        ("exact_power", "exact_power"),
        ("dominance_study", "dominance"),
        ("johnson_comparison", "johnson"),
        ("calibrate_lambda_mc", None),
    ):
        add("power", "power", None, name, category)

    add("properties", "properties", None, "run_catalogue", "run", result=_catalogue)
    add("properties", "properties", None, "run_property")

    for name in ("write_csv", "write_svg_lines"):
        add("reports", "reports", None, name, "write")
    add("reports", "reports", None, "write_text", "write", args=_text_bytes)
    return out


# Per-layer metrics reported by the traced run: name -> (unit, how).
# how = ("time", layer, category): inclusive seconds of outermost calls;
#       ("count", layer, category): number of calls;
#       ("size", layer, category): summed input size of outermost calls;
#       ("counter", key): counters summed from call arguments or results;
#       ("self", layer): layer self time;
#       ("spans",): number of spans recorded.
METRICS = {
    "bayes_factors.eval_s": ("s", ("time", "bayes_factors", "eval")),
    "bayes_factors.values": ("count", ("size", "bayes_factors", "eval")),
    "bayes_factors.ns_per_value": ("ns", ("per_value",)),
    "bayes_factors.scalar_eval_s": ("s", ("time", "bayes_factors", "scalar_eval")),
    "bayes_factors.scalar_calls": ("count", ("outer", "bayes_factors", "scalar_eval")),
    "bayes_factors.build_s": ("s", ("time", "bayes_factors", "build")),
    "bayes_factors.oracle_s": ("s", ("time", "bayes_factors", "oracle")),
    "priors.moment_s": ("s", ("time", "priors", "moment")),
    "priors.moments": ("count", ("count", "priors", "moment")),
    "problems.simulate_s": ("s", ("time", "problems", "simulate")),
    "problems.draws": ("count", ("size", "problems", "simulate")),
    "problems.stat_s": ("s", ("time", "problems", "stat")),
    "problems.alt_cdf_s": ("s", ("time", "problems", "alt_cdf")),
    "rng.substream_s": ("s", ("time", "rng", "substream")),
    "rng.substreams": ("count", ("count", "rng", "substream")),
    "calibrate.calibrate_s": ("s", ("time", "calibrate", "calibrate")),
    "calibrate.invert_s": ("s", ("time", "calibrate", "invert")),
    "calibrate.compare_s": ("s", ("time", "calibrate", "compare")),
    "calibrate.verify_s": ("s", ("time", "calibrate", "verify")),
    "calibrate.mismatches": ("count", ("counter", "calibrate.mismatches")),
    "distributions.quantile_s": ("s", ("time", "distributions", "quantile")),
    "distributions.cdf_s": ("s", ("time", "distributions", "cdf")),
    "distributions.calls": ("count", ("count", "distributions", None)),
    "integrate.quad_s": ("s", ("time", "integrate", "quad")),
    "integrate.quad_calls": ("count", ("count", "integrate", "quad")),
    "power.mc_power_s": ("s", ("time", "power", "mc_power")),
    "power.exact_power_s": ("s", ("time", "power", "exact_power")),
    "power.dominance_s": ("s", ("time", "power", "dominance")),
    "power.johnson_s": ("s", ("time", "power", "johnson")),
    "properties.run_s": ("s", ("time", "properties", "run")),
    "properties.trials": ("count", ("counter", "properties.trials")),
    "properties.failed": ("count", ("counter", "properties.failed")),
    "reports.write_s": ("s", ("time", "reports", "write")),
    "reports.bytes": ("bytes", ("counter", "reports.bytes")),
    "cli.build_s": ("s", ("time", "cli", "build")),
}
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = ("s", ("self", _layer))
METRICS["trace.spans"] = ("count", ("spans",))


def _timed(f, span, clock):
    """The integrand `f`, adding its run time to span[5]."""

    def timed(*args):
        start = clock()
        try:
            return f(*args)
        finally:
            span[5] += clock() - start

    return timed


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        self.names = []  # target index -> (layer, label, category)
        self.spans = []  # [target, start_ns, end_ns, parent, size, callback_ns]
        self.counters = {}
        self._stack = []
        self._patches = []

    def _wrap(self, fn, target_id, category, hooks):
        size_of = hooks.get("size")
        on_args = hooks.get("args")
        on_result = hooks.get("result")
        timed_callback = hooks.get("callback", False)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        def add_counters(values):
            for key, val in values.items():
                counters[key] = counters.get(key, 0) + val

        def wrapper(*args, **kwargs):
            size = size_of(args, kwargs) if size_of else 0
            if on_args is not None:
                add_counters(on_args(args, kwargs))
            idx = len(spans)
            span = [target_id, clock(), 0, stack[-1] if stack else -1, size, 0]
            spans.append(span)
            if timed_callback:
                args = (_timed(args[0], span, clock),) + args[1:]
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if on_result is not None:
                add_counters(on_result(result))
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "bfequiv" or name.startswith("bfequiv.")
        ]
        for layer, module, owner, attr, category, hooks in targets():
            mod = importlib.import_module(f"bfequiv.{module}")
            target_id = len(self.names)
            label = f"{module}.{owner + '.' if owner else ''}{attr}"
            self.names.append((layer, label, category))
            if owner is None:
                orig = getattr(mod, attr)
                wrapped = self._wrap(orig, target_id, category, hooks)
                for m in modules:
                    for name, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, name, orig))
                            setattr(m, name, wrapped)
                continue
            cls = getattr(mod, owner)
            orig = vars(cls)[attr]
            if isinstance(orig, staticmethod):
                wrapped = staticmethod(self._wrap(orig.__func__, target_id, category, hooks))
            else:
                wrapped = self._wrap(orig, target_id, category, hooks)
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for obj, name, orig in reversed(self._patches):
            setattr(obj, name, orig)
        self._patches.clear()

    def _category(self, span):
        """Bayes-factor evaluations split into batch and scalar calls."""
        _, _, category = self.names[span[0]]
        if category == "eval" and span[4] <= 1:
            return "scalar_eval"
        return category

    def summary(self) -> dict:
        """Per-layer metrics (see METRICS) from the recorded spans."""
        n = len(self.spans)
        layer_of = [self.names[s[0]][0] for s in self.spans]
        cat_of = [self._category(s) for s in self.spans]
        child_time = [0] * n
        above = [frozenset()] * n  # (layer, category) pairs of the ancestors
        caller = list(layer_of)  # nearest ancestor layer other than the own one
        for i, (_, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                above[i] = above[parent] | {(layer_of[parent], cat_of[parent])}
                same = layer_of[parent] == layer_of[i]
                caller[i] = caller[parent] if same else layer_of[parent]
        self_ns = {layer: 0 for layer in LAYERS}
        time_ns, counts, outer, sizes = {}, {}, {}, {}
        for i, (_, start, end, _, size, callback) in enumerate(self.spans):
            layer, cat = layer_of[i], cat_of[i]
            own = end - start - child_time[i]
            if callback:
                # integrand time belongs to the layer that defined the
                # integrand; traced calls inside it are already children
                self_ns[caller[i]] += callback - child_time[i]
                own -= callback - child_time[i]
            self_ns[layer] += own
            for key in ((layer, cat), (layer, None)):
                counts[key] = counts.get(key, 0) + 1
            if (layer, cat) not in above[i]:
                key = (layer, cat)
                time_ns[key] = time_ns.get(key, 0) + end - start
                outer[key] = outer.get(key, 0) + 1
                sizes[key] = sizes.get(key, 0) + size
        out = {}
        for name, (_, how) in METRICS.items():
            kind = how[0]
            if kind == "time":
                out[name] = time_ns.get(how[1:], 0) / 1e9
            elif kind == "count":
                out[name] = counts.get(how[1:], 0)
            elif kind == "outer":
                out[name] = outer.get(how[1:], 0)
            elif kind == "size":
                out[name] = sizes.get(how[1:], 0)
            elif kind == "counter":
                out[name] = self.counters.get(how[1], 0)
            elif kind == "self":
                out[name] = self_ns[how[1]] / 1e9
            elif kind == "spans":
                out[name] = n
        values = out["bayes_factors.values"]
        out["bayes_factors.ns_per_value"] = (
            out["bayes_factors.eval_s"] * 1e9 / values if values else 0.0
        )
        return out

    def dump(self) -> list:
        """Spans as plain records, for writing out after the pass."""
        return [
            {
                "name": self.names[t][1],
                "layer": self.names[t][0],
                "start_ns": start,
                "end_ns": end,
                "parent": parent,
                "size": size,
            }
            for t, start, end, parent, size, _ in self.spans
        ]
