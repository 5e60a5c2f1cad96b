"""Timing wrappers around the public boundaries of each harvestfield module.

The wrappers are installed from the benchmark, not from the package: every
boundary function is replaced in each module that binds it (``best_response``
lives in ``impulse``, ``meanfield`` and ``cli``), methods are replaced on their
class. Spans are kept in memory as ``(name, start, end, parent, op)`` records
and written out once, after the run. ``s`` and ``m`` run hundreds of
thousands of times per op on the quadrature route, so they are only counted.

A boundary that the package no longer has, or whose result no longer has
what a count reads, is recorded as absent; its metrics read 0 and are listed
as absent in the report instead of failing the run.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

# (module, attribute, metric prefix, spanned?). Dotted attributes are methods.
BOUNDARIES = (
    ("cli", "main", "cli.main", True),
    ("scenario", "load_scenario", "scenario.load_scenario", True),
    ("expressions", "parse_expression", "expressions.parse_expression", False),
    ("reports", "dump_json", "reports.dump_json", True),
    ("quadrature", "integrate", "quadrature.integrate", True),
    ("quadrature", "integrate_to_zero", "quadrature.integrate_to_zero", True),
    ("quadrature", "integrate_to_inf", "quadrature.integrate_to_inf", True),
    ("quadrature", "CumulativeIntegral.__call__", "quadrature.CumulativeIntegral", True),
    ("diffusion", "_Calculus.S", "diffusion.S", True),
    ("diffusion", "_Calculus.M0", "diffusion.M0", True),
    ("diffusion", "_Calculus.xm0", "diffusion.xm0", True),
    ("diffusion", "_Calculus.mum0", "diffusion.mum0", True),
    ("diffusion", "_Calculus.s", "diffusion.s", False),
    ("diffusion", "_Calculus.m", "diffusion.m", False),
    ("hitting", "XiEvaluator.xi", "hitting.xi", True),
    ("hitting", "XiEvaluator.xi_by_quadrature", "hitting.xi_by_quadrature", True),
    ("hitting", "XiEvaluator.xi_prime", "hitting.xi_prime", True),
    ("hitting", "XiEvaluator.xi_second", "hitting.xi_second", True),
    ("hitting", "XiEvaluator.convexity_switch", "hitting.convexity_switch", True),
    ("impulse", "optimal_threshold_basic", "impulse.optimal_threshold_basic", True),
    ("impulse", "optimal_thresholds_on_grid", "impulse.optimal_thresholds_on_grid", True),
    ("impulse", "best_response", "impulse.best_response", True),
    ("impulse", "stopping_value", "impulse.stopping_value", True),
    ("meanfield", "phi_map", "meanfield.phi_map", True),
    ("meanfield", "classify_stability", "meanfield.classify_stability", True),
    ("meanfield", "resolve_payoff", "meanfield.resolve_payoff", True),
    ("meanfield", "mfg_equilibrium", "meanfield.mfg_equilibrium", True),
    ("meanfield", "mfc_optimum", "meanfield.mfc_optimum", True),
    ("stationary", "expected_stock_grid", "stationary.expected_stock_grid", True),
    ("stationary", "expected_stock", "stationary.expected_stock", True),
    ("stationary", "density_table", "stationary.density_table", True),
    ("simulation", "estimate_hitting_time", "simulation.estimate_hitting_time", True),
    ("simulation", "estimate_stationary_mean", "simulation.estimate_stationary_mean", True),
    ("simulation", "estimate_value", "simulation.estimate_value", True),
    ("simulation", "simulate_path", "simulation.simulate_path", True),
)

SIMULATION_SPANS = (
    "simulation.estimate_hitting_time",
    "simulation.estimate_stationary_mean",
    "simulation.estimate_value",
    "simulation.simulate_path",
)

# Per-layer metrics: (name, unit, better, boundary it is computed from).
METRICS = (
    ("quadrature.integrate.calls", "count", "lower", "quadrature.integrate"),
    ("quadrature.integrate.self_s", "s", "lower", "quadrature.integrate"),
    ("quadrature.integrate_to_zero.calls", "count", "lower", "quadrature.integrate_to_zero"),
    ("quadrature.integrate_to_inf.calls", "count", "lower", "quadrature.integrate_to_inf"),
    ("quadrature.CumulativeIntegral.calls", "count", "lower", "quadrature.CumulativeIntegral"),
    ("quadrature.CumulativeIntegral.self_s", "s", "lower", "quadrature.CumulativeIntegral"),
    ("quadrature.CumulativeIntegral.miss_ratio", "ratio", "lower", "quadrature.CumulativeIntegral"),
    ("diffusion.S.calls", "count", "lower", "diffusion.S"),
    ("diffusion.S.self_s", "s", "lower", "diffusion.S"),
    ("diffusion.M0.calls", "count", "lower", "diffusion.M0"),
    ("diffusion.M0.self_s", "s", "lower", "diffusion.M0"),
    ("diffusion.xm0.calls", "count", "lower", "diffusion.xm0"),
    ("diffusion.mum0.calls", "count", "lower", "diffusion.mum0"),
    ("diffusion.s.calls", "count", "lower", "diffusion.s"),
    ("diffusion.m.calls", "count", "lower", "diffusion.m"),
    ("hitting.xi.calls", "count", "lower", "hitting.xi"),
    ("hitting.xi.points", "count", "lower", "hitting.xi"),
    ("hitting.xi.self_s", "s", "lower", "hitting.xi"),
    ("hitting.xi_by_quadrature.calls", "count", "lower", "hitting.xi_by_quadrature"),
    ("hitting.xi_by_quadrature.self_s", "s", "lower", "hitting.xi_by_quadrature"),
    ("hitting.xi_prime.calls", "count", "lower", "hitting.xi_prime"),
    ("hitting.xi_second.calls", "count", "lower", "hitting.xi_second"),
    ("hitting.convexity_switch.self_s", "s", "lower", "hitting.convexity_switch"),
    ("impulse.optimal_threshold_basic.calls", "count", "lower", "impulse.optimal_threshold_basic"),
    ("impulse.optimal_threshold_basic.self_s", "s", "lower", "impulse.optimal_threshold_basic"),
    ("impulse.bisection_iters", "count", "lower", "impulse.optimal_threshold_basic"),
    ("impulse.optimal_thresholds_on_grid.calls", "count", "lower", "impulse.optimal_thresholds_on_grid"),
    ("impulse.optimal_thresholds_on_grid.self_s", "s", "lower", "impulse.optimal_thresholds_on_grid"),
    ("impulse.best_response.calls", "count", "lower", "impulse.best_response"),
    ("impulse.stopping_value.self_s", "s", "lower", "impulse.stopping_value"),
    ("meanfield.phi_map.calls", "count", "lower", "meanfield.phi_map"),
    ("meanfield.phi_map.mean_s", "s", "lower", "meanfield.phi_map"),
    ("meanfield.classify_stability.self_s", "s", "lower", "meanfield.classify_stability"),
    ("meanfield.resolve_payoff.self_s", "s", "lower", "meanfield.resolve_payoff"),
    ("meanfield.mfg_equilibrium.self_s", "s", "lower", "meanfield.mfg_equilibrium"),
    ("meanfield.mfc_optimum.self_s", "s", "lower", "meanfield.mfc_optimum"),
    ("stationary.expected_stock_grid.calls", "count", "lower", "stationary.expected_stock_grid"),
    ("stationary.expected_stock_grid.self_s", "s", "lower", "stationary.expected_stock_grid"),
    ("stationary.expected_stock.calls", "count", "lower", "stationary.expected_stock"),
    ("stationary.density_table.self_s", "s", "lower", "stationary.density_table"),
    ("simulation.path_steps", "count", "lower", None),
    ("simulation.path_steps_per_s", "1/s", "higher", None),
    ("simulation.estimate_hitting_time.self_s", "s", "lower", "simulation.estimate_hitting_time"),
    ("simulation.estimate_stationary_mean.self_s", "s", "lower", "simulation.estimate_stationary_mean"),
    ("simulation.estimate_value.self_s", "s", "lower", "simulation.estimate_value"),
    ("simulation.simulate_path.self_s", "s", "lower", "simulation.simulate_path"),
    ("cli.main.self_s", "s", "lower", "cli.main"),
    ("scenario.load_scenario.self_s", "s", "lower", "scenario.load_scenario"),
    ("expressions.parse_expression.calls", "count", "lower", "expressions.parse_expression"),
    ("reports.dump_json.self_s", "s", "lower", "reports.dump_json"),
    ("trace.overhead_frac", "ratio", "lower", None),
)

# Which end-to-end metric each layer's numbers should move, on which workload,
# and where little or no change is predicted.
LAYER_EFFECTS = {
    "quadrature": ("ops_per_ref_s, op_p50_ref_s", "generic-coeffs", "market-rate, monte-carlo"),
    "diffusion": ("ops_per_ref_s", "generic-coeffs, market-stock", "monte-carlo"),
    "hitting": ("op_p50_ref_s", "market-rate, market-stock", "monte-carlo"),
    "impulse": ("ops_per_ref_s", "market-rate; grid solve: market-stock", "-"),
    "meanfield": ("ops_per_ref_s, op_tail_ref_s", "market-rate, then market-stock", "generic-coeffs"),
    "stationary": ("op_p50_ref_s", "market-stock", "market-rate"),
    "simulation": ("ops_per_ref_s, peak_rss_mb", "monte-carlo", "all others"),
    "cli": ("op_p50_ref_s", "monte-carlo (path.csv), market-* (density.csv)", "-"),
    "scenario": ("op_p50_ref_s", "every workload", "-"),
    "expressions": ("op_p50_ref_s", "generic-coeffs", "-"),
    "reports": ("op_p50_ref_s", "every workload", "-"),
    "trace": ("-", "every workload", "-"),
}


def _xi_points(counts, args, result):
    counts["hitting.xi.points"] += getattr(args[1], "size", 1)


def _bisection_iters(counts, args, result):
    counts["impulse.bisection_iters"] += int(getattr(result, "iterations", 0))


def _first_passage_steps(counts, args, result):
    counts["simulation.path_steps"] += result.value * result.n / result.details["dt"]


def _long_run_steps(counts, args, result):
    d = result.details
    counts["simulation.path_steps"] += d["chunks"] * (d["burn_in"] + d["window"]) / d["dt"]


def _path_steps(counts, args, result):
    counts["simulation.path_steps"] += len(result.times) - 1


# Counts taken from a boundary's arguments or result: boundary -> (metric, hook).
HOOKS = {
    "hitting.xi": ("hitting.xi.points", _xi_points),
    "impulse.optimal_threshold_basic": ("impulse.bisection_iters", _bisection_iters),
    "simulation.estimate_hitting_time": ("simulation.path_steps", _first_passage_steps),
    "simulation.estimate_stationary_mean": ("simulation.path_steps", _long_run_steps),
    "simulation.estimate_value": ("simulation.path_steps", _long_run_steps),
    "simulation.simulate_path": ("simulation.path_steps", _path_steps),
}


class Tracer:
    """Collects spans and counts from wrappers installed on harvestfield's boundaries."""

    def __init__(self):
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self.op = -1
        self.active = True
        self._stack: list[int] = []

    def _span(self, name, fn):
        spans, stack, counts, absent = self.spans, self._stack, self.counts, self.absent
        hook_metric, hook = HOOKS.get(name, (None, None))
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index] = (name, start, clock(), parent, tracer.op)
            if hook is not None:
                try:
                    hook(counts, args, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    # the boundary no longer returns what the hook reads
                    if hook_metric not in absent:
                        absent.append(hook_metric)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every boundary in every harvestfield module that binds it."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "harvestfield" or key.startswith("harvestfield."))
        ]
        for module_name, attr, name, spanned in BOUNDARIES:
            module = sys.modules.get(f"harvestfield.{module_name}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner_name:
                fn = vars(owner).get(member) if isinstance(owner, type) else None
            else:
                fn = getattr(owner, member, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapped = self._span(name, fn) if spanned else self._count(name, fn)
            if owner_name:
                setattr(owner, member, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts."""
        calls = collections.Counter()
        total = collections.defaultdict(float)
        self_time = collections.defaultdict(float)
        child_time = [0.0] * len(self.spans)
        missed = set()
        for index in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[index]
            duration = end - start
            calls[name] += 1
            total[name] += duration
            self_time[name] += duration - child_time[index]
            if parent >= 0:
                child_time[parent] += duration
                if name == "quadrature.integrate" and self.spans[parent][0] == "quadrature.CumulativeIntegral":
                    missed.add(parent)
        calls.update(self.counts)

        derived = {
            "quadrature.CumulativeIntegral.miss_ratio":
                len(missed) / max(calls["quadrature.CumulativeIntegral"], 1),
            "hitting.xi.points": self.counts["hitting.xi.points"],
            "impulse.bisection_iters": self.counts["impulse.bisection_iters"],
            "meanfield.phi_map.mean_s":
                total["meanfield.phi_map"] / max(calls["meanfield.phi_map"], 1),
            "simulation.path_steps": round(self.counts["simulation.path_steps"]),
            "trace.overhead_frac": overhead_frac,
        }
        sim_time = sum(total[name] for name in SIMULATION_SPANS)
        derived["simulation.path_steps_per_s"] = (
            derived["simulation.path_steps"] / sim_time if sim_time > 0.0 else 0.0
        )
        out = {}
        for metric, _, _, _ in METRICS:
            if metric in derived:
                out[metric] = derived[metric]
            elif metric.endswith(".calls"):
                out[metric] = calls[metric[: -len(".calls")]]
            elif metric.endswith(".self_s"):
                out[metric] = self_time[metric[: -len(".self_s")]]
        return out

    def absent_metrics(self) -> list[str]:
        return [metric for metric, _, _, source in METRICS if source in self.absent or metric in self.absent]

    def write(self, path) -> None:
        """Write the spans as tab-separated lines; times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("op\tname\tstart_s\tend_s\tparent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")
