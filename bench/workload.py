"""One benchmark workload, run in a fresh process by ``run.py``.

The process sets up (imports harvestfield from the checkout's ``src`` and
generates inputs from the seed), then drives the package as a closed loop with
one client: each op starts when the previous one has finished and its output
has been checked. Ops go through ``harvestfield.cli.main`` in-process, or
through the public API where no subcommand exists. Every op gets a freshly
written scenario, so it pays the per-model cold caches that a real CLI run
pays. Each op's latency is taken in wall seconds and in reference seconds,
which factor out the host's drifting speed (see ``SpeedProbe``). The raw
measurements are printed as one JSON object.

Workloads (why each is here):

* ``market-rate``: bundled subcommands on ``logistic-harvest-rate.json``, then
  ``compare`` on random logistic draws. The ``hitting`` series, the scalar
  bisection in ``impulse`` and the bisection over scalar ``phi_map`` in
  ``meanfield`` do nearly all the work; ``quadrature`` is almost idle.
* ``market-stock``: the same on the expected-stock channel. It runs the
  vectorized scan and ``stationary.expected_stock_grid``, whose cycle-stock
  integral goes through ``CumulativeIntegral`` even on the logistic route.
* ``generic-coeffs``: ``solve-single`` on custom-coefficient scenarios; nested
  QUADPACK calls do nearly all the work, the closed forms are idle.
* ``monte-carlo``: ``simulate``, ``estimate_hitting_time`` and
  ``estimate_stationary_mean`` in turn; Euler stepping does nearly all the work,
  once as many paths with a shrinking alive set and once as about 100 chunks
  stepped for more than 1e5 steps.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import functools
import io
import json
import math
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_out"

WORKLOADS = ("market-rate", "market-stock", "generic-coeffs", "monte-carlo")

# Rough wall time of one cycle of ops, used only to size the fixed op list of a
# traced run: each of its two passes gets about seconds/4 worth of cycles, and
# at least one cycle.
NOMINAL_CYCLE_S = {
    "market-rate": 0.1,
    "market-stock": 0.2,
    "generic-coeffs": 2.5,
    "monte-carlo": 12.0,
}

# Monte-Carlo estimates must lie within this many standard errors of their
# analytic value. At 5 SE a correct estimator fails with probability below
# 1e-6 per check, so false alarms over all runs are negligible.
MC_GATE_SE = 5.0

BUNDLED_COMMANDS = ("validate", "solve-single", "solve-mfg", "solve-mfc", "compare", "verify")

clock = time.perf_counter

# The host's speed drifts by up to about 1.7x within seconds to minutes (a
# shared vCPU whose neighbours contend for cache and memory), which swamps any
# change a later PR makes. So each op's latency is also expressed in reference
# seconds: a ref_s is the time this host takes, at that moment, for
# KERNELS_PER_REF_S runs of a fixed reference kernel that does not touch
# harvestfield. The kernel runs right before and right after each op and, from
# a SIGALRM handler, every SAMPLE_PERIOD_S during it; the op's clock stops while
# the handler runs. The kernel mixes Python calls, a random walk over a list of
# float objects and a numpy pass: on this host it follows the drift about twice
# as closely as a pure-Python loop, and sampling inside long ops follows it
# about three times as closely as sampling at their ends only.
REF_LOOP_N = 1000
REF_WALK_SIZE = 60_000
REF_WALK_STEPS = 6000
REF_ARRAY_SIZE = 60_000
KERNELS_PER_REF_S = 500
SAMPLE_PERIOD_S = 0.1


@dataclasses.dataclass
class Op:
    """One operation on a fresh scenario: a CLI subcommand, or an API call when ``api`` is set."""

    label: str
    scenario: dict
    check: Callable[[dict, object], tuple[bool, str]]
    command: str = ""
    argv: tuple[str, ...] = ()
    api: Optional[Callable] = None
    reference: Callable[[], object] = lambda: None
    expect_codes: tuple[int, ...] = (0,)


@dataclasses.dataclass
class Outcome:
    label: str
    latency: float
    ok: bool
    detail: str
    cost: float = 0.0  # latency in ref_s; set by measure()


class ReferenceKernel:
    """A fixed amount of work that does not touch harvestfield, timed to gauge the host's speed."""

    def __init__(self):
        rng = random.Random(0)
        self._floats = [rng.random() for _ in range(REF_WALK_SIZE)]
        self._walk = rng.sample(range(REF_WALK_SIZE), REF_WALK_STEPS)
        self._array = np.linspace(0.0, 1.0, REF_ARRAY_SIZE)

    def seconds(self) -> float:
        """Wall seconds one run of the kernel takes now."""
        start = clock()
        x = 0.1
        for _ in range(REF_LOOP_N):
            x = math.fmod(x * 1.0001 + 0.5, 7.0)
        floats, total = self._floats, 0.0
        for i in self._walk:
            total += floats[i]
        np.exp(np.cumsum(self._array) * 1e-6).sum()
        return clock() - start


class SpeedProbe:
    """Samples the reference kernel in the main thread while ops run; see SAMPLE_PERIOD_S."""

    def __init__(self):
        self.kernel = ReferenceKernel()
        self.samples: list[float] = []  # kernel seconds, in the order taken
        self.spent = 0.0  # seconds spent sampling from the handler
        self._sampling = False

    def clock(self) -> float:
        """A clock that stops while the handler samples."""
        return clock() - self.spent

    def sample(self) -> None:
        """Take one sample outside the handler, with the handler held off."""
        self._sampling = True
        try:
            self.samples.append(self.kernel.seconds())
        finally:
            self._sampling = False

    def _on_alarm(self, _signum, _frame) -> None:
        if self._sampling:
            return
        self._sampling = True
        start = clock()
        try:
            self.samples.append(self.kernel.seconds())
        finally:
            self.spent += clock() - start
            self._sampling = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def measure(ops: Iterable[Op], work: Path, hf) -> list[Outcome]:
    """Execute ops in turn under a SpeedProbe and set each outcome's cost in ref_s."""
    outcomes = []
    with SpeedProbe() as probe:
        probe.sample()
        for op in ops:
            first = len(probe.samples) - 1
            outcome = execute(op, work, hf, timer=probe.clock)
            probe.sample()
            rate = statistics.fmean(1.0 / t for t in probe.samples[first:])
            outcome.cost = outcome.latency * rate / KERNELS_PER_REF_S
            outcomes.append(outcome)
    return outcomes


def execute(op: Op, work: Path, hf, timer: Callable[[], float] = clock) -> Outcome:
    """Run one op; only the program call itself is timed, by ``timer``."""
    out = work / "out"
    report = out / "report.json"
    report.unlink(missing_ok=True)
    log = io.StringIO()
    if op.api is None:
        scenario_path = work / "scenario.json"
        scenario_path.write_text(json.dumps(op.scenario))
        argv = [op.command, "--scenario", str(scenario_path), "--out", str(out), *op.argv]
        start = timer()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(log):
                code = hf.cli.main(argv)
        except (Exception, SystemExit) as exc:
            return Outcome(op.label, timer() - start, False, f"raised {type(exc).__name__}: {exc}")
        latency = timer() - start
        results = json.loads(report.read_text())["results"] if report.exists() else None
    else:
        scenario = copy.deepcopy(op.scenario)
        start = timer()
        try:
            results = op.api(hf.scenario_from_dict(scenario))
        except Exception as exc:
            return Outcome(op.label, timer() - start, False, f"raised {type(exc).__name__}: {exc}")
        latency = timer() - start
        code = 0
    if code not in op.expect_codes:
        message = log.getvalue().strip().splitlines()
        detail = f"exit code {code}" + (f" ({message[-1]})" if message else "")
        if results is not None:
            detail += "; " + _check(op, results)[1]
        return Outcome(op.label, latency, False, detail)
    if results is None:
        # a documented non-zero exit writes nothing; a zero exit must write a report
        return Outcome(op.label, latency, code != 0, f"exit code {code}, nothing written")
    return Outcome(op.label, latency, *_check(op, results))


def _check(op: Op, results) -> tuple[bool, str]:
    try:
        return op.check(results, op.reference())
    except (KeyError, IndexError, TypeError) as exc:
        return False, f"output not as expected: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# output checks: each returns (passed, what was seen)
# ---------------------------------------------------------------------------

def _within(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


def check_validate(results, _ref):
    # 0 is a natural boundary of the logistic family: the entrance probe must
    # report divergence, and every other probe must pass
    probes = ("speed_mass_finite", "first_moment_finite", "turning_point_ok", "scale_diverges")
    ok = all(results[p] is True for p in probes) and results["entrance_finite"] is False
    seen = ", ".join(f"{p} {results[p]}" for p in (*probes, "entrance_finite"))
    return ok, seen


def check_single(results, _ref):
    ok = results["threshold"] > 1.0 and results["value"] > 0.0
    return ok, f"threshold {results['threshold']:.6f}, value {results['value']:.6f}"


def _rate_equilibria(eqs):
    if len(eqs) != 1:
        return False, f"{len(eqs)} equilibria, expected 1"
    eq = eqs[0]
    ok = (
        _within(eq["threshold"], 5.13, 0.05)
        and _within(eq["value"], 0.243, 0.003)
        and eq["stability"] == "stable"
    )
    return ok, (
        f"equilibrium {eq['threshold']:.6f} (5.13+-0.05), value {eq['value']:.6f} "
        f"(0.243+-0.003), {eq['stability']}"
    )


def _rate_planner(planner):
    ok = _within(planner["threshold"], 5.9, 0.1) and _within(planner["value"], 0.254, 0.003)
    return ok, (
        f"planner {planner['threshold']:.6f} (5.9+-0.1), value {planner['value']:.6f} (0.254+-0.003)"
    )


def _stock_equilibria(eqs):
    ok = len(eqs) == 1 and eqs[0]["stability"] == "stable" and _within(eqs[0]["threshold"], 4.435, 0.01)
    seen = ", ".join(f"{eq['threshold']:.6f} {eq['stability']}" for eq in eqs)
    return ok, f"equilibria [{seen}], expected one stable near 4.435"


def check_rate_mfg(results, _ref):
    return _rate_equilibria(results["equilibria"])


def check_rate_mfc(results, _ref):
    return _rate_planner(results)


def check_rate_compare(results, _ref):
    eq_ok, eq_seen = _rate_equilibria(results["equilibria"]["equilibria"])
    pl_ok, pl_seen = _rate_planner(results["planner"])
    return results["ok"] is True and eq_ok and pl_ok, f"{eq_seen}; {pl_seen}; ordering ok {results['ok']}"


def check_stock_mfg(results, _ref):
    return _stock_equilibria(results["equilibria"])


def check_stock_mfc(results, _ref):
    ok = results["threshold"] < 4.435 and results["value"] > 0.0
    return ok, f"planner {results['threshold']:.6f} below the equilibrium 4.435, value {results['value']:.6f}"


def check_stock_compare(results, _ref):
    eq_ok, eq_seen = _stock_equilibria(results["equilibria"]["equilibria"])
    return results["ok"] is True and eq_ok, f"{eq_seen}; ordering ok {results['ok']}"


def check_verify(results, _ref):
    v = results["verification"]
    return v["passed"] is True, (
        f"verification passed {v['passed']}, u_max_on_grid {v['u_max_on_grid']:.6g}, "
        f"g_at_restart {v['g_at_restart']:.3g}, flags {v['flags']}"
    )


def check_ordering(results, _ref):
    margins = results["margins"]
    ok = results["ok"] is True and len(margins) > 0 and min(margins) >= -1e-6
    return ok, f"ordering ok {results['ok']}, worst margin {min(margins, default=math.nan):.3g}"


def check_closed_form(results, reference):
    rel = abs(results["threshold"] - reference) / reference
    return rel <= 1e-6, f"threshold {results['threshold']:.9f} vs closed form {reference:.9f} (rel {rel:.1e})"


def check_mc(value_key: str, se_key: str):
    def check(results, reference):
        value, se = results[value_key], results[se_key]
        z = (value - reference) / se
        return abs(z) <= MC_GATE_SE, f"estimate {value:.6f} +- {se:.2g} vs analytic {reference:.6f} ({z:+.2f} SE)"
    return check


def check_documented_exit(results, _ref):
    return True, "documented exit code"


BUNDLED_CHECKS = {
    "harvest_rate": {
        "validate": check_validate,
        "solve-single": check_single,
        "solve-mfg": check_rate_mfg,
        "solve-mfc": check_rate_mfc,
        "compare": check_rate_compare,
        "verify": check_verify,
    },
    "expected_stock": {
        "validate": check_validate,
        "solve-single": check_single,
        "solve-mfg": check_stock_mfg,
        "solve-mfc": check_stock_mfc,
        "compare": check_stock_compare,
        "verify": check_verify,
    },
}


# ---------------------------------------------------------------------------
# workload plans: (prologue ops, generator of op cycles, known-defect probes)
# ---------------------------------------------------------------------------

def bundled_scenario(hf, name: str) -> dict:
    from importlib import resources

    return json.loads((resources.files(hf) / "scenarios" / name).read_text())


def market_plan(hf, np, seed: int, channel: str):
    name = "logistic-harvest-rate.json" if channel == "harvest_rate" else "logistic-expected-stock.json"
    tag = "rate" if channel == "harvest_rate" else "stock"
    bundled = bundled_scenario(hf, name)
    checks = BUNDLED_CHECKS[channel]
    prologue = [
        Op(f"{tag} {command}", bundled, checks[command], command=command)
        for command in BUNDLED_COMMANDS
    ]
    probes = []
    if channel == "expected_stock":
        # Both fail at the parent: verify exits 3 at the correct best response
        # 4.4354, and z=2.5 overflows into a raw traceback. They stay out of the
        # counted ops and are reported on their own, so a fix shows there.
        verify = prologue.pop()
        probes = [
            dataclasses.replace(verify, label="stock verify"),
            Op(
                "stock solve-single z=2.5",
                {**bundled, "single": {"z": 2.5}},
                check_documented_exit,
                command="solve-single",
                expect_codes=(0, 2, 3, 4),
            ),
        ]
    rng = np.random.default_rng([seed, 1 if channel == "harvest_rate" else 2])

    def cycles() -> Iterator[list[Op]]:
        while True:
            q, b, cost = rng.uniform(-2.0, -0.2), rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)
            scenario = {
                "model": {"kind": "logistic", "q": float(q), "b": float(b), "beta": 1.0, "y0": 1.0},
                "payoff": {"K": float(cost), "phi": "1/(1+z)", "interaction": channel},
            }
            yield [Op(f"{tag} compare draw", scenario, check_ordering, command="compare")]

    return prologue, cycles(), probes


# The threshold, and with it the cost of an op on the quadrature route, grows
# with the carrying capacity g/b and with K/phi(z); the ranges are narrow so
# that every op costs about the same and a run's op count is steady.
def generic_plan(hf, np, seed: int):
    rng = np.random.default_rng([seed, 3])

    def op() -> Op:
        capacity = float(rng.uniform(2.5, 3.5))
        b = float(rng.uniform(0.5, 0.8))
        beta = float(rng.uniform(0.95, 1.05))
        cost = float(rng.uniform(0.8, 1.2))
        fraction = float(rng.uniform(0.3, 0.6))
        growth = capacity * b
        q = 0.5 - growth / beta**2
        # inputs and the closed-form oracle come from the logistic route
        logistic = hf.logistic_model(q=q, b=b, beta=beta, y0=1.0)
        z = fraction * hf.max_harvest_rate(logistic)
        payoff = hf.PayoffSpec(
            cost=cost, phi=lambda v: 1.0 / (1.0 + v),
            interaction=hf.Interaction.HARVEST_RATE, phi_source="1/(1+z)",
        )
        expected = hf.best_response(logistic, payoff, z).threshold
        scenario = {
            "model": {"kind": "custom", "drift": f"x*({growth!r} - {b!r}*x)", "vol": f"{beta!r}*x", "y0": 1.0},
            "payoff": {"K": cost, "phi": "1/(1+z)", "interaction": "harvest_rate"},
            "single": {"z": z},
        }
        return Op(
            "custom solve-single", scenario, check_closed_form,
            command="solve-single", reference=lambda: expected,
        )

    def cycles() -> Iterator[list[Op]]:
        while True:
            yield [op()]

    return [], cycles(), []


def monte_carlo_plan(hf, np, seed: int):
    bundled = bundled_scenario(hf, "logistic-harvest-rate.json")
    rng = np.random.default_rng([seed, 4])

    @functools.cache
    def analytic():
        sc = hf.scenario_from_dict(copy.deepcopy(bundled))
        ev = hf.get_evaluator(sc.model)
        y, y0 = sc.simulate_threshold, sc.model.restart_level
        xi_y = ev.xi(y)
        z = (y - y0) / xi_y
        return {
            "xi": ev.xi(2.0),
            "stock": hf.expected_stock(sc.model, 4.0),
            "value": (sc.payoff.phi(z) * (y - y0) - sc.payoff.cost) / xi_y,
        }

    def hitting(stream: int):
        def call(sc):
            config = dataclasses.replace(sc.sim, seed=stream)
            est = hf.estimate_hitting_time(sc.model, 2.0, config, n_paths=3 * config.chunk_size)
            return {"value": est.value, "std_error": est.std_error}
        return call

    def stationary(stream: int):
        def call(sc):
            est = hf.estimate_stationary_mean(sc.model, 4.0, dataclasses.replace(sc.sim, seed=stream))
            return {"value": est.value, "std_error": est.std_error}
        return call

    def cycles() -> Iterator[list[Op]]:
        while True:
            streams = [int(s) for s in rng.integers(0, 2**31 - 1, size=3)]
            yield [
                Op(
                    "simulate", bundled, check_mc("value_estimate", "value_std_error"),
                    command="simulate", argv=("--seed", str(streams[0])),
                    reference=lambda: analytic()["value"],
                ),
                Op(
                    "estimate_hitting_time y=2", bundled, check_mc("value", "std_error"),
                    api=hitting(streams[1]), reference=lambda: analytic()["xi"],
                ),
                Op(
                    "estimate_stationary_mean y=4", bundled, check_mc("value", "std_error"),
                    api=stationary(streams[2]), reference=lambda: analytic()["stock"],
                ),
            ]

    return [], cycles(), []


def build_plan(workload: str, hf, np, seed: int):
    if workload == "market-rate":
        return market_plan(hf, np, seed, "harvest_rate")
    if workload == "market-stock":
        return market_plan(hf, np, seed, "expected_stock")
    if workload == "generic-coeffs":
        return generic_plan(hf, np, seed)
    return monte_carlo_plan(hf, np, seed)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def import_package():
    """Import harvestfield from this checkout's sources, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy as np

    import harvestfield as hf
    import harvestfield.cli  # noqa: F401  (ops call hf.cli.main)

    if not Path(hf.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"harvestfield imported from {hf.__file__}, not from {src}")
    return hf, np


def timed_run(ops_prologue, cycles, seconds: float, work: Path, hf) -> tuple[list[Outcome], float]:
    """Closed loop for ``seconds``; the cycle that crosses the limit is finished.

    Whole cycles keep each op kind's share of a run fixed, whatever the host's speed.
    """
    start = clock()

    def ops() -> Iterator[Op]:
        yield from ops_prologue
        while clock() - start < seconds:
            yield from next(cycles)

    outcomes = measure(ops(), work, hf)
    return outcomes, clock() - start


def traced_run(workload, ops_prologue, cycles, seconds, work, hf, spans_path):
    """The same fixed op list twice: first without tracing, then with the tracer installed."""
    from tracer import Tracer

    n_cycles = max(1, int(seconds / 4 / NOMINAL_CYCLE_S[workload]))
    ops = list(ops_prologue) + [op for _ in range(n_cycles) for op in next(cycles)]
    for op in ops:
        op.reference()
    plain = measure(ops, work, hf)
    tracer = Tracer()
    tracer.install()

    def numbered() -> Iterator[Op]:
        for index, op in enumerate(ops):
            tracer.op = index
            yield op

    # the probe's samples land inside whichever span is open, adding about 3% to its time
    traced = measure(numbered(), work, hf)
    tracer.active = False
    plain_ref_s = sum(o.cost for o in plain)
    traced_ref_s = sum(o.cost for o in traced)
    tracer.write(spans_path)
    trace = {
        "metrics": tracer.metrics((traced_ref_s - plain_ref_s) / plain_ref_s),
        "absent": tracer.absent_metrics(),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "plain_ref_s": plain_ref_s,
        "traced_ref_s": traced_ref_s,
    }
    return plain + traced, trace


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true", help="stop before the first op")
    args = parser.parse_args()

    hf, np = import_package()
    work = WORK / f"work-{args.workload}-{args.seed}-{time.monotonic_ns()}"
    (work / "out").mkdir(parents=True)
    try:
        prologue, cycles, probes = build_plan(args.workload, hf, np, args.seed)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s}
        if not args.setup_only:
            if args.trace:
                spans = WORK / f"spans-{args.workload}.tsv"  # the latest traced run of each workload
                outcomes, result["trace"] = traced_run(
                    args.workload, prologue, cycles, args.seconds, work, hf, spans
                )
                probes = []
            else:
                outcomes, result["wall_s"] = timed_run(prologue, cycles, args.seconds, work, hf)
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result.update(
                ops=[dataclasses.astuple(o) for o in outcomes],
                probes=[dataclasses.astuple(execute(op, work, hf)) for op in probes],
                versions={
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "scipy": sys.modules["scipy"].__version__,
                },
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
