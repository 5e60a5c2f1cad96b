"""Batch command-line front end.

Every subcommand reads one scenario file, runs its task and writes
``report.json`` plus ``table.txt`` (and task-specific CSVs) into the output
directory. Exit codes: 0 success, 2 scenario/parse error (nothing written),
3 solver failure (a floating-point fault included), 4 threshold-ordering
violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .diffusion import validate_assumptions
from .errors import (
    ComparisonError,
    DomainError,
    HarvestFieldError,
    ScenarioError,
    SolverError,
)
from .hitting import get_evaluator
from .impulse import best_response, verify_solution
from .meanfield import (
    compare,
    interaction_level,
    mfc_optimum,
    mfg_equilibrium,
    ordering_sweep,
    resolve_payoff,
)
from .payoff import PayoffSpec
from .reports import build_report, dump_json, render_table
from .scenario import Scenario, load_scenario
from .simulation import estimate_value, simulate_path
from .stationary import density_table

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="path to the scenario JSON file")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, default=None, help="override the simulation seed")
    parser.add_argument("--tol", type=float, default=1e-6, help="comparison/verification tolerance")
    parser.add_argument("--grid", type=int, default=None, help="override scan/stopping grid sizes")
    parser.add_argument("--dt", type=float, default=None, help="override the simulation time step")


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    sim = scenario.sim
    if args.seed is not None:
        sim = dataclasses.replace(sim, seed=args.seed)
    if args.dt is not None:
        sim = dataclasses.replace(sim, dt=args.dt)
    if args.grid is not None:
        scenario.numerics = dataclasses.replace(
            scenario.numerics, scan_points=args.grid, stopping_grid_points=args.grid
        )
    scenario.sim = sim
    return scenario


def _write(out: Path, command: str, scenario: Scenario, results: dict, diagnostics: dict) -> dict:
    report = build_report(command, scenario.raw, results, diagnostics)
    dump_json(report, out / "report.json")
    (out / "table.txt").write_text(render_table(report))
    return report


_CSV_ROWS = 4096  # rows converted to Python numbers at a time


def _write_columns_csv(path: Path, header: list[str], *columns: np.ndarray) -> None:
    """Write equal-length arrays as CSV columns of plain Python numbers."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, len(columns[0]), _CSV_ROWS):
            writer.writerows(zip(*(c[lo : lo + _CSV_ROWS].tolist() for c in columns)))


def _write_density_csv(out: Path, scenario: Scenario, threshold: float) -> None:
    xs, pdf, cdf = density_table(scenario.model, threshold)
    _write_columns_csv(out / "density.csv", ["x", "pdf", "cdf"], xs, pdf, cdf)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (results, diagnostics, exit_code)
# ---------------------------------------------------------------------------

def _cmd_validate(scenario: Scenario, out: Path, args) -> tuple[dict, dict, int]:
    report = validate_assumptions(scenario.model)
    return report.to_dict(), {}, 0


def _single_z(scenario: Scenario, payoff: PayoffSpec) -> Optional[float]:
    """The scenario's fixed interaction level, checked against the resolved payoff domain."""
    z = scenario.single_z
    lo, hi = payoff.domain
    if z is not None and not lo <= z <= hi:
        raise DomainError(f"single.z = {z} lies outside the attainable interaction range [{lo}, {hi}]")
    return z


def _cmd_solve_single(scenario: Scenario, out: Path, args) -> tuple[dict, dict, int]:
    payoff = resolve_payoff(scenario.model, scenario.require_payoff())
    z = _single_z(scenario, payoff)
    if z is None:
        z = payoff.domain[0]
    sol = best_response(scenario.model, payoff, z)
    results = {"interaction_level": z, **sol.to_dict()}
    return results, {"payoff": payoff.to_dict()}, 0


def _cmd_solve_mfg(scenario: Scenario, out: Path, args) -> tuple[dict, dict, int]:
    eq = mfg_equilibrium(scenario.model, scenario.require_payoff(), numerics=scenario.numerics)
    results = eq.to_dict()
    if len(eq) == 0:
        return results, {"error": "no equilibrium found"}, 3
    _write_density_csv(out, scenario, eq.points[-1].threshold)
    return results, {}, 0


def _cmd_solve_mfc(scenario: Scenario, out: Path, args) -> tuple[dict, dict, int]:
    sol = mfc_optimum(scenario.model, scenario.require_payoff(), numerics=scenario.numerics)
    _write_density_csv(out, scenario, sol.threshold)
    return sol.to_dict(), {}, 0


def _cmd_compare(scenario: Scenario, out: Path, args) -> tuple[dict, dict, int]:
    report = compare(
        scenario.model,
        scenario.require_payoff(),
        tolerance=args.tol,
        numerics=scenario.numerics,
    )
    return report.to_dict(), {}, 0


def _cmd_simulate(scenario: Scenario, out: Path, args) -> tuple[dict, dict, int]:
    model = scenario.model
    threshold = scenario.simulate_threshold
    payoff = scenario.payoff
    if threshold is None:
        if payoff is None:
            raise ScenarioError("simulate needs either simulate.threshold or a payoff to solve for one")
        eq = mfg_equilibrium(model, payoff, numerics=scenario.numerics)
        if len(eq) == 0:
            raise SolverError("no equilibrium to simulate")
        threshold = eq.points[0].threshold
    horizon = scenario.simulate_horizon or min(scenario.sim.horizon, 100.0)
    record = simulate_path(model, threshold, scenario.sim, horizon=horizon)
    flags = np.isin(np.round(record.times, 12), np.round(record.impulse_times, 12)).astype(int)
    _write_columns_csv(out / "path.csv", ["t", "x", "impulse_flag"], record.times, record.states, flags)
    ev = get_evaluator(model)
    xi = ev.xi(threshold)
    results = {
        "threshold": threshold,
        "horizon": horizon,
        "impulses": record.impulse_count,
        "expected_impulses": horizon / xi,
        "mean_cycle_length": xi,
        "floor_activations": record.floor_activations,
    }
    if payoff is not None:
        est = estimate_value(model, payoff, threshold, scenario.sim)
        results["value_estimate"] = est.value
        results["value_std_error"] = est.std_error
    return results, {"seed": scenario.sim.seed, "dt": scenario.sim.dt}, 0


def _cmd_verify(scenario: Scenario, out: Path, args) -> tuple[dict, dict, int]:
    model = scenario.model
    payoff = resolve_payoff(scenario.model, scenario.require_payoff())
    z = _single_z(scenario, payoff)
    if z is None:
        eq = mfg_equilibrium(model, payoff, numerics=scenario.numerics)
        if len(eq) == 0:
            raise SolverError("no equilibrium to verify")
        z = eq.points[0].interaction
    sol = best_response(model, payoff, z)
    price = float(payoff.phi(z))
    y0 = model.restart_level
    report = verify_solution(
        model,
        sol,
        lambda y: price * (y - y0),
        None,
        payoff.cost,
        tolerance=args.tol,
        numerics=scenario.numerics,
    )
    results = {"solution": sol.to_dict(), "verification": report.to_dict(), "interaction_level": z}
    return results, {}, 0 if report.passed else 3


def _cmd_sweep(scenario: Scenario, out: Path, args) -> tuple[dict, dict, int]:
    payoff = scenario.require_payoff()
    rows = ordering_sweep(
        payoff.interaction,
        scenario.sweep_draws,
        seed=scenario.sim.seed,
        tolerance=args.tol,
        numerics=scenario.numerics,
    )
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["q", "b", "K", "equilibrium_thresholds", "planner_threshold",
             "equilibrium_values", "planner_value", "margin", "ok"]
        )
        for row in rows:
            writer.writerow(
                [
                    repr(row.q),
                    repr(row.b),
                    repr(row.cost),
                    ";".join(repr(t) for t in row.equilibrium_thresholds),
                    repr(row.planner_threshold),
                    ";".join(repr(v) for v in row.equilibrium_values),
                    repr(row.planner_value),
                    repr(row.margin),
                    int(row.ok),
                ]
            )
    worst = min(row.margin for row in rows)
    results = {
        "draws": len(rows),
        "interaction": payoff.interaction.value,
        "all_ordered": all(row.ok for row in rows),
        "worst_margin": worst,
    }
    return results, {"seed": scenario.sim.seed}, 0


_HANDLERS = {
    "validate": _cmd_validate,
    "solve-single": _cmd_solve_single,
    "solve-mfg": _cmd_solve_mfg,
    "solve-mfc": _cmd_solve_mfc,
    "compare": _cmd_compare,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="harvestfield",
        description="Threshold-strategy solvers for mean-field harvesting of 1-d diffusions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        _add_common(sub.add_parser(name))
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        scenario = _apply_overrides(load_scenario(args.scenario), args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        results, diagnostics, code = _HANDLERS[args.command](scenario, out, args)
        report = _write(out, args.command, scenario, results, diagnostics)
        sys.stdout.write(render_table(report))
        return code
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComparisonError as exc:
        print(f"comparison violation: {exc}", file=sys.stderr)
        return 4
    except (HarvestFieldError, FloatingPointError, ZeroDivisionError) as exc:
        # a float division by zero, or numpy's FloatingPointError where its error state
        # raises, is a failure of the numerics, not a traceback
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
