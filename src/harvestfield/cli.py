"""Batch command-line front end.

Every subcommand reads one scenario file, runs its task and writes
``report.json`` plus ``table.txt`` (and task-specific CSVs) into the output
directory. Exit codes: 0 success, 2 scenario/parse error (nothing written)
or an output directory that cannot be created or written, 3 solver failure
(a floating-point fault included), 4 threshold-ordering violation.
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

from .diffusion import _calculus, validate_assumptions
from .errors import (
    ComparisonError,
    DomainError,
    HarvestFieldError,
    ScenarioError,
    SolverError,
)
from .impulse import best_response, verify_solution
from .meanfield import (
    compare,
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


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    if args.seed is not None:
        scenario.sim = dataclasses.replace(scenario.sim, seed=args.seed)
    return scenario


def _write(out: Path, command: str, scenario: Scenario, results, diagnostics: dict) -> str:
    """Write ``report.json`` and ``table.txt``; return the table."""
    report = build_report(command, scenario.raw, results, diagnostics)
    dump_json(report, out / "report.json")
    table = render_table(report)
    (out / "table.txt").write_text(table)
    return table


_CSV_ROWS = 4096  # rows converted to Python numbers at a time


def _write_columns_csv(path: Path, header: list[str], *columns: np.ndarray) -> None:
    """Write equal-length arrays as CSV columns of plain Python numbers.

    Each row is one ``str.format`` call, which writes the bytes of
    ``csv.writer`` (the ``repr`` of each number, ``\r\n`` line ends) in
    about three quarters of its time.
    """
    row = ",".join(["{!r}"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), _CSV_ROWS):
            fh.writelines(map(row.format, *(c[lo : lo + _CSV_ROWS].tolist() for c in columns)))


def _write_density_csv(out: Path, scenario: Scenario, threshold: float) -> None:
    xs, pdf, cdf = density_table(scenario.model, threshold)
    _write_columns_csv(out / "density.csv", ["x", "pdf", "cdf"], xs, pdf, cdf)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (results, diagnostics, exit_code), with results a
# result object or a dict of them that build_report converts
# ---------------------------------------------------------------------------

def _cmd_validate(scenario: Scenario, out: Path) -> tuple[object, dict, int]:
    return validate_assumptions(scenario.model), {}, 0


def _single_z(scenario: Scenario, payoff: PayoffSpec) -> Optional[float]:
    """The scenario's fixed interaction level, checked against the resolved payoff domain."""
    z = scenario.single_z
    lo, hi = payoff.domain
    if z is not None and not lo <= z <= hi:
        raise DomainError(f"single.z = {z} lies outside the attainable interaction range [{lo}, {hi}]")
    return z


def _cmd_solve_single(scenario: Scenario, out: Path) -> tuple[object, dict, int]:
    payoff = resolve_payoff(scenario.model, scenario.require_payoff())
    z = _single_z(scenario, payoff)
    if z is None:
        z = payoff.domain[0]
    sol = best_response(scenario.model, payoff, z)
    results = {"interaction_level": z, **vars(sol)}
    diagnostics = {
        "payoff": {
            "K": payoff.cost,
            "phi": payoff.phi_source,
            "interaction": payoff.interaction.value,
            "domain": payoff.domain,
        }
    }
    return results, diagnostics, 0


def _cmd_solve_mfg(scenario: Scenario, out: Path) -> tuple[object, dict, int]:
    eq = mfg_equilibrium(scenario.model, scenario.require_payoff())
    if len(eq) == 0:
        return eq, {"error": "no equilibrium found"}, 3
    _write_density_csv(out, scenario, eq.equilibria[-1].threshold)
    return eq, {}, 0


def _cmd_solve_mfc(scenario: Scenario, out: Path) -> tuple[object, dict, int]:
    sol = mfc_optimum(scenario.model, scenario.require_payoff())
    _write_density_csv(out, scenario, sol.threshold)
    return sol, {}, 0


def _cmd_compare(scenario: Scenario, out: Path) -> tuple[object, dict, int]:
    return compare(scenario.model, scenario.require_payoff()), {}, 0


def _cmd_simulate(scenario: Scenario, out: Path) -> tuple[object, dict, int]:
    model = scenario.model
    threshold = scenario.simulate_threshold
    payoff = scenario.payoff
    if threshold is None:
        if payoff is None:
            raise ScenarioError("simulate needs either simulate.threshold or a payoff to solve for one")
        eq = mfg_equilibrium(model, payoff)
        if len(eq) == 0:
            raise SolverError("no equilibrium to simulate")
        threshold = eq.equilibria[0].threshold
    horizon = scenario.simulate_horizon or min(scenario.sim.horizon, 100.0)
    record = simulate_path(model, threshold, scenario.sim, horizon=horizon)
    flags = np.isin(np.round(record.times, 12), np.round(record.impulse_times, 12)).astype(int)
    _write_columns_csv(out / "path.csv", ["t", "x", "impulse_flag"], record.times, record.states, flags)
    xi = _calculus(model).xi(threshold)
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


def _cmd_verify(scenario: Scenario, out: Path) -> tuple[object, dict, int]:
    model = scenario.model
    payoff = resolve_payoff(scenario.model, scenario.require_payoff())
    z = _single_z(scenario, payoff)
    if z is None:
        eq = mfg_equilibrium(model, payoff)
        if len(eq) == 0:
            raise SolverError("no equilibrium to verify")
        z = eq.equilibria[0].interaction_level
    sol = best_response(model, payoff, z)
    report = verify_solution(model, sol, float(payoff.phi(z)), 0.0, payoff.cost)
    results = {
        "solution": sol,
        "verification": report,
        "interaction_level": z,
    }
    return results, {}, 0 if report.passed else 3


def _cmd_sweep(scenario: Scenario, out: Path) -> tuple[object, dict, int]:
    payoff = scenario.require_payoff()
    rows = ordering_sweep(payoff.interaction, scenario.sweep_draws, seed=scenario.sim.seed)
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
    except (ScenarioError, DomainError) as exc:   # a DomainError here is a refused --seed
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        results, diagnostics, code = _HANDLERS[args.command](scenario, out)
        sys.stdout.write(_write(out, args.command, scenario, results, diagnostics))
        return code
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComparisonError as exc:
        print(f"comparison violation: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:   # --out names a file, lies below one, or is not writable
        print(f"error: cannot write output to {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except (HarvestFieldError, ArithmeticError) as exc:
        # a float division by zero or overflow, or numpy's FloatingPointError where its
        # error state raises, is a failure of the numerics, not a traceback
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
