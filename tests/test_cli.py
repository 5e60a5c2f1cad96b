import csv
import json
import math
from importlib import resources
from pathlib import Path

import pytest

from harvestfield.cli import main
from harvestfield.reports import render_table

SCENARIOS = resources.files("harvestfield") / "scenarios"
RATE_SCENARIO = str(SCENARIOS / "logistic-harvest-rate.json")
STOCK_SCENARIO = str(SCENARIOS / "logistic-expected-stock.json")
CUSTOM_SCENARIO = str(SCENARIOS / "custom-logistic-harvest-rate.json")


def run(tmp_path, command, scenario, *extra):
    out = tmp_path / "out"
    code = main([command, "--scenario", str(scenario), "--out", str(out), *extra])
    return code, out


def read_report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def test_solve_mfg_bundled_scenario(tmp_path):
    code, out = run(tmp_path, "solve-mfg", RATE_SCENARIO)
    assert code == 0
    report = read_report(out)
    points = report["results"]["equilibria"]
    assert len(points) == 1
    assert points[0]["threshold"] == pytest.approx(5.13, abs=0.05)
    assert points[0]["value"] == pytest.approx(0.243, abs=0.003)
    assert points[0]["stability"] in ("stable", "unstable", "marginal")
    assert (out / "table.txt").exists()
    assert (out / "density.csv").exists()


def test_solve_mfc_bundled_scenario(tmp_path):
    code, out = run(tmp_path, "solve-mfc", RATE_SCENARIO)
    assert code == 0
    report = read_report(out)
    assert report["results"]["threshold"] == pytest.approx(5.9, abs=0.1)
    assert report["results"]["value"] == pytest.approx(0.254, abs=0.003)


def test_solve_mfg_stock_scenario_reports_stability(tmp_path):
    code, out = run(tmp_path, "solve-mfg", STOCK_SCENARIO)
    assert code == 0
    report = read_report(out)
    points = report["results"]["equilibria"]
    assert len(points) >= 1
    for point in points:
        assert point["stability"] in ("stable", "unstable", "marginal")
        assert point["residual"] < 1e-6


def test_compare_exit_zero(tmp_path):
    code, out = run(tmp_path, "compare", RATE_SCENARIO)
    assert code == 0
    report = read_report(out)
    assert report["results"]["ok"] is True
    assert all(m >= -1e-6 for m in report["results"]["margins"])


def test_validate_reports_probes(tmp_path):
    code, out = run(tmp_path, "validate", RATE_SCENARIO)
    assert code == 0
    results = read_report(out)["results"]
    assert results["speed_mass_finite"] is True
    assert results["turning_point_ok"] is True
    assert results["scale_diverges"] is True


def test_solve_single_uses_fixed_interaction(tmp_path):
    code, out = run(tmp_path, "solve-single", RATE_SCENARIO)
    assert code == 0
    results = read_report(out)["results"]
    assert results["interaction_level"] == 0.0
    assert results["threshold"] > 1.0


def with_section(tmp_path, scenario, **sections):
    data = json.loads(Path(scenario).read_text())
    data.update(sections)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


def test_solve_single_rejects_stock_level_above_domain(tmp_path):
    # z = 2.5 lies above the largest expected stock z2 = 2 of the bundled model
    scenario = with_section(tmp_path, STOCK_SCENARIO, single={"z": 2.5})
    code, _ = run(tmp_path, "solve-single", scenario)
    assert code == 3


def test_solve_single_rejects_rate_above_max_harvest_rate(tmp_path):
    from harvestfield.diffusion import logistic_model
    from harvestfield.impulse import max_harvest_rate

    top = max_harvest_rate(logistic_model(q=-1.0, b=0.5, beta=1.0, y0=1.0))
    scenario = with_section(tmp_path, RATE_SCENARIO, single={"z": 1.01 * top})
    code, _ = run(tmp_path, "solve-single", scenario)
    assert code == 3


def test_verify_rejects_stock_level_above_domain(tmp_path):
    scenario = with_section(tmp_path, STOCK_SCENARIO, single={"z": 2.5})
    code, _ = run(tmp_path, "verify", scenario)
    assert code == 3


@pytest.mark.parametrize("interaction", ["harvest_rate", "expected_stock"])
def test_logistic_scale_overflow_exits_3(tmp_path, interaction, capsys):
    # s(x) = x^-3 exp(100 (x - 1)) leaves double range near x = 12, inside the threshold search
    scenario = tmp_path / "steep.json"
    scenario.write_text(
        json.dumps(
            {
                "model": {"kind": "logistic", "q": -1, "b": 50, "beta": 1.0, "y0": 1.0},
                "payoff": {"K": 5.0, "phi": "1/(1+z)", "interaction": interaction},
            }
        )
    )
    code, _ = run(tmp_path, "solve-mfg", scenario)
    assert code == 3
    assert "scale density overflows" in capsys.readouterr().err


def test_module_entry_point_runs(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "harvestfield", "validate", "--scenario", RATE_SCENARIO, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert read_report(out)["results"]["speed_mass_finite"] is True


_SCIPY_PROBE = """
import contextlib, io, json, sys
import harvestfield.cli
seen = {"import": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}
for command, scenario, out in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = harvestfield.cli.main([command, "--scenario", scenario, "--out", out])
    assert code == 0, (command, scenario, code)
    seen[command + " " + scenario] = sorted(
        m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules
    )
print(json.dumps(seen))
"""


def test_logistic_runs_leave_scipy_solvers_unloaded(tmp_path):
    # importing the CLI loads no scipy at all; a logistic compare, verify, solve-single or
    # simulate loads neither scipy.optimize nor scipy.integrate (one process, in turn)
    import os
    import subprocess
    import sys

    import harvestfield

    runs = [
        [command, scenario, str(tmp_path / f"{command}-{i}")]
        for command in ("compare", "verify", "solve-single")
        for i, scenario in enumerate((RATE_SCENARIO, STOCK_SCENARIO))
    ] + [["simulate", RATE_SCENARIO, str(tmp_path / "simulate")]]
    # the child imports the same copy of the package as this test
    src = str(Path(harvestfield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen.pop("import") == []
    assert len(seen) == len(runs)
    assert all(loaded == [] for loaded in seen.values()), seen


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from harvestfield.cli import _parser

    assert _parser() is _parser()
    first = _parser().parse_args(["compare", "--scenario", "a.json", "--seed", "5"])
    second = _parser().parse_args(["verify", "--scenario", "b.json"])
    assert (first.command, first.seed) == ("compare", 5)
    assert (second.command, second.seed, second.out) == ("verify", None, "out")
    for argv, code in ((["--help"], 0), (["compare"], 2), (["no-such-command"], 2)):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == code
    assert "solve-single" in capsys.readouterr().out


def test_grid_option_sets_scan_points(tmp_path):
    code, out = run(tmp_path, "solve-mfg", STOCK_SCENARIO)
    assert code == 0
    default = read_report(out)["results"]
    code, out = run(tmp_path, "solve-mfg", STOCK_SCENARIO, "--grid", "200")
    assert code == 0
    coarse = read_report(out)["results"]
    assert default["diagnostics"]["scan"]["points"] == 500
    assert coarse["diagnostics"]["scan"]["points"] == 200
    assert len(coarse["equilibria"]) == len(default["equilibria"]) == 1
    assert coarse["equilibria"][0]["threshold"] == pytest.approx(
        default["equilibria"][0]["threshold"], rel=1e-6
    )


@pytest.mark.parametrize("numerics", [{"scan_points": 1}])
def test_unusable_equilibrium_numerics_exit_3(tmp_path, numerics):
    scenario = with_section(tmp_path, STOCK_SCENARIO, numerics=numerics)
    code, _ = run(tmp_path, "solve-mfg", scenario)
    assert code == 3


def test_verify_passes_on_benchmark(tmp_path):
    code, out = run(tmp_path, "verify", RATE_SCENARIO)
    assert code == 0
    results = read_report(out)["results"]
    assert results["verification"]["passed"] is True


def test_grid_option_sets_stopping_grid_points(tmp_path):
    code, out = run(tmp_path / "default", "verify", RATE_SCENARIO)
    assert code == 0
    assert read_report(out)["results"]["verification"]["grid_points"] == 402
    code, out = run(tmp_path / "coarse", "verify", RATE_SCENARIO, "--grid", "200")
    assert code == 0
    verification = read_report(out)["results"]["verification"]
    # the grid plus y0 and the claimed threshold
    assert verification["grid_points"] == 202
    assert verification["passed"] is True


@pytest.mark.parametrize("points", [-5, 0, 1])
def test_verify_rejects_stopping_grid_below_two_points(tmp_path, points):
    scenario = with_section(tmp_path, RATE_SCENARIO, numerics={"stopping_grid_points": points})
    code, out = run(tmp_path, "verify", scenario)
    assert code == 3
    assert not (out / "report.json").exists()


def test_oversized_grids_exit_3_before_allocating(tmp_path):
    # 1e12 points would need terabytes; the size check runs before any grid is built
    for numerics in ({"scan_points": 1e12}, {"stopping_grid_points": 1e12}):
        scenario = with_section(tmp_path, RATE_SCENARIO, numerics=numerics)
        code, out = run(tmp_path, "verify", scenario)
        assert code == 3
        assert not (out / "report.json").exists()


def test_verify_passes_on_stock_scenario(tmp_path):
    # the dominance check covers x >= y0 only, where the stopping problem offers stopping
    code, out = run(tmp_path, "verify", STOCK_SCENARIO)
    assert code == 0
    verification = read_report(out)["results"]["verification"]
    assert verification["passed"] is True
    assert verification["u_max_on_grid"] <= 1e-6


def test_simulate_writes_path_csv(tmp_path):
    code, out = run(tmp_path, "simulate", RATE_SCENARIO, "--seed", "9")
    assert code == 0
    with open(out / "path.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "impulse_flag"]
    assert len(rows) > 1000
    flags = {row[2] for row in rows[1:]}
    assert flags <= {"0", "1"}
    cells = [[float(cell) for cell in row] for row in rows[1:]]
    results = read_report(out)["results"]
    assert results["impulses"] >= 0
    assert sum(flag for _, _, flag in cells) == results["impulses"]
    assert "value_estimate" in results


def test_density_csv_cells_are_numbers(tmp_path):
    code, out = run(tmp_path, "solve-mfc", RATE_SCENARIO)
    assert code == 0
    with open(out / "density.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "pdf", "cdf"]
    assert len(rows) > 10
    for x, pdf, cdf in ([float(cell) for cell in row] for row in rows[1:]):
        assert x > 0.0 and pdf >= 0.0 and 0.0 <= cdf <= 1.0 + 1e-9


def test_simulate_seed_determinism(tmp_path):
    _, out_a = run(tmp_path / "a", "simulate", RATE_SCENARIO, "--seed", "3")
    _, out_b = run(tmp_path / "b", "simulate", RATE_SCENARIO, "--seed", "3")
    _, out_c = run(tmp_path / "c", "simulate", RATE_SCENARIO, "--seed", "4")
    assert (out_a / "path.csv").read_text() == (out_b / "path.csv").read_text()
    assert (out_a / "path.csv").read_text() != (out_c / "path.csv").read_text()
    assert read_report(out_a)["results"] == read_report(out_b)["results"]


def test_sweep_writes_csv(tmp_path):
    scenario = tmp_path / "sweep.json"
    scenario.write_text(
        json.dumps(
            {
                "model": {"kind": "logistic", "q": -1, "b": 0.5, "beta": 1.0, "y0": 1.0},
                "payoff": {"K": 1.0, "phi": "1/(z+1)", "interaction": "harvest_rate"},
                "sweep": {"draws": 4},
            }
        )
    )
    code, out = run(tmp_path, "sweep", scenario)
    assert code == 0
    results = read_report(out)["results"]
    assert results["draws"] == 4
    assert results["all_ordered"] is True
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5


def test_malformed_phi_exits_2_without_output(tmp_path):
    scenario = tmp_path / "bad.json"
    scenario.write_text(
        json.dumps(
            {
                "model": {"kind": "logistic", "q": -1, "b": 0.5, "beta": 1.0, "y0": 1.0},
                "payoff": {"K": 1.0, "phi": "1/(z+", "interaction": "harvest_rate"},
            }
        )
    )
    out = tmp_path / "never"
    code = main(["solve-mfg", "--scenario", str(scenario), "--out", str(out)])
    assert code == 2
    assert not out.exists()


# a misspelling, and three tolerances that are constants of the solvers, not scenario options
@pytest.mark.parametrize("key", ["scan_pts", "series_arg_cap", "quad_rel_tol", "golden_rel_tol"])
def test_unknown_numerics_key_exits_2(tmp_path, capsys, key):
    scenario = tmp_path / "bad.json"
    scenario.write_text(
        json.dumps(
            {
                "model": {"kind": "logistic", "q": -1, "b": 0.5, "beta": 1.0, "y0": 1.0},
                "payoff": {"K": 1.0, "phi": "1/(z+1)", "interaction": "harvest_rate"},
                "numerics": {key: 100},
            }
        )
    )
    assert main(["solve-mfg", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


# a key the model does not read (the anchor of the scale function is y0) and a misspelling
@pytest.mark.parametrize(
    "scenario_file, key",
    [(RATE_SCENARIO, "reference_point"), (CUSTOM_SCENARIO, "y_0")],
    ids=["logistic-reference_point", "custom-y_0"],
)
def test_unknown_model_key_exits_2(tmp_path, capsys, scenario_file, key):
    model = {**json.loads(Path(scenario_file).read_text())["model"], key: 2.5}
    code, out = run(tmp_path, "solve-mfg", with_section(tmp_path, scenario_file, model=model))
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


# (model fields, exit code, exit code of validate), which reports a speed mass
# past double range instead of failing
_MODEL_INPUTS = [
    ({"y0": "a"}, 2, 2),        # not a number
    ({"beta": 1e200}, 2, 2),    # beta^2 overflows while the model is built
    ({"y0": 1e-300}, 3, 3),     # the speed moments overflow
    ({"q": -1e6}, 3, 0),
    ({"b": 1e-300}, 3, 0),
]


@pytest.mark.parametrize("command", ["validate", "solve-single", "compare", "verify"])
@pytest.mark.parametrize("fields, code, validate_code", _MODEL_INPUTS)
def test_malformed_or_extreme_model_fields_exit_cleanly(
    tmp_path, command, fields, code, validate_code
):
    model = {**json.loads(Path(RATE_SCENARIO).read_text())["model"], **fields}
    scenario = with_section(tmp_path, RATE_SCENARIO, model=model)
    expected = validate_code if command == "validate" else code
    assert run(tmp_path, command, scenario)[0] == expected


_PAYOFF = {"K": 1.0, "phi": "1/(z+1)", "interaction": "harvest_rate"}


@pytest.mark.parametrize("command", ["solve-single", "verify", "simulate", "sweep"])
@pytest.mark.parametrize(
    "sections",
    [
        {"payoff": {**_PAYOFF, "K": "a"}},
        {"single": {"z": "a"}},
        {"simulate": {"threshold": "a"}},
        {"simulate": {"horizon": [1]}},
        {"sweep": {"draws": "x"}},
        {"sweep": {"draws": 0}},
        {"sweep": {"draws": 1e400}},
        {"sweep": 5},
        {"numerics": {"scan_points": 1e400}},
    ],
)
def test_malformed_scenario_fields_exit_2(tmp_path, capsys, command, sections):
    scenario = with_section(tmp_path, RATE_SCENARIO, **sections)
    code, out = run(tmp_path, command, scenario)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("cost", [math.nan, math.inf, -1.0])
def test_nonpositive_or_nonfinite_cost_exits_3(tmp_path, capsys, cost):
    # json writes NaN and Infinity, which the scenario loader reads back as floats
    scenario = with_section(tmp_path, RATE_SCENARIO, payoff={**_PAYOFF, "K": cost})
    for command in ("solve-single", "solve-mfg"):
        assert run(tmp_path, command, scenario)[0] == 3
        assert "K must be positive" in capsys.readouterr().err


def test_missing_payoff_exits_2(tmp_path):
    scenario = tmp_path / "nopay.json"
    scenario.write_text(
        json.dumps({"model": {"kind": "logistic", "q": -1, "b": 0.5, "beta": 1.0, "y0": 1.0}})
    )
    assert main(["solve-mfg", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2


def test_missing_scenario_file_exits_2(tmp_path):
    assert main(["solve-mfg", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_custom_model_scenario_runs(tmp_path):
    scenario = tmp_path / "custom.json"
    scenario.write_text(
        json.dumps(
            {
                "model": {"kind": "custom", "drift": "x*(1.5 - 0.5*x)", "vol": "x", "y0": 1.0},
                "payoff": {"K": 1.0, "phi": "0.7", "interaction": "harvest_rate"},
            }
        )
    )
    code, out = run(tmp_path, "solve-single", scenario)
    assert code == 0
    assert read_report(out)["results"]["threshold"] > 1.0


def test_custom_solve_single_matches_the_logistic_oracle(tmp_path):
    # custom-coefficient logistic scenarios on the generic-coeffs benchmark ranges; the
    # reference threshold comes from the oracle's series xi and closed-form xi', not the table
    import numpy as np
    from helpers import first_order_root
    from oracle import LogisticOracle

    from harvestfield.diffusion import logistic_model
    from harvestfield.impulse import max_harvest_rate

    rng = np.random.default_rng(2024)
    for draw in range(10):
        capacity, b, beta = rng.uniform(2.5, 3.5), rng.uniform(0.5, 0.8), rng.uniform(0.95, 1.05)
        cost, fraction = rng.uniform(0.8, 1.2), rng.uniform(0.3, 0.6)
        growth = capacity * b
        logistic = logistic_model(growth=growth, b=b, beta=beta, y0=1.0)
        z = fraction * max_harvest_rate(logistic)
        scenario = tmp_path / f"custom-{draw}.json"
        scenario.write_text(
            json.dumps(
                {
                    "model": {"kind": "custom", "drift": f"x*({growth!r} - {b!r}*x)",
                              "vol": f"{beta!r}*x", "y0": 1.0},
                    "payoff": {"K": cost, "phi": "1/(1+z)", "interaction": "harvest_rate"},
                    "single": {"z": z},
                }
            )
        )
        code, out = run(tmp_path / str(draw), "solve-single", scenario)
        assert code == 0

        # the best response maximizes (y - y0 - K/phi(z))/xi(y): F = xi - (y - y0 - k) xi'
        # is positive at y0 + k and has one root above it
        oracle, k = LogisticOracle(logistic), cost * (1.0 + z)
        hi = 2.0 * (1.0 + k)
        while oracle.xi(hi) - (hi - 1.0 - k) * oracle.xi_prime(hi) > 0.0:
            hi *= 2.0
        expected = first_order_root(oracle, k, (1.0 + k, hi))
        assert read_report(out)["results"]["threshold"] == pytest.approx(expected, rel=1e-6)


def test_comparison_violation_maps_to_exit_4(tmp_path, monkeypatch):
    import harvestfield.cli as cli
    from harvestfield.errors import ComparisonError

    def boom(*args, **kwargs):
        raise ComparisonError("ordering violated")

    monkeypatch.setattr(cli, "compare", boom)
    assert main(["compare", "--scenario", RATE_SCENARIO, "--out", str(tmp_path / "o")]) == 4


def test_solver_failure_maps_to_exit_3(tmp_path, monkeypatch):
    import harvestfield.cli as cli
    from harvestfield.errors import SolverError

    def boom(*args, **kwargs):
        raise SolverError("no equilibrium")

    monkeypatch.setattr(cli, "mfg_equilibrium", boom)
    assert main(["solve-mfg", "--scenario", RATE_SCENARIO, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("error", [FloatingPointError, ZeroDivisionError])
def test_floating_point_fault_maps_to_exit_3(tmp_path, monkeypatch, capsys, error):
    import harvestfield.cli as cli

    def boom(*args, **kwargs):
        raise error("float fault")

    monkeypatch.setitem(cli._HANDLERS, "compare", boom)
    assert main(["compare", "--scenario", RATE_SCENARIO, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "solver error: float fault\n"


def test_report_round_trip_renders_identically(tmp_path):
    code, out = run(tmp_path, "solve-mfg", RATE_SCENARIO)
    assert code == 0
    report = read_report(out)
    assert render_table(report) == (out / "table.txt").read_text()
    rewritten = json.loads(json.dumps(report))
    assert render_table(rewritten) == (out / "table.txt").read_text()


def test_custom_model_compare_runs(tmp_path):
    scenario = tmp_path / "custom.json"
    scenario.write_text(
        json.dumps(
            {
                "model": {"kind": "custom", "drift": "x*(1.5 - 0.5*x)", "vol": "x", "y0": 1.0},
                "payoff": {"K": 1.0, "phi": "0.7", "interaction": "harvest_rate"},
            }
        )
    )
    code, out = run(tmp_path, "compare", scenario)
    assert code == 0
    assert read_report(out)["results"]["ok"] is True


def test_bundled_custom_scenario_matches_its_logistic_twin(tmp_path):
    # the same diffusion given as expressions takes the tabulated route
    code, out = run(tmp_path / "custom", "solve-mfg", CUSTOM_SCENARIO)
    assert code == 0
    code, twin = run(tmp_path / "logistic", "solve-mfg", RATE_SCENARIO)
    assert code == 0
    custom = [p["threshold"] for p in read_report(out)["results"]["equilibria"]]
    logistic = [p["threshold"] for p in read_report(twin)["results"]["equilibria"]]
    assert len(custom) == len(logistic) == 1
    assert custom[0] == pytest.approx(logistic[0], rel=1e-6)


def test_validate_reports_speed_density_overflow(tmp_path):
    # drift (1.5 - 0.5 x)/(x - 2): m grows like exp(1.5/x) toward 0 and leaves double range
    import numpy as np

    scenario = tmp_path / "singular.json"
    scenario.write_text(
        json.dumps(
            {
                "model": {"kind": "custom", "drift": "(1.5-0.5*x)/(x-2)", "vol": "x", "y0": 1.0},
                "payoff": {"K": 1.0, "phi": "1/(z+1)", "interaction": "harvest_rate"},
            }
        )
    )
    with np.errstate(divide="ignore"):
        code, out = run(tmp_path, "validate", scenario)
    assert code == 0
    results = read_report(out)["results"]
    assert results["entrance_finite"] is False
    assert results["all_passed"] is False
    assert any(note.startswith("entrance boundary") for note in results["notes"])
