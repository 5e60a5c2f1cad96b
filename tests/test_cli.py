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
    # importing the CLI loads no scipy at all; no run loads scipy.optimize or scipy.integrate
    # (one process, in turn): a logistic compare, verify, solve-single, validate or simulate,
    # and every analytic command on the custom scenario, whose improper integrals come
    # from the table's limits
    import os
    import subprocess
    import sys

    import harvestfield

    runs = [
        [command, scenario, str(tmp_path / f"{command}-{i}")]
        for command in ("compare", "verify", "solve-single", "validate")
        for i, scenario in enumerate((RATE_SCENARIO, STOCK_SCENARIO))
    ] + [["simulate", RATE_SCENARIO, str(tmp_path / "simulate")]] + [
        [command, CUSTOM_SCENARIO, str(tmp_path / f"custom-{command}")]
        for command in ("validate", "solve-single", "solve-mfg", "solve-mfc", "compare", "verify")
    ]
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


def test_scan_grid_size_leaves_the_equilibrium(tmp_path, monkeypatch):
    import harvestfield.meanfield as meanfield

    code, out = run(tmp_path, "solve-mfg", STOCK_SCENARIO)
    assert code == 0
    default = read_report(out)["results"]
    monkeypatch.setattr(meanfield, "_SCAN_POINTS", 200)
    code, out = run(tmp_path, "solve-mfg", STOCK_SCENARIO)
    assert code == 0
    coarse = read_report(out)["results"]
    assert default["diagnostics"]["scan"]["points"] == 500
    assert coarse["diagnostics"]["scan"]["points"] == 200
    assert len(coarse["equilibria"]) == len(default["equilibria"]) == 1
    assert coarse["equilibria"][0]["threshold"] == pytest.approx(
        default["equilibria"][0]["threshold"], rel=1e-6
    )


def test_verify_passes_on_benchmark(tmp_path):
    code, out = run(tmp_path, "verify", RATE_SCENARIO)
    assert code == 0
    results = read_report(out)["results"]
    assert results["verification"]["passed"] is True


def test_stopping_grid_size_leaves_verify_passing(tmp_path, monkeypatch):
    import harvestfield.impulse as impulse

    code, out = run(tmp_path / "default", "verify", RATE_SCENARIO)
    assert code == 0
    # the grid plus y0 and the claimed threshold
    assert read_report(out)["results"]["verification"]["grid_points"] == 402
    monkeypatch.setattr(impulse, "_STOPPING_GRID_POINTS", 200)
    code, out = run(tmp_path / "coarse", "verify", RATE_SCENARIO)
    assert code == 0
    verification = read_report(out)["results"]["verification"]
    assert verification["grid_points"] == 202
    assert verification["passed"] is True


# grid sizes, tolerances and the time step are fixed in the code or the scenario
@pytest.mark.parametrize("flag", [["--grid", "200"], ["--tol", "1e-3"], ["--dt", "0.01"]])
def test_removed_flags_exit_2(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as caught:
        run(tmp_path, "solve-mfg", RATE_SCENARIO, *flag)
    assert caught.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


# grid sizes and tolerances are constants of the solvers: a numerics section is
# rejected by name, whatever key it holds
@pytest.mark.parametrize("key", ["scan_pts", "series_arg_cap", "quad_rel_tol", "golden_rel_tol"])
def test_unknown_numerics_key_exits_2(tmp_path, capsys, key):
    scenario = with_section(tmp_path, RATE_SCENARIO, numerics={key: 100})
    code, out = run(tmp_path, "solve-mfg", scenario)
    assert code == 2
    assert "'numerics'" in capsys.readouterr().err
    assert not out.exists()


def test_misspelled_section_exits_2(tmp_path, capsys):
    scenario = with_section(tmp_path, RATE_SCENARIO, simulaton={"seed": 99})
    code, out = run(tmp_path, "solve-single", scenario)
    assert code == 2
    assert "'simulaton'" in capsys.readouterr().err
    assert not out.exists()


# a number takes no true/false and an integer no fraction
@pytest.mark.parametrize("field, value", [("seed", 7.9), ("seed", True), ("dt", True)])
def test_simulation_field_of_wrong_kind_exits_2(tmp_path, capsys, field, value):
    scenario = with_section(tmp_path, RATE_SCENARIO, simulation={field: value})
    code, out = run(tmp_path, "solve-single", scenario)
    assert code == 2
    assert f"simulation.{field}" in capsys.readouterr().err
    assert not out.exists()


def test_simulation_fields_keep_their_values():
    from harvestfield.scenario import scenario_from_dict

    data = json.loads(Path(RATE_SCENARIO).read_text())
    data["simulation"] = {"seed": 7.0, "dt": 1}
    sim = scenario_from_dict(data).sim
    assert (sim.seed, sim.dt) == (7, 1.0)
    assert type(sim.seed) is int and type(sim.dt) is float


# the path count, positivity floor, cycle cap and barrier shift are constants of the engine
@pytest.mark.parametrize(
    "key, value",
    [("n_paths", 1000), ("eps_floor", 1e-8), ("time_cap", 10.0), ("barrier_correction", False)],
)
def test_deleted_simulation_key_exits_2(tmp_path, capsys, key, value):
    scenario = with_section(tmp_path, RATE_SCENARIO, simulation={"seed": 7, key: value})
    code, out = run(tmp_path, "simulate", scenario)
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


# a run length the engine cannot run: refused by the loader (2) or by a bound on the
# path steps or cycles, before anything is allocated (3)
@pytest.mark.parametrize(
    "section, key, value, code, message",
    [
        ("simulation", "horizon", math.nan, 2, "horizon must be positive and finite"),
        ("simulation", "horizon", -1.0, 2, "horizon must be positive and finite"),
        ("simulation", "horizon", math.inf, 2, "horizon must be positive and finite"),
        ("simulation", "seed", -1, 2, "seed must be nonnegative"),
        ("simulation", "chunk_size", 0, 2, "chunk_size must be at least 1"),
        ("simulate", "horizon", -5.0, 2, "simulate.horizon must be positive and finite"),
        ("simulate", "horizon", math.nan, 2, "simulate.horizon must be positive and finite"),
        ("simulate", "threshold", math.nan, 2, "simulate.threshold must be finite"),
        ("simulate", "threshold", math.inf, 2, "simulate.threshold must be finite"),
        ("simulate", "threshold", -math.inf, 2, "simulate.threshold must be finite"),
        ("simulate", "horizon", 1e300, 3, "at most 10000000 allowed"),
        ("simulation", "horizon", 1e300, 3, "at most 1000000 allowed"),
        ("simulate", "threshold", 1.0001, 3, "at most 1000000 allowed"),
        ("simulate", "threshold", 1.000000001, 3, "at most 1000000 allowed"),
    ],
)
def test_simulate_refuses_run_lengths_it_cannot_run(
    tmp_path, capsys, section, key, value, code, message
):
    data = json.loads(Path(RATE_SCENARIO).read_text())
    sections = {"simulation": data["simulation"], "simulate": {**data["simulate"], "horizon": 5.0}}
    sections[section] = {**sections[section], key: value}
    got, out = run(tmp_path, "simulate", with_section(tmp_path, RATE_SCENARIO, **sections))
    assert got == code
    assert message in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "simulation",
    [5, {"n_paths": 1000}, {"seed": "a"}, {"horizon": math.nan}],
    ids=["not-an-object", "unknown-key", "not-a-number", "out-of-range"],
)
def test_simulation_section_errors_start_with_the_scenario_path(tmp_path, capsys, simulation):
    scenario = with_section(tmp_path, RATE_SCENARIO, simulation=simulation)
    code, out = run(tmp_path, "simulate", scenario)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {scenario}: ")
    assert not out.exists()


def test_chunk_size_past_the_cycle_count_is_one_chunk(tmp_path):
    # a chunk of as many paths as the estimate needs or more is the one chunk
    data = json.loads(Path(RATE_SCENARIO).read_text())
    data["simulation"]["horizon"] = 100.0
    data["simulate"]["horizon"] = 1.0
    results = []
    for chunk_size in (8192, 1e308):
        data["simulation"]["chunk_size"] = chunk_size
        scenario = tmp_path / f"chunk-{chunk_size}.json"
        scenario.write_text(json.dumps(data))
        code, out = run(tmp_path / str(chunk_size), "simulate", scenario)
        assert code == 0
        results.append(read_report(out)["results"])
    assert results[0] == results[1]


def test_negative_seed_override_exits_2(tmp_path, capsys):
    code, out = run(tmp_path, "solve-single", RATE_SCENARIO, "--seed", "-1")
    assert code == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "field, code, named",
    [
        ("y0", 3, "sigma^2 overflows at x = 1e+308"),   # sigma(y0)^2 in the threshold solve
        ("beta", 2, "field 'beta' = 1e+308"),            # beta^2 while the model is built
    ],
)
def test_overflowing_model_field_is_named(tmp_path, capsys, field, code, named):
    model = {**json.loads(Path(RATE_SCENARIO).read_text())["model"], field: 1e308}
    scenario = with_section(tmp_path, RATE_SCENARIO, model=model)
    assert run(tmp_path, "solve-single", scenario)[0] == code
    assert named in capsys.readouterr().err


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


# every field of the bundled rate scenario, and the custom model's own, replaced in turn
_FUZZ_FIELDS = [
    (RATE_SCENARIO, section, key)
    for section, keys in json.loads(Path(RATE_SCENARIO).read_text()).items()
    for key in keys
] + [(CUSTOM_SCENARIO, "model", key) for key in ("drift", "vol", "y0")]
_FUZZ_VALUES = [True, "x", None, math.nan, -1, 0, 1e308, [], {}, 1e-300]


@pytest.mark.parametrize(
    "scenario_file, section, key",
    _FUZZ_FIELDS,
    ids=[f"{Path(f).stem}-{s}.{k}" for f, s, k in _FUZZ_FIELDS],
)
def test_fuzzed_field_ends_in_a_documented_exit_code(tmp_path, scenario_file, section, key):
    # a value of the wrong kind or range exits 0, 2, 3 or 4; no exception escapes main
    data = json.loads(Path(scenario_file).read_text())
    escaped = []
    for i, value in enumerate(_FUZZ_VALUES):
        data[section] = {**data[section], key: value}
        scenario = tmp_path / f"fuzz-{i}.json"
        scenario.write_text(json.dumps(data))
        for command in ("solve-single", "validate", "verify"):
            try:
                code = main([command, "--scenario", str(scenario), "--out", str(tmp_path / "out")])
            except Exception as exc:   # noqa: BLE001 - the test reports whatever escapes
                code = f"{type(exc).__name__}: {exc}"
            if code not in (0, 2, 3, 4):
                escaped.append((value, command, code))
    assert escaped == []


# the run lengths of simulate, on a copy of the rate scenario short enough to fuzz;
# dt stays out: a tiny dt is valid but makes a cycle take up to the cycle cap over dt steps
_SIMULATE_FUZZ_FIELDS = [
    ("simulation", "horizon"),
    ("simulation", "seed"),
    ("simulation", "chunk_size"),
    ("simulate", "threshold"),
    ("simulate", "horizon"),
]


@pytest.mark.parametrize(
    "section, key", _SIMULATE_FUZZ_FIELDS, ids=[f"{s}.{k}" for s, k in _SIMULATE_FUZZ_FIELDS]
)
def test_fuzzed_simulate_field_ends_in_a_documented_exit_code(tmp_path, section, key):
    data = json.loads(Path(RATE_SCENARIO).read_text())
    data["simulation"]["horizon"] = 100.0
    data["simulate"]["horizon"] = 1.0
    escaped = []
    for i, value in enumerate(_FUZZ_VALUES):
        data[section] = {**data[section], key: value}
        scenario = tmp_path / f"fuzz-{i}.json"
        scenario.write_text(json.dumps(data))
        try:
            code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
        except Exception as exc:   # noqa: BLE001 - the test reports whatever escapes
            code = f"{type(exc).__name__}: {exc}"
        if code not in (0, 2, 3, 4):
            escaped.append((value, code))
    assert escaped == []


def test_simulate_solves_its_own_threshold(tmp_path):
    # no simulate.threshold: simulate runs at the lowest equilibrium of solve-mfg
    scenario = with_section(tmp_path, STOCK_SCENARIO, simulation={"seed": 7, "horizon": 200.0})
    code, out = run(tmp_path / "simulate", "simulate", scenario)
    assert code == 0
    code, mfg = run(tmp_path / "mfg", "solve-mfg", scenario)
    assert code == 0
    lowest = min(point["threshold"] for point in read_report(mfg)["results"]["equilibria"])
    assert read_report(out)["results"]["threshold"] == lowest


def test_simulate_without_threshold_or_payoff_exits_2(tmp_path, capsys):
    data = json.loads(Path(RATE_SCENARIO).read_text())
    del data["payoff"], data["simulate"]
    scenario = tmp_path / "bare.json"
    scenario.write_text(json.dumps(data))
    code, out = run(tmp_path, "simulate", scenario)
    assert code == 2
    assert "simulate.threshold" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["solve-single", "compare"])
def test_power_of_a_negative_base_is_not_finite(tmp_path, capsys, command):
    # (x-2)^0.5 is NaN below x = 2, where Python's ** would give a complex
    model = {"kind": "custom", "drift": "x*(1.5 - 0.5*x) + 0.1*(x-2)^0.5", "vol": "x", "y0": 1.0}
    code, _ = run(tmp_path, command, with_section(tmp_path, CUSTOM_SCENARIO, model=model))
    assert code == 3
    assert "drift is not finite" in capsys.readouterr().err
