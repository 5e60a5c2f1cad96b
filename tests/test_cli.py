import csv
import json
from importlib import resources
from pathlib import Path

import pytest

from harvestfield.cli import main
from harvestfield.reports import render_table

SCENARIOS = resources.files("harvestfield") / "scenarios"
RATE_SCENARIO = str(SCENARIOS / "logistic-harvest-rate.json")
STOCK_SCENARIO = str(SCENARIOS / "logistic-expected-stock.json")


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


@pytest.mark.parametrize("numerics", [{"scan_points": 1}, {"fixed_point_max_iter": 0}])
def test_unusable_equilibrium_numerics_exit_3(tmp_path, numerics):
    scenario = with_section(tmp_path, STOCK_SCENARIO, numerics=numerics)
    code, _ = run(tmp_path, "solve-mfg", scenario)
    assert code == 3


def test_verify_passes_on_benchmark(tmp_path):
    code, out = run(tmp_path, "verify", RATE_SCENARIO)
    assert code == 0
    results = read_report(out)["results"]
    assert results["verification"]["passed"] is True


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


def test_unknown_numerics_key_exits_2(tmp_path):
    scenario = tmp_path / "bad.json"
    scenario.write_text(
        json.dumps(
            {
                "model": {"kind": "logistic", "q": -1, "b": 0.5, "beta": 1.0, "y0": 1.0},
                "payoff": {"K": 1.0, "phi": "1/(z+1)", "interaction": "harvest_rate"},
                "numerics": {"scan_pts": 100},
            }
        )
    )
    assert main(["solve-mfg", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2


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
