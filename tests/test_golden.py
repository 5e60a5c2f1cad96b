"""Golden numbers: every float that the 24 bundled runs write, checked against ``golden.json``.

Each of the 8 subcommands runs in-process through ``cli.main`` on each of
the 3 bundled scenarios. ``golden.json`` holds, per run, its exit code,
every float leaf of ``report.json`` under its dotted key path, and the row
count, sum, position-weighted sum ``fsum((i + 1) x_i)`` and extremes of each
CSV column (a cell of ``;``-joined numbers counts each of them). The weighted
sum shows a cell that moved or swapped places, which the others do not. A
field may move only within its tolerance, so a change that moves a printed
number on purpose regenerates the file in the same commit and lists each
moved field in ``CHANGES.md``:

    PYTHONPATH=src python tests/test_golden.py

Never widen a tolerance to absorb a move.
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from fnmatch import fnmatch
from importlib import resources
from pathlib import Path

import pytest

from harvestfield.cli import main
from harvestfield.reports import render_table

GOLDEN = Path(__file__).with_name("golden.json")
SCENARIOS = resources.files("harvestfield") / "scenarios"
COMMANDS = (
    "validate", "solve-single", "solve-mfg", "solve-mfc", "compare", "simulate", "verify", "sweep",
)
SCENARIO_NAMES = ("logistic-harvest-rate", "logistic-expected-stock", "custom-logistic-harvest-rate")
RUNS = [f"{command}/{name}" for command in COMMANDS for name in SCENARIO_NAMES]

_PLANNER_TOL = 1e-10  # the central-difference phi' fixes the planner threshold to about 1e-11 relative

# (pattern on "<command>:<field>", relative, absolute); the first match wins
_TOLERANCES = (
    # rounding noise: differences of O(1) numbers that vanish at a solution
    ("verify:results.verification.g_at_restart", 0.0, 1e-12),
    ("verify:results.verification.u_*", 0.0, 1e-12),
    ("*.residual", 0.0, 1e-10),
    # Monte Carlo: a 1-ulp change in a crossing can move one path by dt
    ("simulate:results.value_*", 1e-9, 0.0),
    ("simulate:path.csv:*", 1e-9, 0.0),
    # the planner threshold and what is read off it
    ("solve-mfc:results.threshold", _PLANNER_TOL, 0.0),
    ("solve-mfc:results.interaction_level", _PLANNER_TOL, 0.0),
    ("solve-mfc:density.csv:*", _PLANNER_TOL, 0.0),
    ("compare:results.planner.threshold", _PLANNER_TOL, 0.0),
    ("compare:results.planner.interaction_level", _PLANNER_TOL, 0.0),
    ("sweep:sweep.csv:planner_threshold.*", _PLANNER_TOL, 0.0),
    ("*", 1e-11, 0.0),
)

# a margin is a difference of thresholds: it moves as much as the planner threshold in it
_MARGIN_SCALE = {
    "compare:results.margins.*": "results.planner.threshold",
    "sweep:results.worst_margin": "sweep.csv:planner_threshold.max",
    "sweep:sweep.csv:margin.sum": "sweep.csv:planner_threshold.sum",
    "sweep:sweep.csv:margin.wsum": "sweep.csv:planner_threshold.wsum",
    "sweep:sweep.csv:margin.m*": "sweep.csv:planner_threshold.max",
}


def _leaves(value, prefix=""):
    """``(dotted path, float)`` for every float leaf of a report."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{prefix}{key}.")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{prefix}{i}.")
    elif isinstance(value, float):
        yield prefix[:-1], value


def numbers(code: int, out: Path) -> dict:
    """The golden fields of one run: exit code, report floats and CSV column statistics."""
    fields = {"exit": code}
    fields.update(_leaves(json.loads((out / "report.json").read_text())))
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        fields[f"{path.name}:rows"] = len(rows)
        for i, column in enumerate(header):
            cells = [float(v) for row in rows for v in row[i].split(";") if v]
            key = f"{path.name}:{column}"
            fields.update({f"{key}.sum": math.fsum(cells),
                           f"{key}.wsum": math.fsum(n * x for n, x in enumerate(cells, 1)),
                           f"{key}.min": min(cells), f"{key}.max": max(cells)})
    return fields


def _moved(run: str, golden: dict, fields: dict) -> list[str]:
    command = run.split("/")[0]
    moved = [f"{key}: missing" for key in golden if key not in fields]
    moved += [f"{key}: not in golden.json" for key in fields if key not in golden]
    for key, old in golden.items():
        new = fields.get(key)
        if new is None or new == old or (new != new and old != old):   # NaN stays NaN
            continue
        if isinstance(old, int) or isinstance(new, int):
            moved.append(f"{key}: {old} -> {new}")
            continue
        field = f"{command}:{key}"
        rel, absolute = next((r, a) for p, r, a in _TOLERANCES if fnmatch(field, p))
        scale = next((golden[s] for p, s in _MARGIN_SCALE.items() if fnmatch(field, p)), old)
        change = abs(new - old)
        if not change <= rel * abs(scale) + absolute:   # also catches NaN
            relative = change / abs(old) if old else math.inf
            moved.append(f"{key}: {old!r} -> {new!r} (relative move {relative:.3g})")
    return moved


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("run", RUNS, ids=[run.replace("/", "-") for run in RUNS])
def test_golden_numbers(bundled_run, golden, run):
    command, name = run.split("/")
    code, out = bundled_run(command, str(SCENARIOS / f"{name}.json"))
    moved = _moved(run, golden[run], numbers(code, out))
    if moved:
        pytest.fail(f"{run}: {len(moved)} field(s) moved:\n" + "\n".join(moved), pytrace=False)


def _refuse(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("run", RUNS, ids=[run.replace("/", "-") for run in RUNS])
def test_reports_are_strict_json(bundled_run, run):
    # a non-finite number is written as null, and table.txt renders the report as parsed
    command, name = run.split("/")
    _, out = bundled_run(command, str(SCENARIOS / f"{name}.json"))
    report = json.loads((out / "report.json").read_text(), parse_constant=_refuse)
    assert render_table(report) == (out / "table.txt").read_text()


DENSITY_RUNS = [run for run in RUNS if run.split("/")[0] in ("solve-mfg", "solve-mfc")]


@pytest.mark.parametrize("run", DENSITY_RUNS, ids=[run.replace("/", "-") for run in DENSITY_RUNS])
def test_density_tables_are_distributions(bundled_run, run):
    # density.csv runs up to the threshold, where the controlled density vanishes
    command, name = run.split("/")
    _, out = bundled_run(command, str(SCENARIOS / f"{name}.json"))
    with open(out / "density.csv", newline="") as fh:
        rows = [(float(row["pdf"]), float(row["cdf"])) for row in csv.DictReader(fh)]
    pdf, cdf = zip(*rows)
    assert min(pdf) >= 0.0
    assert pdf[-1] == 0.0
    assert 0.0 <= cdf[0] and cdf[-1] <= 1.0
    assert all(a <= b for a, b in zip(cdf, cdf[1:]))


if __name__ == "__main__":
    fields = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for i, run in enumerate(RUNS):
            command, name = run.split("/")
            out = Path(tmp) / str(i)
            code = main([command, "--scenario", str(SCENARIOS / f"{name}.json"), "--out", str(out)])
            fields[run] = numbers(code, out)
    GOLDEN.write_text(json.dumps(fields, indent=1) + "\n")
    print(f"wrote {GOLDEN}: {sum(map(len, fields.values()))} fields of {len(RUNS)} runs", file=sys.stderr)
