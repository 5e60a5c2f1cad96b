"""Smoke test: every workload once at a tiny size, with and without tracing.

Asserts that each run succeeds, that its outputs pass their checks and that it
emits exactly the end-to-end and per-layer metrics named in BENCHMARK.json,
with their units. Takes about two minutes. Run from the root of a checkout:

    python3 bench/smoke.py            # or: python3 -m pytest bench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workload import WORKLOADS  # noqa: E402


def run_all(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        results = run_all(trace)
        assert sorted(results) == sorted(WORKLOADS)
        for workload, result in results.items():
            assert result["correct"] is True, (workload, trace)
            assert result["attempted"] >= 1 and result["failed"] == 0, (workload, trace)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == expected, (workload, trace)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name)


if __name__ == "__main__":
    test_every_metric_emitted()
    print("smoke test passed")
