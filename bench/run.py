"""Benchmark harness for harvestfield: end-to-end metrics per workload, or a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload market-rate --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh process (``bench/workload.py``) with BLAS and
OpenMP pinned to one thread. With ``--trace 0`` the harness also starts a few
set-up-only processes and reports the median set-up time. With ``--trace 1``
the workload process runs a fixed op list twice, untraced and traced, and
reports per-layer metrics. A human-readable report goes to standard output,
ending with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

Op throughput and latency are gated in reference seconds (``ref_s``, see
``workload.py``), which follow the program's speed but not the host's drift;
the wall-clock figures are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_EFFECTS, METRICS  # noqa: E402
from workload import WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_ref_s", "ops/ref_s"),
    ("op_p50_ref_s", "ref_s"),
    ("peak_rss_mb", "MB"),
)
SETUP_ONLY_RUNS = 4
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float, setup_only=False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: "1" for name in THREAD_VARS})
    argv = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the workload process started")
    argv += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: workload process exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: workload process exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (percentile, value)."""
    n = len(latencies)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not trace:
        setups = [spawn(workload, seed, seconds, 0, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_ONLY_RUNS)]
    raw = spawn(workload, seed, seconds, trace, deadline)
    setups.append(raw["setup_s"])
    ops = raw["ops"]
    latencies = [op[1] for op in ops]
    costs = [op[4] for op in ops]
    failed = [op for op in ops if not op[2]]
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "raw": raw, "setups": setups, "attempted": len(ops), "failed": len(failed),
        "extra": {
            "op_tail_ref_s": tail_latency(costs),
            "op_tail_s": tail_latency(latencies),
            "failed_frac": len(failed) / len(ops),
        },
    }
    if trace:
        result["metrics"] = {
            name: {"value": raw["trace"]["metrics"][name], "unit": unit} for name, unit, _, _ in METRICS
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_ref_s": len(ops) / sum(costs),
            "op_p50_ref_s": statistics.median(costs),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        result["extra"].update(
            ops_per_s=len(ops) / raw["wall_s"],
            op_p50_s=statistics.median(latencies),
            ref_s_in_s=statistics.median(l / c for l, c in zip(latencies, costs)),
        )
    return result


def report(result: dict, env: dict) -> None:
    raw = result["raw"]
    mode = "traced per-layer run" if result["trace"] else "end-to-end run"
    print(f"== {result['workload']}  seed {result['seed']}  {result['seconds']:g} s  {mode}")
    versions = " ".join(f"{k}={v}" for k, v in raw["versions"].items())
    print(f"env: git_sha={env['git_sha']} nproc={env['nproc']} {versions} blas/omp threads=1")
    metrics = result["metrics"]
    if result["trace"]:
        trace = raw["trace"]
        print(f"untraced {trace['plain_ref_s']:.3f} ref_s, traced {trace['traced_ref_s']:.3f} ref_s over "
              f"{result['attempted'] // 2} ops each; {trace['spans']} spans in {trace['spans_file']}")
        for layer, (moves, on, not_on) in LAYER_EFFECTS.items():
            print(f"  [{layer}] should move {moves} on {on} (little or none on {not_on})")
            for name, metric in metrics.items():
                if name.split(".")[0] == layer:
                    print(f"    {name:<46} {metric['value']:.6g} {metric['unit']}")
        if trace["absent"]:
            print(f"absent boundaries, reported as 0: {', '.join(trace['absent'])}")
        print(f"  failed_frac {result['extra']['failed_frac']:.6g} ratio: "
              f"{result['failed']} of {result['attempted']} ops failed")
    else:
        extra = result["extra"]
        setups = ", ".join(f"{s:.3f}" for s in result["setups"])
        wall = raw["wall_s"]
        rows = [
            ("setup_s", metrics["setup_s"]["value"], "s",
             f"median of {len(result['setups'])} set-ups: {setups}"),
            ("ops_per_ref_s", metrics["ops_per_ref_s"]["value"], "ops/ref_s",
             f"{result['attempted']} ops, one client, closed loop"),
            ("op_p50_ref_s", metrics["op_p50_ref_s"]["value"], "ref_s", "median op latency"),
            ("ops_per_s", extra["ops_per_s"], "ops/s", f"wall clock: {result['attempted']} ops in {wall:.2f} s"),
            ("op_p50_s", extra["op_p50_s"], "s", "wall clock: median op latency"),
            ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB", "peak resident memory of the workload process"),
        ]
        for key, unit in (("op_tail_ref_s", "ref_s"), ("op_tail_s", "s")):
            tail = extra[key]
            if tail is None:
                rows.append((key, "-", unit, f"undefined: {result['attempted']} ops, needs 11"))
            else:
                rows.append((key, tail[1], unit, f"p{tail[0]:.1f} of {result['attempted']} ops, 10 beyond"))
        rows.append(("failed_frac", extra["failed_frac"], "ratio",
                     f"{result['failed']} of {result['attempted']} ops failed"))
        for name, value, unit, note in rows:
            shown = value if isinstance(value, str) else f"{value:.6g}"
            print(f"  {name:<14} {shown:<12} {unit:<10} {note}")
        print(f"  one ref_s was {extra['ref_s_in_s']:.4f} s of wall clock (median over the ops)")

    print("output checks:")
    by_label: dict[str, list] = {}
    for op in raw["ops"]:
        by_label.setdefault(op[0], []).append(op)
    for label, group in by_label.items():
        passed = sum(1 for op in group if op[2])
        shown = f"  {group[0][3]}" if len(group) == 1 else ""
        print(f"  {label:<30} {passed}/{len(group)} passed{shown}")
    failed = [op for op in raw["ops"] if not op[2]]
    print("failed ops:" + ("" if failed else " none"))
    for label, latency, _, detail, _ in failed:
        print(f"  {label} ({latency:.3f} s): {detail}")
    if raw["probes"]:
        print("known defects at the parent, not counted above (a fix shows as 'fixed'):")
        for label, _, ok, detail, _ in raw["probes"]:
            print(f"  {label}: {'fixed' if ok else 'still fails'}: {detail}")


def summary(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def exit_on_sigterm(signum, _frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the workload process
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "harvestfield" / "__init__.py").is_file():
        print(f"error: no harvestfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0))}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace) for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    for result in results:
        report(result, env)
        path = out / f"result-{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"env": env, **result}, indent=1))
        print(f"full result with every op: {path.relative_to(ROOT)}")
    if args.workload == "all":
        print(json.dumps({r["workload"]: summary(r) for r in results}))
    else:
        print(json.dumps(summary(results[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
