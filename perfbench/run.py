"""Benchmark for fareyapprox: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass.  The last line of standard output is the
result, one JSON object with the keys correct, attempted, failed and
metrics; the line before it is the full record of the run (environment,
seed, tail percentile and sample count, set-up samples, problems).
The exit code is 0 only when every answer was correct.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
import workloads

WORKER = workloads.BENCH_DIR / "worker.py"
# Set-up samples per run besides the main worker's own, taken half before
# and half after the main worker so they span the run.
SETUP_PROBES = 10
WORKER_TIMEOUT_S = 150
END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _commit() -> str | None:
    # Read from the checkout's own .git, if it has one; never search upward.
    head = workloads.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (workloads.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "mpmath": _version("mpmath"),
        "numpy": _version("numpy"),
        "seed": seed,
        "scan_budget_env": os.environ.get("FAREY_APPROX_MAX_SCAN"),
    }


def spawn(workload: str, seed: int, extra: list[str]) -> tuple[float, dict]:
    """Run one worker; return (seconds from spawn to ready, its output).

    The seconds are scaled by the worker's calibration right after it was
    ready, like every time the benchmark reports (see worker.timed_run).
    """
    env = dict(os.environ)
    env.pop("FAREY_APPROX_MAX_SCAN", None)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=workloads.ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: worker for {workload} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return (out["ready"] - started) * out["ready_speed_factor"], out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(record, result) for one workload."""
    record = {"workload": workload, "seconds": seconds, "trace": trace, **environment(seed)}
    if trace:
        _, out = spawn(workload, seed, ["--seconds", str(seconds), "--trace", "1"])
        metrics = {name: {"value": out["metrics"][name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        spawn(workload, seed, ["--probe"])  # warm-up: fills bytecode caches, not counted
        setups = [spawn(workload, seed, ["--probe"])[0] for _ in range(SETUP_PROBES // 2)]
        setup, out = spawn(workload, seed, ["--seconds", str(seconds), "--trace", "0"])
        setups.append(setup)
        setups += [spawn(workload, seed, ["--probe"])[0] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        out["setup_s"] = statistics.median(setups)
        record["setup_samples_s"] = setups
        metrics = {name: {"value": out[name], "unit": unit} for name, unit in END_TO_END}
    record.update({k: v for k, v in out.items() if k not in ("metrics", "ready")})
    record["metrics"] = metrics
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    return record, result


def main() -> int:
    parser = argparse.ArgumentParser(description="fareyapprox benchmark")
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (workloads.ROOT / "src" / "fareyapprox" / "__init__.py").is_file():
        print("benchmark: run from a checkout of the repository (no src/fareyapprox)",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        record, results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(record))
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
