"""One workload process: set up, run a closed loop, print one JSON line.

Started by run.py, which times the process from spawn to the moment it
is ready to send its first request:

    python3 perfbench/worker.py --workload W --seed N --probe
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

One client sends requests in a closed loop: the next request goes out
only after the previous one returned and was checked.  Checking happens
between requests and is not part of any request's time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

SCAN_ENV = "FAREY_APPROX_MAX_SCAN"
WORKDIR_PARENT = workloads.ROOT / ".perfbench_tmp"
# Tail percentiles, in tenths of a percent, from the highest down.
TAIL_LADDER = (999, 990, 900, 500)
TAIL_BEYOND = 10
CAL_X = Fraction(14142135623730950488016887242096980785696, 10**40)
CAL_ORDER = 40


def tail_latency(samples: list[float], ceiling: int = TAIL_LADDER[0]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the latency tail.

    The percentile is the highest of 99.9, 99, 90 and 50, but not above
    ``ceiling`` (in tenths of a percent), that leaves at least TAIL_BEYOND
    samples above it by the nearest-rank rule; with fewer than 20 samples
    the median is reported with its count.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for per_mille in (p for p in TAIL_LADDER if p <= ceiling):
        rank = -(-per_mille * n // 1000)
        if n - rank >= TAIL_BEYOND or per_mille == TAIL_LADDER[-1]:
            return per_mille / 10, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def send(fa, req, tracer: tracing.Tracer | None = None) -> tuple[float, object, str | None]:
    """Time one request, in a root span when traced; return (seconds,
    result, problem or None)."""
    started = time.perf_counter()
    try:
        if tracer is None:
            result = workloads.execute(fa, req)
        else:
            tracer.request = req.id
            result = tracer.call(tracing.REQUEST, workloads.execute, fa, req)
    except Exception as exc:  # any raise, BudgetExceededError included, fails the request
        return time.perf_counter() - started, None, f"{req.id}: raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    return elapsed, result, workloads.check(fa, req, result)


def _scan_work() -> int:
    """Big-integer division and Fraction additions, as in the scan loops."""
    xn, xd = CAL_X.numerator, CAL_X.denominator
    acc, f = 0, Fraction(0)
    for q in range(1, 3001):
        acc += divmod(xn * q, xd)[1] & 7
        if q % 50 == 0:
            f += Fraction(q, q + 1)
    return acc


def _cli_work() -> int:
    """Argument parsing, JSON output, and making and formatting Fractions
    one after another, as in the CLI and the Farey listings."""
    size = 0
    for _ in range(2):
        parser = argparse.ArgumentParser(prog="calibration")
        subs = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c", "d"):
            sub = subs.add_parser(name, help=name)
            sub.add_argument("--x", required=True)
            sub.add_argument("--n", type=int, default=3)
        args = parser.parse_args(["b", "--x", "7/9", "--n", "12"])
        value = Fraction(args.x) * args.n
        size += len(json.dumps({"v": str(value), "k": [str(Fraction(i, 7)) for i in range(30)]},
                               indent=2))
    a, b, c, d, lines = 0, 1, 1, CAL_ORDER, []
    while c <= CAL_ORDER:
        k = (CAL_ORDER + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        term = Fraction(a, b)
        lines.append(f"{term.numerator}/{term.denominator}")
    return size + len("\n".join(lines))


# Calibration per workload: work like the workload's own, its time at the
# reference speed, and how much request time may pass between two runs.
CALIBRATION = {
    "solve-mix": (_scan_work, 0.002),
    "sweep": (_scan_work, 0.002),
    "farey-cli": (_cli_work, 0.003),
}
CAL_EVERY_S = 0.1


def calibrate(workload: str) -> float:
    """Seconds the workload's calibration work takes now (about 2 ms)."""
    work, _ = CALIBRATION[workload]
    started = time.perf_counter()
    work()
    return time.perf_counter() - started


def speed_factor(workload: str, samples: int = 5) -> float:
    """Reference over current calibration time: below 1 when slow."""
    return CALIBRATION[workload][1] / statistics.median(calibrate(workload) for _ in range(samples))


def timed_run(fa, workload: str, requests, seconds: float) -> dict:
    """Whole passes over the deck until ``seconds`` have gone by.

    Other programs on a shared machine slow this one down by a third or
    more, for seconds to minutes at a time.  So a short calibration runs
    after every CAL_EVERY_S of requests, and each request's time is
    scaled by the calibration's reference time over the mean of the
    calibrations just before and just after it: times read as if the
    machine ran at its reference speed.  The raw figures are kept in the
    record.
    """
    raw, scaled, problems, pass_rps = [], [], [], []
    segment: list[float] = []
    reference_s = CALIBRATION[workload][1]
    before = calibrate(workload)

    def close_segment():
        nonlocal before
        after = calibrate(workload)
        factor = reference_s / ((before + after) / 2)
        scaled.extend(t * factor for t in segment)
        segment.clear()
        before = after

    deadline = time.monotonic() + seconds
    while not pass_rps or time.monotonic() < deadline:
        first, failed = len(raw), len(problems)
        for req in requests:
            elapsed, _, problem = send(fa, req)
            raw.append(elapsed)
            segment.append(elapsed)
            if problem:
                problems.append(problem)
            if sum(segment) >= CAL_EVERY_S:
                close_segment()
        if segment:
            close_segment()
        pass_rps.append((len(requests) - (len(problems) - failed)) / sum(scaled[first:]))
    percentile, tail, beyond = tail_latency(scaled, workloads.TAIL_CEILING)
    attempted = len(raw)
    return {
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:10],
        "passes": len(pass_rps),
        "pass_rps": pass_rps,
        "raw_throughput_rps": (attempted - len(problems)) / sum(raw),
        "raw_latency_p50_ms": 1e3 * statistics.median(raw),
        "speed_factor": sum(scaled) / sum(raw),
        "throughput_rps": statistics.median(pass_rps),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_tail_ms": 1e3 * tail,
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "ok_frac": 1 - len(problems) / attempted,
        "fail_frac": len(problems) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(fa, workload: str, deck, requests, workdir: Path, seconds: float) -> dict:
    """Untraced and traced passes in turn until ``seconds`` have gone by.

    The per-layer metrics come from the first traced pass, which also
    replays the input parsing under the tracer (request id ``setup``), so
    their counters repeat exactly for a seed.  The tracing overhead
    compares the scaled throughput of all untraced passes with that of
    all traced ones.
    """
    for req in requests:  # warm-up, not counted
        send(fa, req)
    scaled_s = {False: 0.0, True: 0.0}
    problems: list[str] = []
    first = None
    pairs = 0
    deadline = time.monotonic() + seconds
    while first is None or time.monotonic() < deadline:
        factor = speed_factor(workload)
        for traced in (False, True):
            tracer = tracing.Tracer() if traced else None
            if tracer:
                tracer.install()
            try:
                if tracer and first is None:
                    tracer.call(tracing.REQUEST, workloads.materialize, fa, deck, workdir)
                sent = [send(fa, req, tracer) for req in requests]
            finally:
                if tracer:
                    tracer.uninstall()
            next_factor = speed_factor(workload)
            scaled_s[traced] += sum(t for t, _, _ in sent) * (factor + next_factor) / 2
            factor = next_factor
            problems += [p for _, _, p in sent if p]
            if tracer and first is None:
                stdout_bytes = sum(len(result[1].encode()) for (_, result, _), req in zip(sent, requests)
                                   if req.kind == "cli" and result is not None)
                first = (tracer.spans, stdout_bytes)
        pairs += 1
    done = pairs * len(requests)
    metrics = tracing.per_layer(fa, *first, untraced_rps=done / scaled_s[False],
                                traced_rps=done / scaled_s[True])
    return {"attempted": 2 * done, "failed": len(problems), "problems": problems[:10],
            "passes": 2 * pairs, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="one benchmark workload process")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true", help="stop once set up")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    fa = workloads.import_program()
    if SCAN_ENV in os.environ:
        raise SystemExit(f"benchmark: {SCAN_ENV} must be unset so the default budget applies")
    deck = workloads.build_deck(workloads.load_reference(), args.workload, args.seed)
    WORKDIR_PARENT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR_PARENT) as tmp:
        requests = workloads.materialize(fa, deck, Path(tmp))
        ready = time.monotonic()
        factor = speed_factor(args.workload)
        if args.probe:
            out = {}
        elif args.trace:
            out = traced_run(fa, args.workload, deck, requests, Path(tmp), args.seconds)
        else:
            out = timed_run(fa, args.workload, requests, args.seconds)
    try:
        WORKDIR_PARENT.rmdir()
    except OSError:
        pass  # another worker still uses it
    out.update(ready=ready, ready_speed_factor=factor, deck_size=len(requests),
               scan_budget=fa.simultaneous.DEFAULT_MAX_SCAN)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
