"""Tests of the benchmark itself: run with python3 -m pytest perfbench/tests."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import run
import tracing
import worker
import workloads

fa = workloads.import_program()
REFERENCE = workloads.load_reference()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    def ids(seed):
        return [e["id"] for e in workloads.build_deck(REFERENCE, workload, seed)]

    assert ids(7) == ids(7)
    assert ids(7) != ids(8)
    assert len(ids(7)) == sum(workloads.DECKS[workload].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_gets_the_same_mix(workload):
    def mix(seed):
        strata = [e["stratum"] for e in workloads.build_deck(REFERENCE, workload, seed)]
        return {s: strata.count(s) for s in strata}

    assert mix(1) == mix(2) == workloads.DECKS[workload]


def _one_item(x, t):
    return fa.simultaneous.ConstraintSet(((Fraction(x), Fraction(t)),))


@pytest.mark.parametrize(
    "x, t, eps, expected",
    [
        # q = 1, 2 miss 1/3 by 1/3 and 1/6 > 1/10; q = 3 hits it exactly.
        ("1/3", "1", "1/10", 3),
        # Q = floor((1/10) / (1/50)) = 5, and no p/q with q <= 5 is within
        # 1/500 of 1/7: the whole range is scanned.
        ("1/7", "1/10", "1/50", 5),
        # Q = floor((1/10) / 1) = 0: nothing to scan.
        ("1/7", "1/10", "1", 0),
    ],
)
def test_brute_q_range_hand_checked(x, t, eps, expected):
    cs = _one_item(x, t)
    result = fa.simultaneous.brute_force_solve(cs, Fraction(eps))
    assert tracing.brute_q_range(cs, Fraction(eps), result, fa.simultaneous.Solution) == expected


def test_threshold_q_range_sums_grid_points():
    # eps = 1/50 is infeasible with Q = 5; eps = 1/700 has Q = 70 and the
    # exact hit q = 7.
    cs = _one_item("1/7", "1/10")
    report = fa.simultaneous.epsilon_threshold(cs, (Fraction(1, 50), Fraction(1, 700)))
    assert report.feasible == (False, True)
    assert tracing.threshold_q_range(cs, report) == 5 + 7


@pytest.mark.parametrize(
    "n, percentile, value, beyond",
    [
        (5, 50.0, 3, 2),
        (99, 50.0, 50, 49),
        (100, 90.0, 90, 10),
        (999, 90.0, 900, 99),
        (1000, 99.0, 990, 10),
        (10_000, 99.9, 9990, 10),
    ],
)
def test_tail_percentile_rule(n, percentile, value, beyond):
    samples = list(range(n, 0, -1))
    assert worker.tail_latency(samples) == (percentile, value, beyond)


def _request(stratum, digest=None):
    entry = next(e for e in REFERENCE["workloads"]["solve-mix"] if e["stratum"] == stratum)
    if digest is not None:
        entry = {**entry, "digest": digest}
    [req] = workloads.materialize(fa, [entry], Path("."))
    return req


def test_wrong_digest_is_a_failure():
    _, _, problem = worker.send(fa, _request("brute-feas-1e2"))
    assert problem is None
    _, _, problem = worker.send(fa, _request("brute-feas-1e2", digest="0" * 20))
    assert problem is not None and "digest" in problem


def test_verify_rejects_a_wrong_witness():
    req = _request("brute-feas-1e2")
    sol = fa.simultaneous.brute_force_solve(req.cs, req.eps)
    bad = fa.simultaneous.Solution(sol.q, tuple(p + 1 for p in sol.ps), sol.errors, sol.epsilon, "brute")
    assert workloads.verify(fa, req, sol) is None
    assert workloads.verify(fa, req, bad) is not None


def _scan_range(spec):
    ts = [Fraction(t) for t in spec["ts"]]
    ranges = [math.floor(min(ts) / Fraction(g)) for g in spec.get("grid", [])]
    if "eps" in spec:
        ranges.append(math.floor(min(ts) / Fraction(spec["eps"])))
    if "T" in spec:
        ranges.append(spec["T"] ** len(spec["xs"]) - 1)
    return max(ranges)


def test_library_requests_stay_below_the_default_scan_budget():
    for workload in ("solve-mix", "sweep"):
        for entry in REFERENCE["workloads"][workload]:
            assert _scan_range(entry["spec"]) < fa.simultaneous.DEFAULT_MAX_SCAN


def test_traced_counters_repeat_and_cover_every_metric(tmp_path):
    deck = workloads.build_deck(REFERENCE, "farey-cli", 3)[:12]
    requests = workloads.materialize(fa, deck, tmp_path)
    runs = [worker.traced_run(fa, "farey-cli", deck, requests, tmp_path, 0) for _ in range(2)]
    names = [name for name, _ in tracing.PER_LAYER]
    for out in runs:
        assert out["failed"] == 0
        assert set(out["metrics"]) == set(names)
    counters = [n for n, unit in tracing.PER_LAYER if unit in ("count", "bytes", "digits")]
    assert [runs[0]["metrics"][n] for n in counters] == [runs[1]["metrics"][n] for n in counters]
    shares = sum(runs[0]["metrics"][f"share.{layer}"] for layer in tracing.LAYERS)
    assert shares == pytest.approx(1.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
