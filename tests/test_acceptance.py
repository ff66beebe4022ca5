"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
All randomness is seeded, and every comparison is exact rational
equality; there are no tolerances anywhere in this suite.  Criteria 1, 2
and 7 run the packaged selftest's own checks (Farey properties, gap
identities, compose against the oracle) on larger seeded instance sets,
and add only what the selftest does not check: the totient count and the
floor on satisfied instances.
"""

import json
import math
import random
from fractions import Fraction as F

from fareyapprox import (
    ConstraintSet,
    InfeasibleError,
    Solution,
    brute_force_solve,
    check_solution,
    compare,
    dirichlet_solve,
    epsilon_threshold,
    nearest_int_distance,
    parse_real,
    subdivide,
    verify_farey_properties,
)
from fareyapprox.cli import run
from fareyapprox.selftest import _compose_checks, _farey_property_checks, _gap_identity_checks
from oracles import consecutive_pairs, feasible_by_enumeration, subdivision_failures

STANDINS_50 = tuple(parse_real(name, 50) for name in ("sqrt2", "sqrt3", "sqrt5", "phi", "pi", "e"))


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_farey_property_suite():
    _, bad = _farey_property_checks(range(1, 201))
    # independent totient by trial division: the property walk covers all of F_N
    expected_len = 1
    for order in range(1, 201):
        expected_len += sum(1 for j in range(1, order + 1) if math.gcd(j, order) == 1)
        length = verify_farey_properties(order).adjacent_unimodular.checked + 1
        if length != expected_len:
            bad.append(f"order {order}: |F_N| = {length}, totient sum gives {expected_len}")
    report(1, not bad, bad[0] if bad else "orders 1..200, properties + totient counts")


def test_criterion_2_gap_identity_suite():
    rng = random.Random(2025)
    triples = [
        (rng.choice(consecutive_pairs(rng.randint(1, 60))), rng.randint(0, 50), rng.randint(0, 50))
        for _ in range(500)
    ]
    _, bad = _gap_identity_checks(triples)
    report(2, not bad, f"500 random pairs from F_N (N<=60), i,j<=50, {len(bad)} mismatches")


def test_criterion_3_subdivision_contract():
    rng = random.Random(3030)
    produced = infeasible = 0
    bad = []
    for _ in range(200):
        base = rng.choice(consecutive_pairs(rng.randint(1, 50)))
        gap_bound = F(1, rng.randint(2, 400))
        denom_bound = rng.randint(2, 2000)
        try:
            sub = subdivide(base, gap_bound, denom_bound, max_points=200_000)
        except InfeasibleError:
            infeasible += 1
            if feasible_by_enumeration(base, gap_bound, denom_bound):
                bad.append(f"false infeasible: {base.left},{base.right} g={gap_bound} D={denom_bound}")
            continue
        produced += 1
        bad += subdivision_failures(sub.points, base, gap_bound, denom_bound)
    detail = f"200 instances: {produced} subdivisions, {infeasible} infeasible, all verified"
    report(3, not bad, bad[0] if bad else detail)


def _random_instance(rng, max_n=3):
    n = rng.randint(1, max_n)
    items = []
    for _ in range(n):
        if rng.random() < 0.5:
            x = rng.choice(STANDINS_50)
        else:
            x = F(rng.randint(-40, 40), rng.randint(1, 60))
        items.append((x, rng.choice([F(1, 2), F(1), F(2)])))
    return ConstraintSet(tuple(items))


def test_criterion_4_existence_at_desk_scale():
    rng = random.Random(4040)
    grid = [F(1, 2**k) for k in range(1, 15)]
    bad = []
    for idx in range(50):
        cs = _random_instance(rng)
        rep = epsilon_threshold(cs, grid)
        if rep.epsilon0 is None:
            bad.append(f"instance {idx}: no feasible suffix")
            continue
        for g, wit in zip(rep.grid, rep.witnesses):
            if wit is not None and not check_solution(cs, g, wit.q, wit.ps).overall:
                bad.append(f"instance {idx}: witness at {g} fails the exact check")
    report(4, not bad, bad[0] if bad else "50 instances, epsilon0 > 0, all witnesses check")


def test_criterion_5_dirichlet_baseline():
    rng = random.Random(5050)
    bad = []
    for idx in range(50):
        n = rng.randint(1, 3)
        xs = [
            rng.choice(STANDINS_50) if rng.random() < 0.5
            else F(rng.randint(-40, 40), rng.randint(1, 60))
            for _ in range(n)
        ]
        T = rng.randint(2, 20)
        sol = dirichlet_solve(xs, T)
        if not 1 <= sol.q < T**n:
            bad.append(f"instance {idx}: q={sol.q} outside [1, {T**n})")
        if max(sol.errors) > F(1, T * sol.q):
            bad.append(f"instance {idx}: max error above 1/(Tq)")
        if any(nearest_int_distance(sol.q * x) > F(1, T) for x in xs):
            bad.append(f"instance {idx}: ||q*x|| above 1/T")
    report(5, not bad, bad[0] if bad else "50 instances, q < T^n and errors <= 1/(Tq) exactly")


def test_criterion_6_comparison_reproduction():
    rng = random.Random(6060)
    combos = [
        (2, F(1), F(1, 12)),
        (2, F(1, 2), F(1, 10)),
        (3, F(2), F(1, 8)),
        (2, F(2), F(1, 9)),
        (3, F(1), F(1, 16)),
        (2, F(1), F(1, 20)),
        (3, F(1, 2), F(1, 9)),
        (2, F(1, 2), F(1, 8)),
        (3, F(2), F(1, 10)),
        (2, F(2), F(1, 16)),
    ]
    exhibits = 0
    bad = []
    for idx, (n, t, eps) in enumerate(combos):
        xs = [rng.choice(STANDINS_50) for _ in range(n)]
        T = math.ceil(1 / (eps * t))  # forced: the smallest T with 1/T <= eps*t
        rep = compare(ConstraintSet(tuple((x, t) for x in xs)), eps, T)
        if F(1, T) > eps * t:
            bad.append(f"instance {idx}: T={T} not forced")
            continue
        if rep.q_bound_dirichlet <= rep.q_bound_constrained:
            continue  # no blowup exhibited on this one
        if not isinstance(rep.constrained, Solution):
            continue  # constrained side infeasible; not an exhibit
        if rep.constrained.q > t / eps:
            bad.append(f"instance {idx}: constrained q exceeds t/eps")
            continue
        exhibits += 1
    ok = not bad and exhibits >= 1
    report(6, ok, bad[0] if bad else f"{exhibits}/10 instances exhibit T^n > t/eps with feasible constrained q")


def test_criterion_7_oracle_agreement():
    rng = random.Random(7070)
    instances = [(_random_instance(rng), F(1, 2 ** rng.randint(2, 7))) for _ in range(100)]
    oracles = [brute_force_solve(cs, eps) for cs, eps in instances]
    _, bad, satisfied = _compose_checks(instances, oracles)
    ok = not bad and satisfied >= 10
    report(7, ok, bad[0] if bad else f"100 instances, {satisfied} satisfied, oracle agrees on all")


def test_criterion_8_cli_determinism_and_exit_codes(tmp_path, capsys):
    def invoke(argv):
        code = run(argv)
        out = capsys.readouterr().out
        return code, out

    sweep_fixture = tmp_path / "sweep.txt"
    sweep_fixture.write_text("sqrt2 1\n1/3 1\n", encoding="utf-8")
    feasible = tmp_path / "feasible.txt"
    feasible.write_text("1/2 1\n", encoding="utf-8")
    infeasible = tmp_path / "infeasible.txt"
    infeasible.write_text("3/7 1/2\n", encoding="utf-8")
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("one two three\n", encoding="utf-8")

    # selftest reruns are pinned byte for byte by the golden test in test_cli.py
    bad = []
    argv = ["sweep", "--input", str(sweep_fixture), "--grid", "1/2,1/4,1/8,1/16"]
    code_a, out_a = invoke(argv)
    code_b, out_b = invoke(argv)
    if not (code_a == code_b and out_a == out_b):
        bad.append("sweep runs are not byte-identical")
    if json.loads(out_a)["epsilon0"] is None:
        bad.append("sweep fixture unexpectedly infeasible")

    code, _ = invoke(["solve", "--input", str(feasible), "--epsilon", "1/4"])
    if code != 0:
        bad.append(f"feasible fixture exited {code}, want 0")
    code, _ = invoke(["solve", "--input", str(infeasible), "--epsilon", "1/8"])
    if code != 2:
        bad.append(f"infeasible fixture exited {code}, want 2")
    code, _ = invoke(["solve", "--input", str(malformed), "--epsilon", "1/8"])
    if code != 1:
        bad.append(f"malformed fixture exited {code}, want 1")

    report(8, not bad, bad[0] if bad else "byte-identical reruns; exit codes 0/2/1 as contracted")
