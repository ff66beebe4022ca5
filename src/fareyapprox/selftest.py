"""Packaged smoke test: property checks and solver cross-checks.

Everything here is deterministic (fixed instances, no clocks, no RNG), so
two runs produce byte-identical output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from . import farey, mediants, simultaneous
from .rationals import parse_real

_PROPERTY_ORDERS = (1, 2, 25, 100)
_GAP_INDICES = (0, 1, 2, 5, 10)

# Instances (constraints, eps) and the oracle's answer for each.
_Instances = Sequence[tuple[simultaneous.ConstraintSet, Fraction]]
_Answers = Sequence[Union[simultaneous.Solution, simultaneous.Infeasible]]


def _farey_property_checks(orders: Iterable[int]) -> tuple[int, list[str]]:
    checks = 0
    failures = []
    for order in orders:
        for name, check in farey.verify_farey_properties(order).checks():
            checks += 1
            if not check.passed:
                failures.append(f"farey property {name} at order {order}: {check.counterexample}")
    return checks, failures


def _gap_identity_checks(
    triples: Iterable[tuple[farey.FareyPair, int, int]],
) -> tuple[int, list[str]]:
    # Each (base, i, j) compares the closed-form gaps at descending index i
    # and ascending index j with subtraction of the chain terms.
    checks = 0
    failures = []
    for base, i, j in triples:
        checks += 4
        down = mediants.descending_chain(base, i + 1)
        up = mediants.ascending_chain(base, j + 1)
        where = f"base {base.left},{base.right}"
        if down[i] - down[i + 1] != mediants.descending_step_gap(base, i):
            failures.append(f"descending step gap, {where}, i={i}")
        if down[i] - base.left != mediants.descending_tail_gap(base, i):
            failures.append(f"descending tail gap, {where}, i={i}")
        if up[j + 1] - up[j] != mediants.ascending_step_gap(base, j):
            failures.append(f"ascending step gap, {where}, j={j}")
        if base.right - up[j] != mediants.ascending_tail_gap(base, j):
            failures.append(f"ascending tail gap, {where}, j={j}")
    return checks, failures


def _compose_checks(instances: _Instances, oracles: _Answers) -> tuple[int, list[str], int]:
    # The heuristic's flag must agree with the checker, and a solution it
    # flags as satisfying can never beat the oracle's smallest q.  The third
    # value is the number of instances flagged as satisfied.
    satisfied = 0
    failures = []
    for idx, ((cs, eps), oracle) in enumerate(zip(instances, oracles)):
        composed = simultaneous.compose_solve(cs, eps)
        claimed = composed.satisfies_constraints
        satisfied += claimed
        verified = simultaneous.check_solution(cs, eps, composed.q, composed.ps).overall
        if claimed != verified:
            failures.append(f"instance {idx}: flag {claimed} but checker says {verified}")
        elif not claimed:
            continue
        elif not isinstance(oracle, simultaneous.Solution):
            failures.append(f"instance {idx}: compose satisfied but oracle found nothing")
        elif oracle.q > composed.q:
            failures.append(f"instance {idx}: oracle q {oracle.q} > compose q {composed.q}")
    return len(instances), failures, satisfied


def _fixed_instances() -> list[tuple[simultaneous.ConstraintSet, Fraction]]:
    # 20 deterministic feasible instances mixing exact rationals and 30-digit
    # stand-ins, n between 1 and 3, then 4 infeasible ones.
    standins = [parse_real(name, 30) - 1 for name in ("sqrt2", "sqrt3", "phi")]
    standins += [parse_real("sqrt5", 30) - 2, parse_real("pi", 30) - 3, parse_real("e", 30) - 2]
    pool = [
        Fraction(1, 3),
        Fraction(2, 7),
        Fraction(5, 16),
        Fraction(1, 2),
        Fraction(3, 8),
        Fraction(7, 9),
    ] + standins
    weights = [Fraction(1), Fraction(1, 2), Fraction(2)]
    epsilons = [Fraction(1, 8), Fraction(1, 16), Fraction(1, 32), Fraction(1, 64)]
    instances = []
    for k in range(20):
        n = 1 + k % 3
        items = []
        for j in range(n):
            x = pool[(k + 3 * j) % len(pool)]
            t = weights[(k + j) % len(weights)]
            items.append((x, t))
        instances.append((simultaneous.ConstraintSet(tuple(items)), epsilons[k % len(epsilons)]))
    half = Fraction(1, 2)
    for xs, eps in (
        ((Fraction(3, 7),), Fraction(1, 8)),
        ((standins[2], Fraction(2, 7)), Fraction(1, 16)),
        (standins[:3], Fraction(1, 32)),
        (standins[3:], Fraction(1, 16)),
    ):
        instances.append((simultaneous.ConstraintSet(tuple((x, half) for x in xs)), eps))
    return instances


def _fraction_scan(
    cs: simultaneous.ConstraintSet, eps: Fraction, max_scan: int = simultaneous.DEFAULT_MAX_SCAN
) -> tuple | None:
    # The oracle's answer by definition: the smallest q whose nearest
    # numerators pass the Fraction checker, trying every q in turn, at most
    # max_scan of them like the oracle.
    for q in range(1, min(math.floor(cs.t_min / eps), max_scan) + 1):
        ps = tuple(simultaneous.best_numerator(x, q) for x in cs.xs)
        if simultaneous.check_solution(cs, eps, q, ps).overall:
            return q, ps
    return None


def _oracle_checks(instances: _Instances, oracles: _Answers) -> tuple[int, list[str], int]:
    # Each oracle answer must be the Fraction scan's.  The third value is
    # the number of feasible instances.
    feasible = 0
    failures = []
    for idx, ((cs, eps), found) in enumerate(zip(instances, oracles)):
        expected = _fraction_scan(cs, eps)
        feasible += expected is not None
        got = (found.q, found.ps) if isinstance(found, simultaneous.Solution) else None
        if got != expected:
            failures.append(f"instance {idx}: oracle gives {got}, Fraction scan {expected}")
    return len(instances), failures, feasible


def _groups():
    # Each check group as (label, detail, checks run, failure lines).
    for order in _PROPERTY_ORDERS:
        yield f"farey properties order={order}", "4 properties", *_farey_property_checks([order])

    bases = [farey.FareyPair(Fraction(0), Fraction(1), 1)]
    seq = list(farey.farey_sequence(8))
    bases += [farey.FareyPair(a, b, 8) for a, b in zip(seq, seq[1:])]
    count, failures = _gap_identity_checks((b, i, i) for b in bases for i in _GAP_INDICES)
    yield "gap identities", f"{count} identities over {len(bases)} base pairs", count, failures

    instances = _fixed_instances()
    oracles = [simultaneous.brute_force_solve(cs, eps) for cs, eps in instances]
    count, failures, satisfied = _compose_checks(instances, oracles)
    yield "compose vs oracle", f"{count} instances, {satisfied} satisfied", count, failures

    count, failures, feasible = _oracle_checks(instances, oracles)
    yield "oracle vs Fraction scan", f"{count} instances, {feasible} feasible", count, failures

    # The sweep starts each point at the previous point's witness, which
    # the one-point oracle never does.
    points = feasible = 0
    failures = []
    for idx, (cs, eps) in enumerate(instances):
        report = simultaneous.epsilon_threshold(cs, (4 * eps, 2 * eps, eps))
        for g, witness in zip(report.grid, report.witnesses):
            points += 1
            feasible += witness is not None
            oracle = simultaneous.brute_force_solve(cs, g)
            if not isinstance(oracle, simultaneous.Solution):
                oracle = None
            if witness != oracle:
                got, expected = (None if w is None else w.q for w in (witness, oracle))
                failures.append(f"instance {idx}, eps {g}: sweep gives q {got}, oracle q {expected}")
    detail = f"{len(instances)} grids, {points} points, {feasible} feasible"
    yield "sweep vs oracle", detail, points, failures


def run_selftest() -> int:
    """Run all checks, print one line per group plus a summary; 0 iff clean."""
    checks = 0
    failures: list[str] = []
    for label, detail, count, group_failures in _groups():
        checks += count
        failures.extend(group_failures)
        print(f"{label}: {'FAIL' if group_failures else 'ok'} ({detail})")
    for line in failures:
        print(f"FAIL {line}")
    verdict = "all passed" if not failures else f"{len(failures)} failed"
    print(f"selftest: {checks} checks run, {verdict}")
    return 0 if not failures else 1
