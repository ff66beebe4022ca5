"""Packaged smoke test: property checks and solver cross-checks.

Everything here is deterministic (fixed instances, no clocks, no RNG), so
two runs produce byte-identical output.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import TextIO

from . import farey, mediants, simultaneous
from .rationals import parse_real

_PROPERTY_ORDERS = (1, 2, 25, 100)
_GAP_INDICES = (0, 1, 2, 5, 10)


def _gap_identity_failures(base: farey.FareyPair) -> list[str]:
    failures = []
    deepest = max(_GAP_INDICES) + 1
    down = mediants.descending_chain(base, deepest).terms
    up = mediants.ascending_chain(base, deepest).terms
    for i in _GAP_INDICES:
        if down[i] - down[i + 1] != mediants.descending_step_gap(base, i):
            failures.append(f"descending step gap, base {base.left},{base.right}, i={i}")
        if down[i] - base.left != mediants.descending_tail_gap(base, i):
            failures.append(f"descending tail gap, base {base.left},{base.right}, i={i}")
        if up[i + 1] - up[i] != mediants.ascending_step_gap(base, i):
            failures.append(f"ascending step gap, base {base.left},{base.right}, j={i}")
        if base.right - up[i] != mediants.ascending_tail_gap(base, i):
            failures.append(f"ascending tail gap, base {base.left},{base.right}, j={i}")
    return failures


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


def _fraction_scan(cs: simultaneous.ConstraintSet, eps: Fraction) -> tuple | None:
    # The oracle's answer by definition: the smallest q whose nearest
    # numerators pass the Fraction checker, trying every q in turn.
    for q in range(1, math.floor(cs.t_min / eps) + 1):
        ps = tuple(simultaneous.best_numerator(x, q) for x in cs.xs)
        if simultaneous.check_solution(cs, eps, q, ps).overall:
            return q, ps
    return None


def _groups():
    # Each check group as (label, detail, checks run, failure lines).
    for order in _PROPERTY_ORDERS:
        report = farey.verify_farey_properties(order)
        checks = list(report.checks())
        failures = [
            f"farey property {name} at order {order}: {check.counterexample}"
            for name, check in checks
            if not check.passed
        ]
        yield f"farey properties order={order}", "4 properties", len(checks), failures

    bases = [farey.FareyPair(Fraction(0), Fraction(1), 1)]
    seq = list(farey.farey_sequence(8))
    bases += [farey.FareyPair(a, b, 8) for a, b in zip(seq, seq[1:])]
    failures = [line for base in bases for line in _gap_identity_failures(base)]
    count = 4 * len(_GAP_INDICES) * len(bases)
    yield "gap identities", f"{count} identities over {len(bases)} base pairs", count, failures

    instances = _fixed_instances()
    oracles = [simultaneous.brute_force_solve(cs, eps) for cs, eps in instances]
    satisfied = 0
    failures = []
    for idx, ((cs, eps), oracle) in enumerate(zip(instances, oracles)):
        composed = simultaneous.compose_solve(cs, eps)
        if not composed.satisfies_constraints:
            continue
        satisfied += 1
        if not simultaneous.check_solution(cs, eps, composed.q, composed.ps).overall:
            failures.append(f"instance {idx}: satisfied flag not confirmed by checker")
        elif not isinstance(oracle, simultaneous.Solution):
            failures.append(f"instance {idx}: compose satisfied but oracle found nothing")
        elif oracle.q > composed.q:
            failures.append(f"instance {idx}: oracle q {oracle.q} > compose q {composed.q}")
    detail = f"{len(instances)} instances, {satisfied} satisfied"
    yield "compose vs oracle", detail, len(instances), failures

    feasible = 0
    failures = []
    for idx, ((cs, eps), found) in enumerate(zip(instances, oracles)):
        expected = _fraction_scan(cs, eps)
        feasible += expected is not None
        got = (found.q, found.ps) if isinstance(found, simultaneous.Solution) else None
        if got != expected:
            failures.append(f"instance {idx}: oracle gives {got}, Fraction scan {expected}")
    detail = f"{len(instances)} instances, {feasible} feasible"
    yield "oracle vs Fraction scan", detail, len(instances), failures


def run_selftest(stream: TextIO = sys.stdout) -> int:
    """Run all checks, print one line per group plus a summary; 0 iff clean."""
    checks = 0
    failures: list[str] = []
    for label, detail, count, group_failures in _groups():
        checks += count
        failures.extend(group_failures)
        stream.write(f"{label}: {'FAIL' if group_failures else 'ok'} ({detail})\n")
    for line in failures:
        stream.write(f"FAIL {line}\n")
    verdict = "all passed" if not failures else f"{len(failures)} failed"
    stream.write(f"selftest: {checks} checks run, {verdict}\n")
    return 0 if not failures else 1
