import math
import random
from fractions import Fraction as F

import pytest

import fareyapprox.mediants as mediants
from fareyapprox import (
    BudgetExceededError,
    FareyPair,
    InfeasibleError,
    InvalidInputError,
    ascending_chain,
    ascending_tail_gap,
    descending_chain,
    descending_step_gap,
    subdivide,
)
from fareyapprox.selftest import _gap_identity_checks
from oracles import consecutive_pairs, feasible_by_enumeration, subdivision_failures

UNIT = FareyPair(F(0), F(1), 1)
THIRD_HALF = FareyPair(F(1, 3), F(1, 2), 3)


def random_pair(rng, max_order=60):
    return rng.choice(consecutive_pairs(rng.randint(1, max_order)))


def test_descending_chain_examples():
    assert descending_chain(UNIT, 2) == (F(1), F(1, 2), F(1, 3))
    assert descending_chain(THIRD_HALF, 2) == (F(1, 2), F(2, 5), F(3, 8))
    five = FareyPair(F(0), F(1, 5), 5)
    assert descending_chain(five, 0) == (F(1, 5),)
    with pytest.raises(InvalidInputError, match="^chain length must be a nonnegative integer$"):
        descending_chain(five, -1)


def test_ascending_chain_examples():
    assert ascending_chain(UNIT, 2) == (F(0), F(1, 2), F(2, 3))
    assert ascending_chain(THIRD_HALF, 2) == (F(1, 3), F(2, 5), F(3, 7))
    half = FareyPair(F(0), F(1, 2), 2)
    assert ascending_chain(half, 1) == (F(0), F(1, 3))


def test_chain_metadata_and_monotonicity():
    down = descending_chain(THIRD_HALF, 6)
    up = ascending_chain(THIRD_HALF, 6)
    assert all(a > b for a, b in zip(down, down[1:]))
    assert all(a < b for a, b in zip(up, up[1:]))
    # descending terms stay inside (left, right]; ascending inside [left, right)
    assert all(THIRD_HALF.left < t <= THIRD_HALF.right for t in down)
    assert all(THIRD_HALF.left <= t < THIRD_HALF.right for t in up)


def test_chain_terms_follow_literal_formula_and_stay_reduced():
    rng = random.Random(606)
    for _ in range(50):
        base = random_pair(rng, max_order=40)
        h1, k1 = base.left.numerator, base.left.denominator
        h2, k2 = base.right.numerator, base.right.denominator
        down = descending_chain(base, 12)
        up = ascending_chain(base, 12)
        for i in range(13):
            assert down[i] == F(h2 + i * h1, k2 + i * k1)
            assert down[i].numerator == h2 + i * h1  # already coprime
            assert up[i] == F(h1 + i * h2, k1 + i * k2)
            assert up[i].numerator == h1 + i * h2
            assert math.gcd(abs(down[i].numerator), down[i].denominator) == 1


def test_gap_checks_read_the_ascending_index(monkeypatch):
    # A wrong ascending gap at j = 3 is caught at (base, i, j) = (UNIT, 0, 3) only.
    true_gap = mediants.ascending_step_gap
    monkeypatch.setattr(mediants, "ascending_step_gap", lambda base, j: true_gap(base, j) + (j == 3))
    assert _gap_identity_checks([(UNIT, 0, 3)]) == (4, ["ascending step gap, base 0,1, j=3"])
    assert _gap_identity_checks([(UNIT, 3, 0)]) == (4, [])


@pytest.mark.parametrize(
    "name, label",
    [
        ("descending_step_gap", "descending step gap, base 0,1, i=3"),
        ("descending_tail_gap", "descending tail gap, base 0,1, i=3"),
        ("ascending_step_gap", "ascending step gap, base 0,1, j=3"),
        ("ascending_tail_gap", "ascending tail gap, base 0,1, j=3"),
    ],
)
def test_gap_checks_report_each_broken_form_alone(monkeypatch, name, label):
    # One closed form wrong at index 3: the checks report it alone, by its
    # name and its own index (i for the descending forms, j for the
    # ascending ones), and a triple with that index on the other side
    # passes.
    true_gap = getattr(mediants, name)
    monkeypatch.setattr(mediants, name, lambda base, k: true_gap(base, k) + (k == 3))
    assert _gap_identity_checks([(UNIT, 3, 0), (UNIT, 0, 3)]) == (8, [label])


def test_gap_examples():
    assert descending_step_gap(UNIT, 0) == F(1, 2)
    assert descending_step_gap(THIRD_HALF, 1) == F(1, 40)
    assert ascending_tail_gap(THIRD_HALF, 0) == F(1, 6)


def test_gap_closed_forms_match_subtraction():
    rng = random.Random(707)
    triples = []
    for _ in range(60):
        base = random_pair(rng)
        triples += [(base, i, i) for i in rng.sample(range(51), 8) + [0, 50]]
    assert _gap_identity_checks(triples) == (4 * 600, [])


# --- subdivision -----------------------------------------------------------

def subdivision_points_for_length(base, p):
    # oracle helper: the points a chain of length p would produce
    left, right = base.left, base.right
    if base.right.denominator >= base.left.denominator:
        return (left,) + tuple(reversed(descending_chain(base, p)))
    return ascending_chain(base, p) + (right,)


def test_subdivide_endpoints_when_gap_already_small():
    assert subdivide(UNIT, F(1), 1).points == (F(0), F(1))
    # the pair gap 1/6 already meets the bound 1/5
    assert subdivide(THIRD_HALF, F(1, 5), 100).points == (F(1, 3), F(1, 2))


def test_subdivide_three_point_example():
    sub = subdivide(THIRD_HALF, F(1, 7), 100)
    assert sub.points == (F(1, 3), F(2, 5), F(1, 2))
    gaps = [b - a for a, b in zip(sub.points, sub.points[1:])]
    assert gaps == [F(1, 15), F(1, 10)]
    assert subdivision_failures(sub.points, THIRD_HALF, sub.gap_bound, sub.denom_bound) == []


def test_subdivide_infeasible_narrow_denominator_budget():
    base = FareyPair(F(0), F(1, 7), 7)
    with pytest.raises(InfeasibleError):
        subdivide(base, F(1, 100), 10)
    assert not feasible_by_enumeration(base, F(1, 100), 10)
    # The rung 1/2 meets the bound, but its denominator 2 is over the cap.
    with pytest.raises(InfeasibleError, match=r"^gap bound 1/2 needs a chain denominator of 2 > 1"):
        subdivide(UNIT, F(1, 2), 1)
    assert not feasible_by_enumeration(UNIT, F(1, 2), 1)


def test_subdivide_infeasible_endpoint_denominator():
    with pytest.raises(InfeasibleError):
        subdivide(THIRD_HALF, F(1, 7), 2)


def test_subdivide_unit_pair_floor_gap():
    # from 0/1 < 1/1 the rung next to the anchor is always 1/2 wide
    with pytest.raises(InfeasibleError):
        subdivide(UNIT, F(1, 3), 10**6)
    assert not feasible_by_enumeration(UNIT, F(1, 3), 4000)


def test_subdivide_point_budget():
    # feasible bound, but about a million chain points would be needed
    base = FareyPair(F(0), F(1, 1000), 1000)
    with pytest.raises(BudgetExceededError):
        subdivide(base, F(1, 1001000), 10**9, max_points=50)
    assert len(subdivide(base, F(1, 1001000), 10**9, max_points=10**7).points) == 10**6 + 2


def test_subdivide_messages_print_integers_of_any_length():
    # Denominators and bounds past the interpreter's digit limit (4300 by
    # default) are printed in full, not refused by str() with ValueError.
    n, zeros = 10**5000, "0" * 4998
    big = FareyPair(F(1, n), F(1, n - 1), n)
    with pytest.raises(InfeasibleError) as exc:
        subdivide(big, F(1, 7), 2)
    assert str(exc.value) == (
        f"endpoint denominators 1{zeros}00, {'9' * 5000} already exceed the bound 2"
    )
    base = FareyPair(F(0), F(1, n), n)
    with pytest.raises(InfeasibleError) as exc:
        subdivide(base, F(1, n + 10), n + 1)
    assert str(exc.value) == (
        f"gap bound 1/1{zeros}10 needs a chain denominator of 1{zeros}10 > 1{zeros}01"
    )
    with pytest.raises(BudgetExceededError) as exc:
        subdivide(base, F(1, n * n), n * n, max_points=n)
    assert str(exc.value) == (
        f"subdivision needs {'9' * 5000}{zeros}02 points, max_points=1{zeros}00"
    )


def test_subdivide_invalid_arguments():
    with pytest.raises(InvalidInputError):
        subdivide(THIRD_HALF, F(0), 10)
    with pytest.raises(InvalidInputError):
        subdivide(THIRD_HALF, F(-1, 5), 10)
    with pytest.raises(InvalidInputError):
        subdivide(THIRD_HALF, F(1, 7), 0)
    with pytest.raises(InvalidInputError):
        subdivide(THIRD_HALF, F(1, 7), 100, max_points=1)


def test_subdivide_randomized_against_enumeration():
    rng = random.Random(808)
    verdicts = {"ok": 0, "infeasible": 0}
    for _ in range(120):
        base = random_pair(rng, max_order=40)
        gap_bound = F(1, rng.randint(2, 300))
        denom_bound = rng.randint(
            max(base.left.denominator, base.right.denominator), 1500
        )
        try:
            sub = subdivide(base, gap_bound, denom_bound, max_points=100_000)
        except InfeasibleError:
            verdicts["infeasible"] += 1
            assert not feasible_by_enumeration(base, gap_bound, denom_bound)
        else:
            verdicts["ok"] += 1
            assert subdivision_failures(sub.points, base, sub.gap_bound, sub.denom_bound) == []
            assert feasible_by_enumeration(base, gap_bound, denom_bound)
    # the draw should exercise both outcomes
    assert verdicts["ok"] > 0 and verdicts["infeasible"] > 0


def test_subdivide_minimal_length():
    # the chosen chain is the shortest one meeting the bound
    rng = random.Random(909)
    for _ in range(40):
        base = random_pair(rng, max_order=30)
        gap_bound = F(1, rng.randint(2, 120))
        try:
            sub = subdivide(base, gap_bound, 10**6, max_points=100_000)
        except InfeasibleError:
            continue
        p = len(sub.points) - 2
        if p >= 1:
            shorter = subdivision_points_for_length(base, p - 1)
            gaps = [b - a for a, b in zip(shorter, shorter[1:])]
            assert max(gaps) > gap_bound
