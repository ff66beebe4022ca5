import contextlib
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fareyapprox.simultaneous as simultaneous
from fareyapprox import (
    DEFAULT_MAX_SCAN,
    BudgetExceededError,
    ConstraintSet,
    FareyPair,
    Infeasible,
    InvalidInputError,
    Solution,
    best_numerator,
    brute_force_solve,
    check_solution,
    compare,
    compose_solve,
    dirichlet_solve,
    epsilon_threshold,
    farey,
    farey_neighbors,
    nearest_int_distance,
    parse_real,
    subdivide,
)
from fareyapprox.cli import run
from fareyapprox.selftest import _compose_checks, _fraction_scan, _oracle_checks

SQRT2_50 = parse_real("sqrt2", 50)
PHI_50 = parse_real("phi", 50)


def cs(*pairs):
    return ConstraintSet(tuple(pairs))


def random_constraints(rng, max_n=3, standins=()):
    n = rng.randint(1, max_n)
    items = []
    for _ in range(n):
        if standins and rng.random() < 0.4:
            x = rng.choice(standins)
        else:
            x = F(rng.randint(-30, 30), rng.randint(1, 40))
        t = rng.choice([F(1, 2), F(1), F(2)])
        items.append((x, t))
    return ConstraintSet(tuple(items))


def test_constraint_set_validation():
    with pytest.raises(InvalidInputError):
        ConstraintSet(())
    with pytest.raises(InvalidInputError):
        cs((F(1, 2), F(0)))
    with pytest.raises(InvalidInputError):
        cs((F(1, 2), F(-1)))
    c = cs((F(1, 3), F(2)), (F(2, 3), F(1, 2)))
    assert c.n == 2
    assert c.t_min == F(1, 2)
    assert c.xs == (F(1, 3), F(2, 3))


class _FractionSubclass(F):
    pass


# What each public entry keeps of a number it is given at 1/2 or 1, read
# back off its answer.
INTAKES = {
    "ConstraintSet": lambda v: ConstraintSet(((v, v),)).items[0],
    "farey_neighbors": lambda v: (farey_neighbors(v, 2).value,),
    "subdivide": lambda v: (subdivide(FareyPair(F(0), F(1), 1), v, 2).gap_bound,),
    "brute_force_solve": lambda v: (brute_force_solve(cs((F(1, 3), F(1))), v).epsilon,),
    "epsilon_threshold": lambda v: epsilon_threshold(cs((F(1, 3), F(1))), (v,)).grid,
    "compare": lambda v: (compare(cs((F(1, 3), F(1))), v, 2).epsilon,),
}


@pytest.mark.parametrize("entry", sorted(INTAKES))
def test_entries_pass_an_exact_fraction_through_and_convert_the_rest(entry):
    # rationals._as_fraction: an exact Fraction is kept as the same object;
    # an int, a str and a Fraction subclass become plain Fractions.
    take = INTAKES[entry]
    half = F(1, 2)
    assert all(kept is half for kept in take(half))
    for given, value in ((1, F(1)), ("1/2", half), (_FractionSubclass(1, 2), half)):
        assert all(type(kept) is F and kept == value for kept in take(given))


@pytest.mark.parametrize(
    "argv",
    [["neighbors", "--x", "2/7", "--order", "5"], ["solve", "--epsilon", "1/10", "--input", "items.txt"]],
)
def test_cli_calls_copy_no_exact_fraction(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "items.txt").write_text("1/3 1\n2/3 1\nsqrt2 1/2\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    new = F.__new__
    copies = []

    def counting_new(cls, numerator=0, denominator=None, **kwargs):
        if type(numerator) is F and denominator is None:
            copies.append(numerator)
        return new(cls, numerator, denominator, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    assert run(argv) == 0
    monkeypatch.undo()
    assert capsys.readouterr().err == ""
    assert copies == []


def test_check_solution_examples():
    assert check_solution(cs((F(1, 2), F(1))), F(1, 4), 2, [1]).overall
    report = check_solution(cs((F(1, 2), F(1))), F(1, 4), 5, [2])
    assert not report.denom_ok and not report.overall
    report = check_solution(cs((F(1, 3), F(1)), (F(2, 3), F(1))), F(1, 5), 2, [1, 1])
    assert report.overall
    assert [item.exact_error for item in report.per_item] == [F(1, 6), F(1, 6)]
    assert [item.bound for item in report.per_item] == [F(1, 5), F(1, 5)]


def test_check_solution_denominator_form_equivalence():
    rng = random.Random(111)
    for _ in range(100):
        c = random_constraints(rng)
        eps = F(1, rng.randint(1, 40))
        q = rng.randint(1, 50)
        ps = [best_numerator(x, q) for x in c.xs]
        report = check_solution(c, eps, q, ps)
        assert report.denom_ok == all(eps * q <= t for _, t in c.items)


def test_check_solution_strict_mode():
    # Error exactly equal to the bound: accepted, as in the non-strict (*);
    # a strict test reads exact_error < bound off per_item.
    c = cs((F(1, 4), F(1)),)
    report = check_solution(c, F(1, 4), 1, [0])
    assert report.overall
    assert report.per_item[0].exact_error == report.per_item[0].bound == F(1, 4)


def test_check_solution_length_mismatch():
    with pytest.raises(InvalidInputError):
        check_solution(cs((F(1, 2), F(1))), F(1, 4), 2, [1, 1])


@pytest.mark.parametrize(
    "call",
    [
        lambda c, eps: brute_force_solve(c, eps),
        lambda c, eps: compose_solve(c, eps),
        lambda c, eps: compare(c, eps, 4),
        lambda c, eps: check_solution(c, eps, 1, [0]),
    ],
)
@pytest.mark.parametrize("eps", [F(0), F(-1, 4)])
def test_library_rejects_nonpositive_epsilon(call, eps):
    # The CLI checks epsilon before any of these runs, so only a library
    # caller reaches their own checks.
    with pytest.raises(InvalidInputError, match="epsilon must be positive"):
        call(cs((F(1, 2), F(1))), eps)


_EMPTY_RANGE = "denominator range empty: floor(t_min/epsilon) = 0"
_NO_BUDGET = "T**n - 1 = 3 exceeds scan budget 0"


@pytest.mark.parametrize(
    "call, zero_budget",
    [
        (lambda c, m: brute_force_solve(c, F(2), max_scan=m), Infeasible(_EMPTY_RANGE)),
        (lambda c, m: epsilon_threshold(c, [F(2)], max_scan=m).feasible, (False,)),
        (lambda c, m: dirichlet_solve(c.xs, 4, max_scan=m), BudgetExceededError(_NO_BUDGET)),
        (lambda c, m: compare(c, F(2), 4, max_scan=m), BudgetExceededError(_NO_BUDGET)),
    ],
)
def test_library_rejects_negative_budget(call, zero_budget):
    # The CLI refuses FAREY_APPROX_MAX_SCAN < 1, so only a library caller
    # reaches these checks.  A budget that is not an int is refused too,
    # before it can be printed as a count or miss an int method.  A budget
    # of 0 stays valid: it decides an empty range and stops any scan
    # before its first q.
    c = cs((F(1, 3), F(1)))
    for bad in (-1, 2.5, F(5), "10", None):
        with pytest.raises(InvalidInputError, match="^max_scan must be a nonnegative integer$"):
            call(c, bad)
    if isinstance(zero_budget, Exception):
        with pytest.raises(type(zero_budget), match=f"^{re.escape(str(zero_budget))}$"):
            call(c, 0)
    else:
        assert call(c, 0) == zero_budget


def test_library_rejects_zero_denominator():
    with pytest.raises(InvalidInputError, match="q must be a positive integer"):
        check_solution(cs((F(1, 2), F(1))), F(1, 4), 0, [0])
    with pytest.raises(InvalidInputError, match="denominator must be a positive integer"):
        best_numerator(F(1, 2), 0)


@pytest.mark.parametrize("bad", [1.0, "1", F(1, 2)])
def test_check_solution_rejects_non_integer_numerators(bad):
    # A numerator is an integer as q is: a float or a string would raise a
    # bare TypeError in the exact errors, and a Fraction would get a verdict.
    with pytest.raises(InvalidInputError, match="^numerators must be integers$"):
        check_solution(cs((F(1, 3), F(1)), (F(1, 2), F(1))), F(1, 4), 2, [1, bad])


def test_best_numerator_examples():
    assert best_numerator(F(1, 3), 2) == 1
    assert best_numerator(F(1, 2), 3) == 1  # tie between 1 and 2 -> smaller
    assert best_numerator(F(-1, 3), 2) == -1


def test_best_numerator_optimality():
    rng = random.Random(222)
    for _ in range(300):
        x = F(rng.randint(-200, 200), rng.randint(1, 60))
        q = rng.randint(1, 40)
        p = best_numerator(x, q)
        err = abs(x - F(p, q))
        assert err == nearest_int_distance(q * x) / q
        for other in range(p - 2, p + 3):
            assert err <= abs(x - F(other, q))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**4)),
            st.one_of(st.integers(-2, 2), st.integers(-10**9, 10**9)),
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(1, 10**4),
)
def test_exact_errors_equal_fraction_subtraction(items, q):
    # check_solution uses _exact_errors, and selftest's Fraction scan, the
    # reference of the sweep and oracle tests, uses check_solution, so the
    # errors are checked here against plain Fraction arithmetic: p is the
    # nearest numerator, one near it, or one far off.
    xs = [x for x, _ in items]
    ps = [best_numerator(x, q) + offset for x, offset in items]
    assert simultaneous._exact_errors(xs, q, ps) == tuple(
        abs(x - F(p, q)) for x, p in zip(xs, ps)
    )


def test_brute_force_examples():
    sol = brute_force_solve(cs((F(1, 2), F(1))), F(3, 10))
    assert (sol.q, sol.ps, sol.errors) == (2, (1,), (F(0),))
    sol = brute_force_solve(cs((F(1, 3), F(1)), (F(2, 3), F(1))), F(1, 5))
    assert (sol.q, sol.ps) == (2, (1, 1))
    sol = brute_force_solve(cs((F(1, 3), F(1)), (F(2, 3), F(1))), F(1, 10))
    assert (sol.q, sol.ps, sol.errors) == (3, (1, 2), (F(0), F(0)))
    assert sol.method == "brute"


def test_brute_force_infeasible():
    result = brute_force_solve(cs((F(3, 7), F(1, 2))), F(1, 8))
    assert isinstance(result, Infeasible)
    result = brute_force_solve(cs((F(1, 3), F(1))), F(2))
    assert isinstance(result, Infeasible)
    assert "empty" in result.reason


def test_brute_force_minimality_and_soundness():
    # Each answer, feasible or not, is the smallest q that passes the
    # independent checker; the recorded errors match recomputation.
    rng = random.Random(333)
    standins = (SQRT2_50, PHI_50, parse_real("e", 50))
    instances = [
        (random_constraints(rng, standins=standins), F(1, rng.randint(2, 64))) for _ in range(60)
    ]
    results = [brute_force_solve(c, eps) for c, eps in instances]
    count, failures, solved = _oracle_checks(instances, results)
    assert (count, failures) == (60, []) and solved > 10
    for (c, _), result in zip(instances, results):
        if isinstance(result, Solution):
            assert result.errors == tuple(abs(x - F(p, result.q)) for x, p in zip(c.xs, result.ps))


def test_brute_force_budget():
    # q_max is 1000 but the budget stops after 5; nothing small works
    with pytest.raises(BudgetExceededError, match=r"^scan budget exhausted after 5 of 1000 "):
        brute_force_solve(cs((SQRT2_50, F(1))), F(1, 1000), max_scan=5)
    # a solution within the budget is still found even if q_max is beyond it
    sol = brute_force_solve(cs((F(1, 2), F(1))), F(1, 1000), max_scan=5)
    assert sol.q == 2


def test_compose_single_exact_item():
    sol = compose_solve(cs((F(1, 2), F(1))), F(1, 4))
    assert (sol.q, sol.ps) == (2, (1,))
    assert sol.method == "compose"
    assert sol.satisfies_constraints is True


def test_compose_two_stage_product():
    sol = compose_solve(cs((F(1, 3), F(1)), (F(1, 7), F(1))), F(1, 10))
    assert sol.q == 21  # 3 * 7, both stages exact
    assert sol.errors == (F(0), F(0))
    # exact but too coarse a scale: epsilon*q = 21/10 > 1
    assert sol.satisfies_constraints is False
    assert not check_solution(cs((F(1, 3), F(1)), (F(1, 7), F(1))), F(1, 10), sol.q, sol.ps).overall


@pytest.mark.parametrize("y, expected", [(F(5, 12), (1, 3)), (F(89, 12), (22, 3)), (F(-7, 12), (-2, 3))])
def test_compose_stage_tie_goes_to_the_smaller_end(y, expected):
    # frac(y) = 5/12 lies midway between 1/3 and 1/2, its neighbours in
    # F_3, so each stage takes the smaller end, shifted back by floor(y).
    assert simultaneous._best_at_order(y, 3) == expected


def test_compose_standin_bracketing():
    c = cs((SQRT2_50, F(1)),)
    sol = compose_solve(c, F(1, 100))
    assert sol.q <= 100  # single stage at order ceil(1/eps)
    assert sol.satisfies_constraints == check_solution(c, F(1, 100), sol.q, sol.ps).overall


def test_compose_flag_always_matches_checker():
    rng = random.Random(444)
    standins = (SQRT2_50, PHI_50)
    instances = [
        (random_constraints(rng, standins=standins), F(1, rng.randint(2, 64))) for _ in range(60)
    ]
    oracles = [brute_force_solve(c, eps) for c, eps in instances]
    count, failures, _ = _compose_checks(instances, oracles)
    assert (count, failures) == (60, [])


def test_compose_checks_catch_a_wrong_oracle():
    # compose satisfies 1/2 at eps = 1/4 with q = 2, which no oracle can beat
    wrong = [Infeasible("none"), Solution(3, (2,), (F(1, 6),), F(1, 4), "brute")]
    assert _compose_checks([(cs((F(1, 2), F(1))), F(1, 4))] * 2, wrong)[1] == [
        "instance 0: compose satisfied but oracle found nothing",
        "instance 1: oracle q 3 > compose q 2",
    ]


def test_compose_denominator_cap():
    message = (
        "^stage denominator 32507989518269885699489767464987 exceeds cap "
        "1000000000000000000000000000000$"
    )
    with pytest.raises(BudgetExceededError, match=message):
        compose_solve(cs((SQRT2_50, F(1)), (PHI_50, F(1))), F(1, 10**16))


def test_compose_caps_its_first_stage():
    # Stage 1 is a stage like the others: sqrt2 alone at eps = 10**-40
    # needs a 40-digit q_1, past the cap.
    message = (
        "^stage denominator 5494168403412088213319314492946575384825 exceeds cap "
        "1000000000000000000000000000000$"
    )
    with pytest.raises(BudgetExceededError, match=message):
        compose_solve(cs((parse_real("sqrt2", 80), F(1))), F(1, 10**40))


def test_dirichlet_examples():
    sol = dirichlet_solve([PHI_50 - 1], 3)
    assert (sol.q, sol.ps) == (2, (1,))
    assert sol.errors[0] <= F(1, 6)
    sol = dirichlet_solve([F(1, 2)], 2)
    assert (sol.q, sol.ps) == (1, (0,))  # boundary 1/2 <= 1/2, tie -> p = 0
    sol = dirichlet_solve([F(1, 3), F(1, 7)], 2)
    assert sol.q == 1  # bound 1/2 is vacuous
    assert sol.method == "dirichlet"
    assert sol.epsilon == F(1, 2)


def test_dirichlet_guarantee():
    rng = random.Random(555)
    standins = (SQRT2_50, PHI_50, parse_real("sqrt3", 50), parse_real("pi", 50))
    for _ in range(40):
        n = rng.randint(1, 3)
        xs = [
            rng.choice(standins) if rng.random() < 0.5 else F(rng.randint(0, 40), rng.randint(1, 40))
            for _ in range(n)
        ]
        T = rng.randint(2, 20)
        sol = dirichlet_solve(xs, T)
        assert 1 <= sol.q < T**n
        for x, err in zip(xs, sol.errors):
            assert nearest_int_distance(sol.q * x) <= F(1, T)
            assert err <= F(1, T * sol.q)


def test_dirichlet_validation_and_budget():
    with pytest.raises(InvalidInputError):
        dirichlet_solve([], 3)
    with pytest.raises(InvalidInputError):
        dirichlet_solve([F(1, 2)], 1)
    # 2 * (bit_length(20) - 1) = 8 bits already put 20**2 - 1 past the
    # budget; the message still gives the exact count.
    with pytest.raises(BudgetExceededError, match=r"^T\*\*n - 1 = 399 exceeds scan budget 10$"):
        dirichlet_solve([SQRT2_50, PHI_50], 20, max_scan=10)


def window_targets():
    # Denominators 1..3 and target 0 are the corner cases.
    denominators = st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 400), st.integers(1, 10**15))
    return denominators.flatmap(lambda xd: st.builds(F, st.integers(-3 * xd, 3 * xd), st.just(xd)))


@st.composite
def walk_bounds(draw, x):
    # The window runs from a single residue (C = 0) to the whole circle.
    # lo runs up to 10**12, so a walk that stepped up from q = 0 would not
    # finish.  A slope a >= 1 also draws c = -1, the strict bound of a
    # record walk.
    lo = draw(st.one_of(st.integers(1, 1501), st.integers(1, 10**12)))
    hi = draw(st.integers(lo - 1, lo + 1500))
    if draw(st.booleans()):
        c = draw(st.one_of(st.integers(0, 3), st.integers(0, x.denominator)))
        bound = (0, c, 1)
    else:
        bn = draw(st.integers(0, 4))
        bd = draw(st.one_of(st.integers(1, 4000), st.integers(1, 4 * 10**15)))
        c = draw(st.sampled_from([0, -1])) if bn else 0
        bound = (bn * x.denominator, c, bd)
    return lo, hi, bound


@st.composite
def window_walks(draw):
    x = draw(window_targets())
    lo, hi, bound = draw(walk_bounds(x))
    return x.numerator, x.denominator, lo, hi, bound


def linear_fits(xn, xd, lo, hi, a, c, den):
    # Every q in lo..hi that passes the exact test d*den <= a*q + c, with
    # d = xd * ||q*xn/xd||.
    return [q for q in range(lo, hi + 1) if min(xn * q % xd, -xn * q % xd) * den <= a * q + c]


def walk_for(items, top):
    # The walk of _plan's scans for q up to top: the first item's and the
    # pivot's convergents (each target itself when its denominator is at
    # most top) and the descent on the pivot's.
    return simultaneous._walk(items, top)


def listed_fits(items, lo, hi, walk):
    # Every q in lo..hi that fits the items, each found by a scan that
    # starts just past the fit before, as a record walk runs them.
    fits = []
    q = simultaneous._first_fit(items, lo, hi, walk)
    while q is not None:
        fits.append(q)
        q = simultaneous._first_fit(items, q + 1, hi, walk)
    return fits


@settings(max_examples=400, deadline=None)
@given(window_walks())
def test_window_hits_equal_linear_filter(walk):
    # A one-item scan walks the item's own window: the scans listing every
    # fit of lo..hi miss none that a linear scan finds.
    xn, xd, lo, hi, (a, c, den) = walk
    expected = linear_fits(xn, xd, lo, hi, a, c, den)
    item = (xn, xd, a, c, den)
    assert listed_fits([item], lo, hi, walk_for([item], hi)) == expected


def per_block_steps(xn, xd, w):
    # The descent from the root, as a block would run it without a shared
    # path.  Returns (q1, u, q2, v) and its number of batched steps.
    q1, u, q2, v = 1, xn % xd, 1, -xn % xd
    count = 0
    while u >= w or v >= w:
        count += 1
        if u > v:
            j = min((u - 1) // v, (u - w) // v + 1)
            q1, u = q1 + j * q2, u - j * v
        elif v > u:
            j = min((v - 1) // u, (v - w) // u + 1)
            q2, v = q2 + j * q1, v - j * u
        else:
            q1 = q2 = q1 + q2
            u = v = 0
    return (q1, u, q2, v), count


STANDINS_64 = tuple(parse_real(name, 64) for name in ("sqrt2", "sqrt3", "phi", "e", "pi"))


@st.composite
def shared_descents(draw):
    # Any reduced xn/xd, integers included; a window w >= xd, one that
    # covers every residue, gives the root.  Windows are drawn by bit
    # length, so 64-digit stand-ins get deep ones too, in any order.
    x = draw(st.one_of(
        st.integers(1, 400).flatmap(
            lambda xd: st.builds(F, st.integers(-3 * xd, 3 * xd), st.just(xd))
        ),
        st.sampled_from(STANDINS_64 + tuple(-x for x in STANDINS_64)),
    ))
    xd = x.denominator
    window = st.one_of(
        st.sampled_from([1, 2, max(xd - 1, 1), xd, xd + 1]),
        st.integers(1, xd.bit_length()).flatmap(lambda b: st.integers(1 << (b - 1), 1 << b)),
    )
    return x.numerator, xd, draw(st.lists(window, min_size=1, max_size=12))


_SQRT2 = STANDINS_64[0]


@settings(max_examples=300, deadline=None)
@given(shared_descents())
@example((_SQRT2.numerator, _SQRT2.denominator, [1, 10**40, 1, 2, 10**63, _SQRT2.denominator]))
def test_shared_descent_equals_per_block_descent(case):
    # One path serves every window, deep then shallow or the other way:
    # each gets the steps a descent from the root gives, and the path ends
    # at the first level whose smaller residue is below the narrowest
    # window so far.
    xn, xd, windows = case
    path = simultaneous._descent(xn, xd)
    for k, w in enumerate(windows):
        expected, _ = per_block_steps(xn, xd, w)
        assert simultaneous._steps(path, w) == expected
        narrowest = min(windows[: k + 1])
        keys = [-level[0] for level in path]
        assert keys[-1] < narrowest and all(key >= narrowest for key in keys[:-1])


@st.composite
def step_windows(draw):
    # Any reduced xn/xd, integers included, and any window 1 <= w <= xd + 1,
    # drawn by bit length so that the 64-digit stand-ins get narrow windows
    # too.
    x = draw(st.one_of(
        st.integers(1, 10**12).flatmap(
            lambda xd: st.builds(F, st.integers(-3 * xd, 3 * xd), st.just(xd))
        ),
        st.sampled_from(STANDINS_64 + tuple(-x for x in STANDINS_64)),
    ))
    xd = x.denominator
    w = draw(st.one_of(
        st.sampled_from([1, 2, max(xd - 1, 1), xd, xd + 1]),
        st.integers(1, (xd + 1).bit_length()).flatmap(
            lambda b: st.integers(1 << (b - 1), min(1 << b, xd + 1))
        ),
    ))
    return x.numerator, xd, w


@settings(max_examples=400, deadline=None)
@given(step_windows())
@example((_SQRT2.numerator, _SQRT2.denominator, 10**40))
def test_steps_are_the_first_hits_either_way(case):
    # q1 is the first q >= 1 whose residue xn*q mod xd moves forward by
    # u < w, q2 the first whose residue moves back by v < w: each is a
    # first hit of the window, found by the Euclidean search on its own.
    xn, xd, w = case
    q1 = 1 + simultaneous._first_in_window(xn, xn, xd, w)
    q2 = 1 + simultaneous._first_in_window(-xn, -xn, xd, w)
    expected = (q1, xn * q1 % xd, q2, -xn * q2 % xd)
    assert simultaneous._steps(simultaneous._descent(xn, xd), w) == expected


@st.composite
def shared_walks(draw):
    x = draw(st.one_of(window_targets(), st.sampled_from(STANDINS_64)))
    return x.numerator, x.denominator, draw(st.lists(walk_bounds(x), min_size=2, max_size=5))


@settings(max_examples=200, deadline=None)
@given(shared_walks())
def test_walks_sharing_a_descent_equal_linear_filter(case):
    # Scans of one target, each with its own bound and lo, as a sweep's
    # points make them, read their steps off one walk, built for the
    # largest hi.
    xn, xd, walks = case
    walk = walk_for([(xn, xd)], max(hi for _, hi, _ in walks))
    for lo, hi, (a, c, den) in walks:
        expected = linear_fits(xn, xd, lo, hi, a, c, den)
        assert listed_fits([(xn, xd, a, c, den)], lo, hi, walk) == expected


_SMALL_OR_FAR = st.one_of(
    st.integers(1, 300),
    st.integers(1, 40).flatmap(lambda k: st.integers(max(1, (1 << k) - 8), 1 << k)),
)


@st.composite
def fit_scans(draw, los=_SMALL_OR_FAR, span=400):
    # Small even denominators give exact ties, 2*d == xd, where the
    # numerator goes to the smaller p, and 64-digit stand-ins give long
    # remainders.  Each item is drawn on its own, so they come in any
    # order, as the pivot order puts them, with oracle-style bounds (a > 0,
    # and c = 0 or c = -1, the strict bound of a record walk) or
    # Dirichlet-style ones (a = 0, c > 0).  lo > 1 is where a sweep point
    # starts, and a lo up to 2**40 starts the walk far above q = 0.  The
    # pivot's blocks are about sqrt(8*den*xd/a) long: a den from 1 makes
    # them as short as 2, so a range crosses many block ends, where the
    # windows widen, and a den up to 64*(hi + 1) keeps some windows narrow
    # at every q.
    lo = draw(los)
    hi = draw(st.integers(lo - 1, lo + span))
    n = draw(st.integers(1, 4))
    oracle = draw(st.booleans())
    items = []
    for _ in range(n):
        xd = draw(st.one_of(st.sampled_from([2, 4, 6, 8]), st.integers(1, 60)))
        x = draw(st.one_of(
            st.builds(F, st.integers(-3 * xd, 3 * xd), st.just(xd)),
            st.sampled_from(STANDINS_64),
        ))
        xn, xd = x.numerator, x.denominator
        if oracle:
            den = draw(st.one_of(st.integers(1, 400), st.integers(1, 64 * (hi + 1))))
            bound = (draw(st.integers(1, 4)) * xd, draw(st.sampled_from([0, -1])), den)
        else:
            bound = (0, draw(st.integers(1, 2 * xd)), draw(st.integers(1, 12)))
        items.append((xn, xd, *bound))
    return items, lo, hi


@settings(max_examples=400, deadline=None)
@given(fit_scans())
def test_first_fit_equals_linear_scan(scan):
    # The reference takes the nearest numerator of each item, ties to the
    # smaller p, and its integer test d*den <= a*q + c, at every q.  The
    # numerators of the q found are _solution's, pinned by the Dirichlet
    # and oracle-vs-Fraction-scan tests.
    items, lo, hi = scan
    expected = next(
        (
            q
            for q in range(lo, hi + 1)
            if all(
                abs(xn * q - best_numerator(F(xn, xd), q) * xd) * den <= a * q + c
                for xn, xd, a, c, den in items
            )
        ),
        None,
    )
    assert simultaneous._first_fit(items, lo, hi, walk_for(items, hi)) == expected


def first_linear_fit(items, lo, hi):
    # The exact integer test at every q of lo..hi; d is the same for
    # either nearest numerator.
    return next(
        (
            q
            for q in range(lo, hi + 1)
            if all(min(xn * q % xd, -xn * q % xd) * den <= a * q + c for xn, xd, a, c, den in items)
        ),
        None,
    )


@settings(max_examples=150, deadline=None)
@given(fit_scans(st.integers(1, 10**6), 20_000))
def test_first_fit_equals_linear_scan_up_to_a_million(scan):
    # lo up to 10**6 and ranges up to 20,000 long: the blocks run from
    # lo + 1, and at such q a block with a narrow window is thousands long.
    items, lo, hi = scan
    expected = first_linear_fit(items, lo, hi)
    assert simultaneous._first_fit(items, lo, hi, walk_for(items, hi)) == expected


# Within 10**-60 of p/q, so the partial quotient after p/q is about 10**60
# and the first convergent with denominator >= top is near 10**60 / q.
NEAR_RATIONALS = tuple(F(p, q) + s * F(1, 10**60) for p, q in [(1, 2), (2, 3), (5, 7)] for s in (1, -1))


@st.composite
def widened_walks(draw):
    # One walk built for top serves scans whose hi is any value up to top.
    # Targets: 64-digit stand-ins, near-rationals, rationals with xd <= top
    # (the walk is on the target itself) and with xd above top.  Bounds:
    # oracle-style slopes with c = 0 or c = -1, whose den up to 64*top
    # keeps the windows a few residues wide, or fixed windows (a = 0), as
    # Dirichlet's ||q*x|| <= 1/T with T up to top, where a fit can lie at
    # the edge of every item's window.
    top = draw(st.one_of(st.integers(1, 40), st.integers(1, 3000)))
    target = st.one_of(
        st.sampled_from(STANDINS_64 + NEAR_RATIONALS),
        st.integers(1, top).flatmap(lambda xd: st.builds(F, st.integers(-3 * xd, 3 * xd), st.just(xd))),
        st.integers(top + 1, 10**9).flatmap(lambda xd: st.builds(F, st.integers(-3 * xd, 3 * xd), st.just(xd))),
    )
    items = []
    for _ in range(draw(st.integers(1, 3))):
        x = draw(target)
        xn, xd = x.numerator, x.denominator
        if draw(st.booleans()):
            den = draw(st.integers(1, 64 * top))
            bound = (draw(st.integers(1, 4)) * xd, draw(st.sampled_from([0, -1])), den)
        else:
            bound = (0, xd, draw(st.one_of(st.integers(1, 12), st.integers(1, top))))
        items.append((xn, xd, *bound))
    scans = []
    for hi in draw(st.lists(st.integers(0, top), min_size=1, max_size=4)):
        scans.append((draw(st.integers(1, max(hi, 1))), hi))
    return items, top, scans


@settings(max_examples=300, deadline=None)
@given(widened_walks())
# The pivot, 10**-60 above 1/2 and under a strict bound, has its first
# convergent past top = 3000 at a denominator near 5*10**59, so the walk's
# residues are nearly as long as the target's; the first item is sqrt2.
@example((
    [
        (_SQRT2.numerator, _SQRT2.denominator, _SQRT2.denominator, 0, 9000),
        (NEAR_RATIONALS[0].numerator, NEAR_RATIONALS[0].denominator, NEAR_RATIONALS[0].denominator, -1, 3000),
    ],
    3000,
    [(1, 3000), (1500, 2999), (2, 2)],
))
# One item, so it is the pivot and the first item: q = 3 fits ||q*x|| <=
# 1/8, and on x's convergent 3/8 for top = 4 its distance is 1, past the
# unwidened window 8*h // xd = 0 of h = xd // 8.
@example(([(1028965, 2829647, 0, 2829647, 8)], 4, [(1, 3)]))
# ||q*x|| <= 1/4 for x = 97/348 is h = 87, and b*h/xd = 4*87/348 = 1 on the
# convergent 1/4 for top = 4: the ceiling leaves the window at 1, and the
# fit q = 3, at distance 57 from x's and 1 from 1/4's multiples, lies on
# its edge.
@example(([(97, 348, 0, 87, 1)], 4, [(1, 4)]))
def test_widened_walk_equals_linear_scan_below_its_top(case):
    # The walk runs on convergents whose windows are rounded up to the next
    # step of 1/b, which holds every fit for q <= top: a scan with any
    # hi <= top finds what a linear scan of the exact test finds.
    items, top, scans = case
    walk = walk_for(items, top)
    for lo, hi in scans:
        assert simultaneous._first_fit(items, lo, hi, walk) == first_linear_fit(items, lo, hi)


@st.composite
def multi_block_scans(draw):
    # Ranges that cross from none to some tens of block ends past lo (a
    # block is about sqrt(8*den/m) long for the pivot's den and a = m*xd
    # below), with oracle-style bounds (c = 0 or -1), so the first item's
    # carried residue is re-seeded at each block.  The first item is a
    # 64-digit stand-in or a small rational, whose window can be a single
    # residue (fh = 0) or cover every residue (2*fh + 1 >= xd), the two
    # edges of its shifted-residue rule.  The pivot, last, is a stand-in
    # too or a small rational whose window can cover every residue (the
    # walk then steps by 1).
    lo = draw(st.integers(1, 2000))
    hi = draw(st.integers(2 * lo, 8 * lo))
    first = draw(st.one_of(
        st.sampled_from(STANDINS_64 + tuple(-x for x in STANDINS_64)),
        st.integers(1, 60).flatmap(lambda xd: st.builds(F, st.integers(-3 * xd, 3 * xd), st.just(xd))),
    ))
    middle = draw(st.lists(st.one_of(
        st.sampled_from(STANDINS_64),
        st.integers(1, 10**6).flatmap(lambda xd: st.builds(F, st.integers(-3 * xd, 3 * xd), st.just(xd))),
    ), max_size=2))
    pivot = draw(st.one_of(
        st.sampled_from(STANDINS_64),
        st.integers(1, 60).flatmap(lambda xd: st.builds(F, st.integers(-3 * xd, 3 * xd), st.just(xd))),
    ))
    # den is hi * 2**j plus up to hi more, with j drawn uniformly, so at hi
    # the pivot's window covers from about 1/5 of the residues to all of
    # them, the first item's from 1/256 (a single residue for a small xd)
    # and the others' from 1/1024: the walk offers many hits per block, and
    # a fit can be rare.
    shifts = [draw(st.sampled_from(range(10))), *[draw(st.sampled_from(range(12))) for _ in middle]]
    shifts.append(draw(st.sampled_from(range(4))))
    dens = [(hi << j) + draw(st.integers(0, hi)) for j in shifts]
    items = []
    for x, den in zip([first, *middle, pivot], dens):
        xn, xd = x.numerator, x.denominator
        items.append((xn, xd, draw(st.integers(1, 4)) * xd, draw(st.sampled_from([0, -1])), den))
    return items, lo, hi


def block_ends(items, lo, hi):
    # The blocks of _first_fit's walk: from lo + 1, equal lengths
    # isqrt(K*den*xd // a) + 1 of the pivot's bound, K = _BLOCK_EXCESS,
    # the last cut at hi; one block when the pivot's window is fixed.
    xd, a, den = items[-1][1], items[-1][2], items[-1][4]
    size = math.isqrt(simultaneous._BLOCK_EXCESS * den * xd // a) + 1 if a else hi - lo + 1
    return [min(first + size - 1, hi) for first in range(lo + 1, hi + 1, size)]


def walked_hits(items, lo, hi):
    # The q a walk built for top = hi puts through the exact test, found by
    # looking at every q: lo, then block by block each q past the last hit
    # so far (q = 0 hits every window) that hits the block's pivot window
    # and the first item's window, each taken at the block's end on the
    # item's convergent of the walk, d/e, and rounded up to ceil(e*h/xd),
    # which is h when d/e is the item's target, up to the first q that
    # fits every item.
    pn, pd, _, fn, fd = walk_for(items, hi)

    def dist(n, d, q):
        return min(n * q % d, -n * q % d)

    def half(item, e, b):
        return -(-e * ((item[2] * b + item[3]) // item[4]) // item[1])

    def fits(q):
        return all(dist(*item[:2], q) * item[4] <= item[2] * q + item[3] for item in items)

    seen = [lo]
    if fits(lo):
        return seen
    q = None
    for last in block_ends(items, lo, hi):
        h, fh = half(items[-1], pd, last), half(items[0], fd, last)
        if q is None:
            q = next(j for j in range(lo, -1, -1) if dist(pn, pd, j) <= h)
        for j in range(q + 1, last + 1):
            if dist(pn, pd, j) <= h:
                q = j
                if dist(fn, fd, j) <= fh:
                    seen.append(j)
                    if fits(j):
                        return seen
    return seen


@settings(max_examples=200, deadline=None)
@given(multi_block_scans())
# 12 blocks of isqrt(8 * 32005) + 1 = 507 are walked to q = 6,723, where
# lo and 26 hits inside both windows have reached the exact test.
@example((
    [
        (x.numerator, x.denominator, m * x.denominator, c, (8000 << j) + extra)
        for x, m, c, j, extra in [
            (-STANDINS_64[3], 1, 0, 6, 17),
            (STANDINS_64[2], 2, -1, 5, 300),
            (STANDINS_64[4], 1, 0, 2, 5),
        ]
    ],
    1000,
    8000,
))
# The first item's window is one residue, fh = (118*b - 1) // 1,024,003
# = 0, at each of the 11 block ends to q = 6,577, so only multiples of 59
# pass it: lo and 24 of them reach the exact test, the last, 6,490, fits.
@example((
    [
        (x.numerator, x.denominator, m * x.denominator, c, (8000 << j) + extra)
        for x, m, c, j, extra in [
            (F(5, 59), 2, -1, 7, 3),
            (STANDINS_64[2], 2, -1, 5, 300),
            (STANDINS_64[4], 1, 0, 2, 5),
        ]
    ],
    1000,
    8000,
))
# The first item's window fh = (5*b - 1) // 8,017 at the 6 block ends to
# q = 4,042 goes 0, 1, 1, 1, 2, 2: from one residue of 5 to three, then
# to all five (2*fh + 1 >= 5); lo and 323 hits reach the exact test, the
# last, 3,771, fits.
@example((
    [
        (x.numerator, x.denominator, m * x.denominator, c, (8000 << j) + extra)
        for x, m, c, j, extra in [
            (F(2, 5), 1, -1, 0, 17),
            (STANDINS_64[0], 1, 0, 8, 7),
            (STANDINS_64[4], 1, 0, 2, 5),
        ]
    ],
    1000,
    8000,
))
# The first block, 9..40 for the pivot 4/9, ends at the hit 40, whose
# shifted residue is s = 0 (w = 5, steps q1 = 1, u = 4, q2 = 2, v = 1):
# the q1 step past 40 leaves s = u, the lower edge of [u, w), and takes
# back q1.  Taking back q1 + q2 would carry 38 and offer 39 = 3*13, inside
# the second block's windows but not the first's, to the exact test.
@example(([(11, 13, 13, -1, 10773), (4, 9, 9, 0, 122)], 8, 42))
# The third block, 226..298 for the pivot -62/25, ends at the hit 298,
# with s = w - u = 10 (w = 23, q1 = q2 = 1, u = 13, v = 12): the q1 + q2
# step past 298 leaves s = w - v, the lower edge of [w - v, u), and takes
# back q1 + q2.  Taking back q2 would carry 299 = 13*23, outside the third
# block's window, and the fourth block would never offer it.
@example(([(57, 23, 23, 0, 28114), (-62, 25, 75, -1, 1982)], 79, 436))
def test_first_fit_carries_the_first_residue_across_blocks(scan):
    # The answer is that of a linear scan of the exact integer test, and
    # the q that reach the exact test are exactly those inside both block
    # windows, so a residue carried wrong shows even where it only lets
    # more q through.
    items, lo, hi = scan
    expected = first_linear_fit(items, lo, hi)
    seen = []
    fits = simultaneous._fits

    def counting(items, q):
        seen.append(q)
        return fits(items, q)

    with mock.patch.object(simultaneous, "_fits", counting):
        assert simultaneous._first_fit(items, lo, hi, walk_for(items, hi)) == expected
    assert seen == walked_hits(items, lo, hi)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 400).flatmap(
        lambda m: st.tuples(
            st.integers(-3 * m, 3 * m), st.integers(-3 * m, 3 * m), st.just(m), st.integers(1, m + 1)
        )
    )
)
def test_first_in_window_equals_search(case):
    # Residues of a*j + b repeat with period dividing m, so a search over
    # j < m finds the first hit if there is one.
    a, b, m, w = case
    expected = next((j for j in range(m) if (a * j + b) % m < w), None)
    assert simultaneous._first_in_window(a, b, m, w) == expected


def test_window_walk_starts_at_lo():
    # About 1 q in 500 hits this window, so a walk that stepped up from
    # q = 0 would pass some 2*10**9 hits before lo.  The script lists the
    # fits as listed_fits does.
    lo, hi = 10**12, 10**12 + 20_000
    script = (
        "from fareyapprox import parse_real\n"
        "from fareyapprox.simultaneous import _first_fit, _walk\n"
        "x = parse_real('sqrt2', 5000) - 1\n"
        "xn, xd = x.numerator, x.denominator\n"
        "items, fits = [(xn, xd, 0, xd, 1000)], []\n"
        f"walk = _walk(items, {hi})\n"
        f"q = _first_fit(items, {lo}, {hi}, walk)\n"
        "while q is not None:\n"
        "    fits.append(q)\n"
        f"    q = _first_fit(items, q + 1, {hi}, walk)\n"
        "print(*fits)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    x = parse_real("sqrt2", 5000) - 1
    xn, xd = x.numerator, x.denominator
    expected = [q for q in range(lo, hi + 1) if min(xn * q % xd, -xn * q % xd) <= xd // 1000]
    assert 0 < len(expected) and proc.stdout.split() == [str(q) for q in expected]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.builds(F, st.integers(-40, 40), st.integers(1, 60)),
            st.sampled_from([SQRT2_50, PHI_50, parse_real("pi", 30)]),
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(2, 12),
)
def test_dirichlet_matches_linear_scan(xs, T):
    q = next(
        q for q in range(1, T ** len(xs))
        if all(nearest_int_distance(q * x) <= F(1, T) for x in xs)
    )
    sol = dirichlet_solve(xs, T)
    ps = tuple(best_numerator(x, q) for x in xs)
    assert (sol.q, sol.ps) == (q, ps)
    assert sol.errors == tuple(abs(x - F(p, q)) for x, p in zip(xs, ps))


@pytest.fixture
def visited(monkeypatch):
    # Every q a scan puts through the exact test, in order.
    seen = []
    fits = simultaneous._fits

    def counting(items, q):
        seen.append(q)
        return fits(items, q)

    monkeypatch.setattr(simultaneous, "_fits", counting)
    return seen


def six_constants():
    # n = 6, t_min = 1/10: at eps = 1/10**6 the range is 10**5, infeasible.
    names = ("sqrt2", "sqrt3", "sqrt5", "phi", "e", "pi")
    return cs(*[(parse_real(name, 64), F(1, 10) if i else F(1)) for i, name in enumerate(names)])


def test_oracle_visits_few_denominators(visited):
    # Walking the item with the smallest t offers about t_min**2 = 1% of
    # the range, where the first item (t = 1) would offer 10% and a full
    # scan all of it; the first item's window leaves few of those for the
    # exact test.
    assert isinstance(brute_force_solve(six_constants(), F(1, 10**6)), Infeasible)
    assert 0 < len(visited) < 0.03 * 10**5


def test_oracle_walk_yields_a_pinned_count(visited):
    # The exact number of q that reach the exact test on the instance
    # above: lo, and 13 of the 1,088 q the pivot's walk offers in its 12
    # blocks of isqrt(8 * 10**7) + 1 = 8,945, the ones inside the first
    # item's window too.  A cheaper exact test leaves it as it is; a walk
    # that skips candidates must change it.
    assert isinstance(brute_force_solve(six_constants(), F(1, 10**6)), Infeasible)
    assert len(visited) == 14


@pytest.mark.parametrize(
    "c, epsilon",
    [
        (cs((SQRT2_50, F(1))), F(1, 1000)),
        (cs((SQRT2_50, F(1)), (PHI_50, F(1))), F(1, 1000)),
        (six_constants(), F(1, 10**6)),
    ],
    ids=["n=1", "n=2", "n=6"],
)
def test_walk_candidates_test_the_first_item_last(c, epsilon, monkeypatch):
    # lo is tested in plan order, as the first item rejects most q there;
    # a candidate of the walk is inside the first item's window already,
    # so its exact test takes the first item last.
    scans, calls = [], []
    first_fit, fits = simultaneous._first_fit, simultaneous._fits

    def recording_first_fit(items, lo, hi, walk):
        scans.append((list(items), lo))
        return first_fit(items, lo, hi, walk)

    def recording_fits(items, q):
        calls.append((list(items), q))
        return fits(items, q)

    monkeypatch.setattr(simultaneous, "_first_fit", recording_first_fit)
    monkeypatch.setattr(simultaneous, "_fits", recording_fits)
    brute_force_solve(c, epsilon)
    [(plan, lo)] = scans
    assert len(plan) == c.n and calls[0] == (plan, lo) and len(calls) > 2
    assert all(items == [*plan[1:], plan[0]] and q > lo for items, q in calls[1:])


def wide_first_window(precision):
    # The benchmark's heaviest request shape (sm-0183 in perfbench's pool),
    # with its two constants read to the given number of digits.
    xs = [
        "5299851110199324195/8640886836227398636",
        "7734127199133044991/6133749506545074136",
        "2409750016246296547/8103628391678301953",
        "sqrt2",
        "2132935241429405043/6579173893685129313",
        "e",
    ]
    ts = ["1", "1/2", "1/2", "1", "1/2", "1/2"]
    return cs(*[(parse_real(x, precision), F(t)) for x, t in zip(xs, ts)])


def test_wide_first_window_walk_yields_a_pinned_count(visited):
    # n = 6 with t_min = 1/2, so in the last block walked the pivot's
    # window and the first item's each cover about a sixth of the
    # residues, eight times the share of the first item's window on the
    # instance above.  The walk crosses 34 blocks of
    # isqrt(8 * 663910 * 2) + 1 = 3,260 and carries the first item's
    # residue through each; lo and 1,037 of its 9,286 hits reach the
    # exact test before q = 109,400 fits.
    sol = brute_force_solve(wide_first_window(64), F(1, 663910))
    assert (sol.q, len(visited)) == (109400, 1038)


def test_wide_first_window_walk_does_not_depend_on_precision(visited):
    # The walk runs on convergents for q up to the range end, so reading
    # sqrt2 and e to 2000 digits in place of 64 leaves the answer and
    # every q the exact test sees as they are.
    runs = []
    for precision in (64, 2000):
        sol = brute_force_solve(wide_first_window(precision), F(1, 663910))
        runs.append(((sol.q, sol.ps), visited[:]))
        visited.clear()
    assert runs[0] == runs[1] and len(runs[0][1]) == 1038


@contextlib.contextmanager
def recorded_windows():
    # The window of every _steps call, in order: one per block.
    windows = []
    steps = simultaneous._steps

    def recording_steps(path, w):
        windows.append(w)
        return steps(path, w)

    with mock.patch.object(simultaneous, "_steps", recording_steps):
        yield windows


def test_sweep_descends_the_pivot_once(monkeypatch):
    # Every block of every point reads its steps off one descent, on the
    # pivot's convergent for the last point's range end, 10**5: 191861 /
    # 110771 for the 64-digit sqrt3.  It takes each level's batched step
    # once for the whole sweep: 7 levels below the root, where a descent
    # from the root in each of the 18 blocks walked takes 111 batched
    # steps.  Each block's window is widened to the convergent's residues.
    paths = []
    descent = simultaneous._descent

    class CountingPath(list):
        appends = 0

        def append(self, level):
            self.appends += 1
            super().append(level)

    def counting_descent(xn, xd):
        paths.append((xn, xd, CountingPath(descent(xn, xd))))
        return paths[-1][2]

    monkeypatch.setattr(simultaneous, "_descent", counting_descent)
    c = six_constants()
    with recorded_windows() as windows:
        rep = epsilon_threshold(c, [F(1, 10**k) for k in range(3, 7)])
    assert rep.feasible == (False,) * 4
    [(xn, xd, path)] = paths
    pivot = c.items[1][0]  # sqrt3, the first item with the smallest weight
    assert (xn, xd) == farey._convergent(pivot.numerator, pivot.denominator, 10**5)
    assert (xn, xd) == (191861, 110771)
    assert path.appends == len(path) - 1 == len(set(path)) - 1
    per_block = [per_block_steps(xn, xd, w)[1] for w in windows]
    assert len(path) - 1 <= max(per_block)
    assert (len(path) - 1, len(windows), sum(per_block)) == (7, 18, 111)


def test_dirichlet_walk_yields_a_pinned_count(visited):
    # The exact number of q that reach the exact test before the smallest
    # q of the six targets at T = 10, pinned as the oracle's is: of the 422
    # the walk on the first target offers, 84 are in the second target's
    # window too, and lo = 1 is tested first.
    sol = dirichlet_solve(six_constants().xs, 10)
    assert (sol.q, len(visited)) == (2105, 85)


def test_dirichlet_scan_reads_its_steps_once():
    # The Dirichlet bound fixes the window (a = 0), so the walk is one
    # block and reads its steps once for all its hits, off the descent on
    # the first target's convergent for q up to T**n - 1, with the window
    # h = xd // T rounded up to ceil(b*h/xd) on its residues.  The second
    # answer lies at 93% of 1..941**2 - 1, so a walk that cut the range
    # into blocks would reach a second one and read its steps again.
    cases = [
        (six_constants().xs, 10, 2105),
        ((parse_real("phi", 64), parse_real("pi", 64)), 941, 826872),
    ]
    for xs, T, q in cases:
        with recorded_windows() as windows:
            assert dirichlet_solve(xs, T).q == q
        xd = xs[0].denominator
        _, b = farey._convergent(xs[0].numerator, xd, T ** len(xs) - 1)
        assert windows == [2 * -(-b * (xd // T) // xd) + 1]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 10**20 // 2 - 1), min_size=4, max_size=8),
    st.integers(10, 3000),
)
def test_oracle_blocks_stay_within_the_bound(numerators, m):
    # _first_fit's docstring: a scan at eps ends by q = 1/(2*eps*t) for the
    # pivot's t, and its blocks are longer than sqrt(K/(eps*t)), so it
    # walks at most ceil(1/(2*sqrt(K*eps*t))) blocks, that is
    # 4*K*eps*t*(blocks - 1)**2 < 1.  With t = 7/10 the range ends at
    # t/eps, just short of 1/(2*eps*t), so a scan of four to eight targets
    # often comes near the bound.  Each block reads its steps once.
    t = F(7, 10)
    with recorded_windows() as windows:
        brute_force_solve(cs(*[(F(2 * k + 1, 10**20), t) for k in numerators]), F(1, m))
    blocks = len(windows)
    assert blocks == 0 or 4 * simultaneous._BLOCK_EXCESS * F(1, m) * t * (blocks - 1) ** 2 < 1


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.builds(F, st.integers(-50, 50), st.integers(1, 20)),
            st.one_of(
                st.integers(1, 3),
                st.sampled_from([F(1, 2), F(1), F(2), F(2, 4)]),
                st.builds(F, st.integers(1, 6), st.integers(1, 6)),
            ),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_plan_tests_the_pivot_last_and_the_others_by_weight(items):
    # Reference order from Fraction weights: the pivot, the first item with
    # the smallest weight, comes last; the others are sorted by weight,
    # ties in input order.  Int weights and repeated weights are drawn.
    weights = [F(t) for _, t in items]
    pivot = weights.index(min(weights))
    others = sorted((i for i in range(len(items)) if i != pivot), key=lambda i: (weights[i], i))
    expected = [
        (items[i][0].numerator, items[i][0].denominator, weights[i].numerator, weights[i].denominator)
        for i in [*others, pivot]
    ]
    assert simultaneous._plan(items) == expected


def test_every_scan_descends_its_pivot_once(monkeypatch):
    # Each scan sets up one plan, which descends the convergent, for the
    # largest q the plan's scans reach, of the first item with the
    # smallest weight: sqrt3 in six_constants(), and the first target for
    # Dirichlet, whose weights are uniform.  compare plans its two scans
    # on one target.
    targets = []
    descent = simultaneous._descent

    def recording_descent(xn, xd):
        targets.append((xn, xd))
        return descent(xn, xd)

    def convergent(x, top):
        return farey._convergent(x.numerator, x.denominator, top)

    monkeypatch.setattr(simultaneous, "_descent", recording_descent)
    c = six_constants()
    xs = c.xs
    brute_force_solve(c, F(1, 10**3))
    epsilon_threshold(c, [F(1, 10**k) for k in range(2, 5)])
    dirichlet_solve(xs, 10)
    compare(cs(*[(x, F(1)) for x in xs]), F(1, 10**3), 10)
    # Range ends: t_min/eps = 100 and 1000 for the oracle and the sweep,
    # T**n - 1 for Dirichlet, t/eps = 1000 for compare's oracle.
    tops = [(xs[1], 100), (xs[1], 1000), (xs[0], 10**6 - 1), (xs[0], 1000), (xs[0], 10**6 - 1)]
    assert targets == [convergent(x, top) for x, top in tops]


def test_sweep_tries_previous_witness_first(visited, monkeypatch):
    # 200 points share 7 witnesses: each point first tests the witness of
    # the one before (q = 1 for the first), so a walk runs only where the
    # witness changes, and the walks put 27 more q through the exact test.
    # Each walk finds its witness in its first block, isqrt(8*k) + 1 long
    # at eps = 1/k, and takes that block's end window for all its q, on
    # the convergents for q up to 1005 (t/eps at the last point), each
    # window one unit wider: that lets one more q through.  A point whose
    # witness is the previous point's q reuses that answer's numerators
    # and errors, so an answer is built once per distinct q, and each
    # reused one is the oracle's at its own point.
    builds = []
    solution = simultaneous._solution
    monkeypatch.setattr(
        simultaneous, "_solution", lambda *args: builds.append(args[1]) or solution(*args)
    )
    c = cs((SQRT2_50, F(1)), (parse_real("sqrt3", 50), F(1)))
    grid = [F(1, k) for k in range(10, 1010, 5)]
    rep = epsilon_threshold(c, grid)
    assert all(rep.feasible)
    assert len({w.q for w in rep.witnesses}) == 7
    assert len(visited) == 200 + 27
    assert builds == sorted({w.q for w in rep.witnesses})
    reused = [
        (eps, w) for eps, w, before in zip(grid[1:], rep.witnesses[1:], rep.witnesses)
        if w.q == before.q
    ]
    assert len(reused) == 193
    assert all(brute_force_solve(c, eps) == w for eps, w in reused)


def test_epsilon_threshold_examples():
    rep = epsilon_threshold(cs((F(1, 2), F(1))), [F(1), F(1, 2), F(1, 4), F(1, 8)])
    assert rep.feasible == (True, True, True, True)
    assert rep.epsilon0 == F(1)
    rep = epsilon_threshold(
        cs((F(1, 3), F(1)), (F(2, 3), F(1))), [F(1, 2), F(1, 5), F(1, 10)]
    )
    assert rep.feasible == (True, True, True)
    assert rep.epsilon0 == F(1, 2)
    assert [w.q for w in rep.witnesses] == [1, 2, 3]
    # eps = 1 exceeds t_min = 1/2, so its range is empty; smaller eps are
    # feasible, and the sweep must go on past the infeasible first point
    rep = epsilon_threshold(cs((F(1, 2), F(1, 2))), [F(1), F(1, 4), F(1, 8)])
    assert rep.feasible == (False, True, True)
    assert rep.epsilon0 == F(1, 4)
    assert rep.witnesses[0] is None
    assert [(w.q, w.ps) for w in rep.witnesses[1:]] == [(2, (1,)), (2, (1,))]


def test_epsilon_threshold_budget_names_first_unwitnessed_point():
    # max_scan = 5: eps = 1/20 has range 20 but the witness 7/5; eps = 1/1000
    # (range 1000) is the first point with no witness within the budget
    c = cs((SQRT2_50, F(1)),)
    grid = [F(1, 2), F(1, 20), F(1, 1000), F(1, 2000)]
    with pytest.raises(BudgetExceededError) as info:
        epsilon_threshold(c, grid, max_scan=5)
    assert str(info.value) == "scan budget exhausted after 5 of 1000 denominators"


def test_epsilon_threshold_budget_not_raised_when_witnessed():
    # ranges 20 and 50 exceed max_scan = 5, but q = 5 fits both
    c = cs((SQRT2_50, F(1)),)
    rep = epsilon_threshold(c, [F(1, 2), F(1, 20), F(1, 50)], max_scan=5)
    assert rep.feasible == (True, True, True)
    assert [(w.q, w.ps, w.epsilon) for w in rep.witnesses] == [
        (1, (1,), F(1, 2)),
        (5, (7,), F(1, 20)),
        (5, (7,), F(1, 50)),
    ]


def reference_smallest(c, eps, max_scan):
    # The Fraction scan's (q, ps) or None, or the budget message a scan
    # capped at max_scan must raise.
    found = _fraction_scan(c, eps, max_scan)
    q_max = math.floor(c.t_min / eps)
    if found is None and q_max > max_scan:
        return f"scan budget exhausted after {max_scan} of {q_max} denominators"
    return found


@st.composite
def sweep_instances(draw):
    # Small denominators make exact ties (2*rem = xd) common, and the
    # t_min/m points put eps*q = t_min on the boundary.  Weights with
    # numerators above 1 make the unreduced bound en*tn/(ed*td) share
    # factors between its numerator and denominator.
    n = draw(st.integers(1, 4))
    weights = st.sampled_from([F(1), F(1, 2), F(1, 10), F(3, 4), F(5, 2), F(7, 10)])
    c = cs(*[
        (F(draw(st.integers(-12, 12)), draw(st.integers(1, 12))), draw(weights))
        for _ in range(n)
    ])
    point = st.one_of(
        st.builds(F, st.integers(1, 6), st.integers(1, 48)),
        st.integers(1, 40).map(lambda m: c.t_min / m),
    )
    grid = sorted(draw(st.lists(point, min_size=1, max_size=8, unique=True)), reverse=True)
    max_scan = draw(st.one_of(st.just(DEFAULT_MAX_SCAN), st.integers(0, 30)))
    return c, grid, max_scan


@settings(max_examples=300, deadline=None)
@given(sweep_instances())
def test_sweep_and_oracle_match_fraction_reference(instance):
    c, grid, max_scan = instance
    expected = [reference_smallest(c, g, max_scan) for g in grid]
    budget = [e for e in expected if isinstance(e, str)]
    if budget:
        with pytest.raises(BudgetExceededError) as info:
            epsilon_threshold(c, grid, max_scan=max_scan)
        assert str(info.value) == budget[0]
    else:
        rep = epsilon_threshold(c, grid, max_scan=max_scan)
        assert rep.feasible == tuple(e is not None for e in expected)
        feasible_tail = [g for i, g in enumerate(grid) if all(expected[i:])]
        assert rep.epsilon0 == (max(feasible_tail) if feasible_tail else None)
        for g, e, w in zip(grid, expected, rep.witnesses):
            if e is None:
                assert w is None
            else:
                q, ps = e
                assert (w.q, w.ps, w.epsilon, w.method) == (q, ps, g, "brute")
                assert w.errors == tuple(abs(x - F(p, q)) for x, p in zip(c.xs, ps))
    for g, e in zip(grid, expected):
        if isinstance(e, str):
            with pytest.raises(BudgetExceededError) as info:
                brute_force_solve(c, g, max_scan=max_scan)
            assert str(info.value) == e
            continue
        result = brute_force_solve(c, g, max_scan=max_scan)
        if e is None:
            assert isinstance(result, Infeasible)
        else:
            assert (result.q, result.ps, result.epsilon) == (e[0], e[1], g)


def test_epsilon_threshold_standin_grid():
    grid = [F(1, 2**k) for k in range(1, 13)]
    rep = epsilon_threshold(cs((SQRT2_50, F(1))), grid)
    assert rep.epsilon0 is not None
    for g, ok, wit in zip(rep.grid, rep.feasible, rep.witnesses):
        if ok:
            assert check_solution(cs((SQRT2_50, F(1))), g, wit.q, wit.ps).overall
        else:
            assert wit is None
    # the feasible region at or below epsilon0 is an unbroken suffix
    idx = rep.grid.index(rep.epsilon0)
    assert all(rep.feasible[idx:])


def test_epsilon_threshold_reports_infeasible_points():
    # q=2 fits at eps=1/4 (error 1/14 <= 1/8); nothing fits at eps=1/8
    rep = epsilon_threshold(cs((F(3, 7), F(1, 2))), [F(1, 4), F(1, 8)])
    assert rep.feasible == (True, False)
    assert rep.epsilon0 is None
    assert rep.witnesses[1] is None


def test_epsilon_threshold_grid_validation():
    c = cs((F(1, 2), F(1)))
    with pytest.raises(InvalidInputError):
        epsilon_threshold(c, [])
    with pytest.raises(InvalidInputError):
        epsilon_threshold(c, [F(1, 4), F(1, 2)])
    with pytest.raises(InvalidInputError):
        epsilon_threshold(c, [F(1, 2), F(1, 2)])
    with pytest.raises(InvalidInputError):
        epsilon_threshold(c, [F(1, 2), F(0)])


def test_compare_examples():
    rep = compare(cs((F(1, 3), F(1)), (F(2, 3), F(1))), F(1, 10), 4)
    assert isinstance(rep.constrained, Solution)
    assert rep.constrained.q == 3
    assert rep.max_error_constrained == F(0)
    assert rep.dirichlet.q < 16
    assert rep.max_error_dirichlet <= F(1, 4 * rep.dirichlet.q)
    assert rep.q_bound_constrained == F(10)
    assert rep.q_bound_dirichlet == 16

    rep = compare(cs((F(1, 2), F(1))), F(1, 2), 2)
    assert rep.constrained.q == 1
    assert rep.dirichlet.q == 1


def test_compare_forced_T_blowup():
    # three quadratic-irrational stand-ins, T forced by 1/T <= eps*t
    irr = (SQRT2_50 - 1, parse_real("sqrt3", 50) - 1, parse_real("sqrt5", 50) - 2)
    eps, t = F(1, 50), F(1)
    T = 50  # smallest integer with 1/T <= eps*t
    rep = compare(cs(*[(x, t) for x in irr]), eps, T)
    assert F(1, T) <= eps * t
    assert rep.q_bound_dirichlet == T**3
    assert rep.q_bound_dirichlet > rep.q_bound_constrained
    assert isinstance(rep.constrained, Solution)
    assert rep.constrained.q <= t / eps


def test_compare_requires_uniform_weights():
    with pytest.raises(InvalidInputError):
        compare(cs((F(1, 3), F(1)), (F(2, 3), F(2))), F(1, 10), 4)


def test_solution_max_error():
    sol = brute_force_solve(cs((F(1, 3), F(1)), (F(1, 2), F(1))), F(1, 3))
    assert isinstance(sol, Solution)
    assert sol.max_error == max(sol.errors)
