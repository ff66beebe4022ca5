import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fareyapprox.simultaneous as simultaneous
from fareyapprox import (
    DEFAULT_MAX_SCAN,
    BudgetExceededError,
    ConstraintSet,
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
    nearest_int_distance,
    parse_real,
)
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
    # reaches these checks.  A budget of 0 stays valid: it decides an
    # empty range and stops any scan before its first q.
    c = cs((F(1, 3), F(1)))
    with pytest.raises(InvalidInputError, match="^max_scan must be nonnegative$"):
        call(c, -1)
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


def linear_hits(xn, xd, lo, hi, a, c, den):
    # Every q in lo..hi within the half-width of the doubling block that
    # holds it, ended at hi.
    hits = []
    for q in range(lo, hi + 1):
        r = xn * q % xd
        if min(r, xd - r) <= (a * min((1 << q.bit_length()) - 1, hi) + c) // den:
            hits.append(q)
    return hits


@settings(max_examples=400, deadline=None)
@given(window_walks())
def test_window_hits_equal_linear_filter(walk):
    xn, xd, lo, hi, (a, c, den) = walk
    expected = linear_hits(xn, xd, lo, hi, a, c, den)
    path = simultaneous._descent(xn, xd)
    assert list(simultaneous._window_hits(xn, xd, lo, hi, a, c, den, path)) == expected


def per_block_steps(xn, xd, w):
    # The descent as each doubling block ran it before blocks shared one:
    # from the root every time.  Returns (q1, u, q2, v) and its number of
    # batched steps.
    q1, u, q2, v = 1, xn % xd, 1, xd - xn % xd
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
    # A walk never asks for w >= xd, so xd = 1 (where every w is) is left
    # out; for xd >= 2 that w gives the root.  Windows are drawn by bit
    # length, so 64-digit stand-ins get deep ones too, in any order.
    x = draw(st.one_of(
        st.integers(2, 400).flatmap(
            lambda xd: st.builds(F, st.integers(-3 * xd, 3 * xd), st.just(xd))
        ).filter(lambda x: x.denominator > 1),
        st.sampled_from(STANDINS_64 + tuple(-x for x in STANDINS_64)),
    ))
    xd = x.denominator
    window = st.one_of(
        st.sampled_from([1, 2, xd - 1, xd, xd + 1]),
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
def shared_walks(draw):
    x = draw(st.one_of(window_targets(), st.sampled_from(STANDINS_64)))
    return x.numerator, x.denominator, draw(st.lists(walk_bounds(x), min_size=2, max_size=5))


@settings(max_examples=200, deadline=None)
@given(shared_walks())
def test_walks_sharing_a_descent_equal_linear_filter(case):
    # Walks of one target, each with its own bound and lo, as a sweep's
    # points make them, read their steps off one path.
    xn, xd, walks = case
    path = simultaneous._descent(xn, xd)
    for lo, hi, (a, c, den) in walks:
        expected = linear_hits(xn, xd, lo, hi, a, c, den)
        assert list(simultaneous._window_hits(xn, xd, lo, hi, a, c, den, path)) == expected


@st.composite
def fit_scans(draw):
    # Small even denominators give exact ties, 2*d == xd, where the
    # numerator goes to the smaller p, and 64-digit stand-ins give long
    # remainders.  Each item is drawn on its own, so they come in any
    # order, as the pivot order puts them, with oracle-style bounds (a > 0,
    # and c = 0 or c = -1, the strict bound of a record walk) or
    # Dirichlet-style ones (a = 0, c > 0).  lo > 1 is where a sweep point
    # starts; a lo at or just below a power of two puts a doubling-block
    # edge, where the first item's window widens, near the start of the
    # range.  A den up to 64*(hi + 1) keeps some windows narrow at every q.
    lo = draw(st.one_of(
        st.integers(1, 300),
        st.integers(1, 40).flatmap(lambda k: st.integers(max(1, (1 << k) - 8), 1 << k)),
    ))
    hi = draw(st.integers(lo - 1, lo + 400))
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
    xn, xd, *_ = items[-1]
    assert simultaneous._first_fit(items, lo, hi, simultaneous._descent(xn, xd)) == expected


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
    # q = 0 would pass some 2*10**9 hits before lo.
    lo, hi = 10**12, 10**12 + 20_000
    script = (
        "from fareyapprox import parse_real\n"
        "from fareyapprox.simultaneous import _descent, _window_hits\n"
        "x = parse_real('sqrt2', 5000) - 1\n"
        "xn, xd = x.numerator, x.denominator\n"
        f"print(*_window_hits(xn, xd, {lo}, {hi}, 0, xd, 1000, _descent(xn, xd)))\n"
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
    # Every q the three-gap walk yields, in order.
    seen = []
    walk = simultaneous._window_hits

    def counting(*args):
        for q in walk(*args):
            seen.append(q)
            yield q

    monkeypatch.setattr(simultaneous, "_window_hits", counting)
    return seen


def six_constants():
    # n = 6, t_min = 1/10: at eps = 1/10**6 the range is 10**5, infeasible.
    names = ("sqrt2", "sqrt3", "sqrt5", "phi", "e", "pi")
    return cs(*[(parse_real(name, 64), F(1, 10) if i else F(1)) for i, name in enumerate(names)])


def test_oracle_visits_few_denominators(visited):
    # Walking the item with the smallest t should offer about
    # 2*t_min**2 = 2% of the range, where the first item (t = 1) would
    # offer 20% and a full scan all of it.
    assert isinstance(brute_force_solve(six_constants(), F(1, 10**6)), Infeasible)
    assert 0 < len(visited) < 0.03 * 10**5


def test_oracle_walk_yields_a_pinned_count(visited):
    # The exact number of q the walk offers on the instance above.  A
    # cheaper test per candidate leaves it as it is; a walk that skips
    # candidates (a sieve over two windows) must change it.
    assert isinstance(brute_force_solve(six_constants(), F(1, 10**6)), Infeasible)
    assert len(visited) == 1259


def test_sweep_descends_the_pivot_once(monkeypatch):
    # Every block of every point reads its steps off one descent on the
    # pivot, which takes each level's batched step once for the whole
    # sweep: 10 levels below the root, where a descent from the root in
    # each of the 19 blocks walked takes 140 batched steps.
    paths, windows = [], []
    descent, steps = simultaneous._descent, simultaneous._steps

    class CountingPath(list):
        appends = 0

        def append(self, level):
            self.appends += 1
            super().append(level)

    def counting_descent(xn, xd):
        paths.append(CountingPath(descent(xn, xd)))
        return paths[-1]

    def recording_steps(path, w):
        windows.append(w)
        return steps(path, w)

    monkeypatch.setattr(simultaneous, "_descent", counting_descent)
    monkeypatch.setattr(simultaneous, "_steps", recording_steps)
    c = six_constants()
    rep = epsilon_threshold(c, [F(1, 10**k) for k in range(3, 7)])
    assert rep.feasible == (False,) * 4
    [path] = paths
    assert path.appends == len(path) - 1 == len(set(path)) - 1
    pivot = c.items[1][0]  # sqrt3, the first item with the smallest weight
    per_block = [per_block_steps(pivot.numerator, pivot.denominator, w)[1] for w in windows]
    assert len(path) - 1 <= max(per_block)
    assert (len(path) - 1, len(windows), sum(per_block)) == (10, 19, 140)


def test_dirichlet_walk_yields_a_pinned_count(visited):
    # The exact number of q the walk on the first target offers before the
    # smallest q of the six targets at T = 10, pinned as the oracle's is.
    sol = dirichlet_solve(six_constants().xs, 10)
    assert (sol.q, len(visited)) == (2105, 422)


def test_every_scan_descends_its_pivot_once(monkeypatch):
    # Each scan sets up one plan, which descends the first item with the
    # smallest weight: sqrt3 in six_constants(), and the first target for
    # Dirichlet, whose weights are uniform.  compare plans its two scans
    # on one target.
    targets = []
    descent = simultaneous._descent

    def recording_descent(xn, xd):
        targets.append(F(xn, xd))
        return descent(xn, xd)

    monkeypatch.setattr(simultaneous, "_descent", recording_descent)
    c = six_constants()
    xs = c.xs
    brute_force_solve(c, F(1, 10**3))
    epsilon_threshold(c, [F(1, 10**k) for k in range(2, 5)])
    dirichlet_solve(xs, 10)
    compare(cs(*[(x, F(1)) for x in xs]), F(1, 10**3), 10)
    assert targets == [xs[1], xs[1], xs[0], xs[0], xs[0]]


def test_sweep_tries_previous_witness_first(visited):
    # 200 points share 7 witnesses: each point first tests the witness of
    # the one before, so a walk runs only where the witness changes.
    c = cs((SQRT2_50, F(1)), (parse_real("sqrt3", 50), F(1)))
    rep = epsilon_threshold(c, [F(1, k) for k in range(10, 1010, 5)])
    assert all(rep.feasible)
    assert len({w.q for w in rep.witnesses}) == 7
    assert len(visited) < 50


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
