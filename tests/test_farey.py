import math
import random
from bisect import bisect_left
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fareyapprox import (
    EndOfSequenceError,
    ExactHit,
    FareyPair,
    InvalidInputError,
    farey_neighbors,
    farey_next,
    farey_sequence,
    verify_farey_properties,
)
from fareyapprox import farey, simultaneous
from fareyapprox.farey import _farey_pairs
from oracles import best_at_order, mediant_bracket


def enumerate_farey(order):
    # independent oracle: collect every h/k with k <= order and sort
    return sorted({F(h, k) for k in range(1, order + 1) for h in range(k + 1)})


def totient(k):
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


def test_farey_sequence_smallest_order():
    assert list(farey_sequence(1)) == [F(0), F(1)]


def test_farey_sequence_order_5_frozen():
    expected = [F(0), F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(1, 2),
                F(3, 5), F(2, 3), F(3, 4), F(4, 5), F(1)]
    assert list(farey_sequence(5)) == expected


def test_farey_sequence_matches_enumeration():
    for order in range(1, 31):
        assert list(farey_sequence(order)) == enumerate_farey(order)


def test_farey_sequence_length_via_totient():
    assert len(list(farey_sequence(7))) == 19  # 1 + sum of phi(1..7)
    for order in (1, 2, 10, 33, 60):
        expected = 1 + sum(totient(k) for k in range(1, order + 1))
        assert len(list(farey_sequence(order))) == expected


def test_farey_sequence_terms_reduced_increasing():
    for order in (9, 24, 57):
        terms = list(farey_sequence(order))
        assert terms[0] == 0 and terms[-1] == 1
        for a, b in zip(terms, terms[1:]):
            assert a < b
        for t in terms:
            assert t.denominator <= order
            assert math.gcd(abs(t.numerator), t.denominator) == 1


@st.composite
def planner_windows(draw):
    order = draw(st.integers(1, 60))
    terms = st.sampled_from(list(farey_sequence(order)))
    lo = draw(st.one_of(st.none(), terms, st.builds(F, st.integers(-20, 140), st.integers(1, 120))))
    bound = draw(st.one_of(
        st.just((1, 0)),
        terms.map(lambda t: (t.numerator, t.denominator)),
        st.tuples(st.integers(-20, 140), st.integers(1, 120)),
    ))
    return order, lo, bound


@settings(max_examples=300, deadline=None)
@given(planner_windows())
# Order 1, --to 0, --from 1 and --from 1 --to 0 pin the seeds at both ends;
# --from -1/2 and --from 3/2 pin those below 0/1 and past 1/1.
@example((1, None, (1, 0)))
@example((5, None, (0, 1)))
@example((5, F(1), (1, 0)))
@example((5, F(1), (0, 1)))
@example((5, F(-1, 2), (1, 0)))
@example((5, F(3, 2), (1, 0)))
def test_farey_pairs_is_the_filtered_recurrence(window):
    # Seeded at lo and stopped at hn/hd inside the recurrence, the planner
    # lists exactly the terms of F_order in [lo, hn/hd].
    order, lo, (hn, hd) = window
    expected = [
        (t.numerator, t.denominator)
        for t in enumerate_farey(order)
        if (lo is None or t >= lo) and t.numerator * hd <= hn * t.denominator
    ]
    assert list(_farey_pairs(order, lo, hn, hd)) == expected


def test_listing_seed_at_zero_is_the_virtual_term():
    # The seed of 0/1 is -1/0, 0/1, from which the recurrence steps to
    # 1/order, at every order.
    for order in (1, 2, 5, 60):
        assert farey._seed_below(F(0), order) == (-1, 0, 0, 1)


def test_adjacent_pairs_unimodular_and_denominator_sum():
    for order in (1, 2, 13, 60):
        terms = list(farey_sequence(order))
        for a, b in zip(terms, terms[1:]):
            assert a.denominator * b.numerator - a.numerator * b.denominator == 1
            assert a.denominator + b.denominator > order


def test_farey_pair_validation():
    FareyPair(F(0), F(1), 1)
    FareyPair(F(2, 7), F(1, 3), 7)
    for left, right, order, message in [
        (F(1, 3), F(2, 7), 7, r"^not an ordered pair in \[0, 1\]: 1/3, 2/7$"),  # reversed
        (F(1, 3), F(1, 3), 7, r"^not an ordered pair in \[0, 1\]: 1/3, 1/3$"),  # equal
        (F(-1, 2), F(0), 2, r"^not an ordered pair in \[0, 1\]: -1/2, 0$"),  # below 0
        (F(1), F(3, 2), 2, r"^not an ordered pair in \[0, 1\]: 1, 3/2$"),  # above 1
        (F(1, 8), F(1, 7), 5, r"^denominators exceed order 5: 1/8, 1/7$"),
        (F(1, 5), F(1, 2), 5, r"^pair is not unimodular: 1/5, 1/2$"),
        (F(0), F(1), 2, r"^pair is not consecutive in F_2: 0, 1$"),  # 1/2 lies between
    ]:
        with pytest.raises(InvalidInputError, match=message):
            FareyPair(left, right, order)


def test_farey_pair_messages_print_orders_of_any_length():
    # An order past the interpreter's digit limit (4300 by default) is
    # printed in full, not refused by str() with ValueError; each end is
    # quoted as farey_neighbors quotes its value, by its first 20
    # characters when it has over 100.
    n = 10**5000
    with pytest.raises(InvalidInputError) as exc:
        FareyPair(F(0), F(1, 2 * n), n)
    assert str(exc.value) == f"denominators exceed order 1{'0' * 5000}: 0, 1/2{'0' * 17}..."
    with pytest.raises(InvalidInputError) as exc:
        FareyPair(F(0), F(1, n), n + 2)
    assert str(exc.value) == f"pair is not consecutive in F_1{'0' * 4999}2: 0, 1/1{'0' * 17}..."


def test_farey_neighbors_quotes_a_value_of_more_than_100_characters_by_its_head():
    for value, shown in ((F(10**99), "1" + "0" * 99), (F(10**100), "1" + "0" * 19 + "...")):
        with pytest.raises(InvalidInputError) as exc:
            farey_neighbors(value, 5)
        assert str(exc.value) == f"value {shown} outside [0, 1]"


def test_farey_next_examples():
    assert farey_next(FareyPair(F(0), F(1, 5), 5)) == F(1, 4)
    assert farey_next(FareyPair(F(3, 4), F(4, 5), 5)) == F(1)
    assert farey_next(FareyPair(F(0), F(1, 2), 2)) == F(1)


def test_farey_next_walks_whole_sequence():
    order = 12
    terms = list(farey_sequence(order))
    for i in range(len(terms) - 2):
        pair = FareyPair(terms[i], terms[i + 1], order)
        nxt = farey_next(pair)
        assert nxt == terms[i + 2]
        # the advanced pair is unimodular again
        assert terms[i + 1].denominator * nxt.numerator - terms[i + 1].numerator * nxt.denominator == 1


def test_farey_next_end_signal():
    pair = FareyPair(F(4, 5), F(1), 5)
    with pytest.raises(EndOfSequenceError):
        farey_next(pair)


def test_farey_neighbors_examples():
    found = farey_neighbors(F(5, 16), 7)
    assert isinstance(found, FareyPair)
    assert (found.left, found.right) == (F(2, 7), F(1, 3))
    assert farey_neighbors(F(1, 3), 7) == ExactHit(F(1, 3), 7)
    assert farey_neighbors(F(0), 3) == ExactHit(F(0), 3)
    assert farey_neighbors(F(1), 3) == ExactHit(F(1), 3)


def test_farey_neighbors_rejects_outside_unit_interval():
    with pytest.raises(InvalidInputError):
        farey_neighbors(F(3, 2), 5)
    with pytest.raises(InvalidInputError):
        farey_neighbors(F(-1, 7), 5)


def scan_neighbors(x, terms):
    # oracle: bracket by position in the fully enumerated sequence
    i = bisect_left(terms, x)
    if i < len(terms) and terms[i] == x:
        return ("exact", x)
    return ("pair", terms[i - 1], terms[i])


def test_farey_neighbors_agrees_with_scan_on_grid():
    grid = [F(j, 1000) for j in range(1001)]
    for order in range(1, 61):
        terms = list(farey_sequence(order))
        for x in grid:
            expected = scan_neighbors(x, terms)
            found = farey_neighbors(x, order)
            if expected[0] == "exact":
                assert found == ExactHit(x, order)
            else:
                assert isinstance(found, FareyPair)
                assert (found.left, found.right) == expected[1:]


def test_farey_neighbors_random_queries_large_order():
    rng = random.Random(505)
    for _ in range(200):
        order = rng.randint(61, 400)
        x = F(rng.randint(1, 10**9 - 1), 10**9)
        found = farey_neighbors(x, order)
        if isinstance(found, ExactHit):
            assert found.value == x and x.denominator <= order
            continue
        assert found.left < x < found.right
        # consecutive in F_order: unimodular, denominators within and
        # summing past the order (so nothing of F_order fits between)
        kl, kr = found.left.denominator, found.right.denominator
        assert kl <= order and kr <= order and kl + kr > order
        assert kl * found.right.numerator - found.left.numerator * kr == 1


@st.composite
def bracket_queries(draw):
    # x in [0, 1] with a denominator up to 10**15 or a 20- to 60-digit
    # decimal; orders 1 and 2, xd - 1 (the largest without x in F_order),
    # xd (x a member), and any up to 10**12; integer shifts of x, negative
    # ones included, for compose's nearer endpoint.
    x = draw(st.one_of(
        st.integers(1, 10**15).flatmap(lambda xd: st.builds(F, st.integers(0, xd), st.just(xd))),
        st.integers(20, 60).flatmap(
            lambda digits: st.builds(F, st.integers(0, 10**digits), st.just(10**digits))
        ),
    ))
    xd = x.denominator
    order = draw(st.one_of(st.sampled_from([1, 2, max(xd - 1, 1), xd]), st.integers(1, 10**12)))
    shift = draw(st.one_of(st.integers(-3, 3), st.integers(-(10**20), 10**20)))
    return x, order, shift


@settings(max_examples=300, deadline=None)
@given(bracket_queries())
@example((F(5, 12), 3, 0))
@example((F(1, 2), 1, -1))
def test_brackets_read_off_the_descent_equal_the_mediant_loop(case):
    # farey_neighbors, the seed of a listing from x and compose's nearer
    # endpoint all read the Farey bracket off one Stern-Brocot path; each
    # must give what the order-capped mediant loop gives.
    x, order, shift = case
    found = farey_neighbors(x, order)
    if x.denominator <= order:
        assert found == ExactHit(x, order)
        # The seed of a member h/k, 0/1 included, is a/b, h/k with
        # h*b - k*a = 1 and 0 <= b < k, from which the recurrence goes on.
        a, b, h, k = farey._seed_below(x, order)
        assert (F(h, k), h * b - k * a) == (x, 1) and 0 <= b < k
    else:
        a, b, c, d = mediant_bracket(x, order)
        assert found == FareyPair(F(a, b), F(c, d), order)
        assert farey._seed_below(x, order) == (a, b, c, d)
    y = x + shift
    assert simultaneous._best_at_order(y, order) == best_at_order(y, order)


def convergents(x):
    # Every convergent p_k/q_k of x, from its continued fraction.
    (p0, q0), (p, q) = (1, 0), (math.floor(x), 1)
    found = [(p, q)]
    while x != math.floor(x):
        x = 1 / (x - math.floor(x))
        k = math.floor(x)
        (p0, q0), (p, q) = (p, q), (k * p + p0, k * q + q0)
        found.append((p, q))
    return found


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.integers(1, 10**12).flatmap(lambda xd: st.builds(F, st.integers(-3 * xd, 3 * xd), st.just(xd))),
        st.integers(20, 64).flatmap(lambda digits: st.builds(F, st.integers(-(10**digits), 10**digits), st.just(10**digits))),
        st.builds(lambda p, q, s: F(p, q) + s * F(1, 10**60), st.integers(-5, 5), st.integers(1, 9), st.sampled_from([1, -1])),
    ),
    st.one_of(st.integers(-2, 3), st.integers(1, 10**7)),
)
@example(F(1, 2) + F(1, 10**60), 3000)
@example(F(5, 2), 1)
@example(F(5, 3), 0)
def test_convergent_covers_the_range_up_to_top(x, top):
    # The walk of q <= top on a/b widens each window by one unit: it needs
    # b >= min(top, xd) and top*|b*xn - a*xd| < xd.  a/b is x itself when
    # xd <= top, else the first convergent with b >= top, and an integer
    # a/1 for top <= 1.
    xn, xd = x.numerator, x.denominator
    a, b = farey._convergent(xn, xd, top)
    assert b >= min(top, xd) and top * abs(b * xn - a * xd) < xd
    if xd <= top:
        assert (a, b) == (xn, xd)
    elif top <= 1:
        assert b == 1
    else:
        assert (a, b) == next(c for c in convergents(x) if c[1] >= top)


def test_verify_properties_order_5():
    report = verify_farey_properties(5)
    assert report.all_passed
    for _, check in report.checks():
        assert check.counterexample is None
    assert report.adjacent_unimodular.checked == 10
    assert report.mediant_of_neighbors.checked == 9


def test_verify_properties_order_1_skips_denominator_rule():
    report = verify_farey_properties(1)
    assert report.all_passed
    assert report.distinct_adjacent_denominators.skipped
    assert not report.adjacent_unimodular.skipped
    assert report.adjacent_unimodular.checked == 1


@pytest.mark.parametrize("extra", [(), ((3, 4),)], ids=["three_dropped", "also_3_4"])
def test_verify_properties_reports_first_counterexamples(monkeypatch, extra):
    # F_5 without 1/5, 1/4 and 1/2: every law fails, and each check names
    # the terms of its first counterexample.  Dropping 3/4 as well adds
    # later counterexamples of the unimodular and mediant laws, which
    # change nothing but the counts.
    pairs = farey._farey_pairs
    dropped = {(1, 5), (1, 4), (1, 2), *extra}

    def corrupted(order, *window):
        return (t for t in pairs(order, *window) if t not in dropped)

    monkeypatch.setattr(farey, "_farey_pairs", corrupted)
    report = verify_farey_properties(5)
    assert not report.all_passed
    found = {
        name: (check.passed, check.checked, check.counterexample, check.skipped)
        for name, check in report.checks()
    }
    n = 7 - len(extra)
    assert found == {
        "adjacent_unimodular": (False, n, "2/5, 3/5", False),
        "mediant_of_neighbors": (False, n - 1, "1/3, 2/5, 3/5", False),
        "denominator_sum_exceeds_order": (False, n, "0/1, 1/3", False),
        "distinct_adjacent_denominators": (False, n, "2/5, 3/5", False),
    }


def test_verify_properties_order_50():
    report = verify_farey_properties(50)
    assert report.all_passed
    assert not report.distinct_adjacent_denominators.skipped
    assert report.adjacent_unimodular.checked > 0
