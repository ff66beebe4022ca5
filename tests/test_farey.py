import math
import random
from bisect import bisect_left
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
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
from fareyapprox.farey import _farey_pairs, _int_pairs


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
def test_farey_pairs_is_the_filtered_recurrence(window):
    # Seeded at lo and stopped at hn/hd inside the recurrence, the planner
    # lists exactly the terms of the full run in [lo, hn/hd].
    order, lo, (hn, hd) = window
    full = _int_pairs(order, 0, 1, 1, order)
    expected = [(h, k) for h, k in full if (lo is None or F(h, k) >= lo) and h * hd <= hn * k]
    assert list(_farey_pairs(order, lo, hn, hd)) == expected


def test_adjacent_pairs_unimodular_and_denominator_sum():
    for order in (1, 2, 13, 60):
        terms = list(farey_sequence(order))
        for a, b in zip(terms, terms[1:]):
            assert a.denominator * b.numerator - a.numerator * b.denominator == 1
            assert a.denominator + b.denominator > order


def test_farey_pair_validation():
    FareyPair(F(0), F(1), 1)
    FareyPair(F(2, 7), F(1, 3), 7)
    with pytest.raises(InvalidInputError):
        FareyPair(F(1, 3), F(2, 7), 7)  # not ordered
    with pytest.raises(InvalidInputError):
        FareyPair(F(1, 5), F(1, 2), 5)  # not unimodular
    with pytest.raises(InvalidInputError):
        FareyPair(F(0), F(1), 2)  # 1/2 lies between
    with pytest.raises(InvalidInputError):
        FareyPair(F(1, 8), F(1, 7), 5)  # denominators exceed order


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


def test_verify_properties_order_50():
    report = verify_farey_properties(50)
    assert report.all_passed
    assert not report.distinct_adjacent_denominators.skipped
    assert report.adjacent_unimodular.checked > 0
