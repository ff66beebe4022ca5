"""Farey sequences: generation, neighbour queries, and property checks.

F_N is the ascending list of all reduced fractions h/k with
0 <= h <= k <= N.  Adjacent terms h/k < h'/k' satisfy kh' - hk' = 1
(unimodularity), which is what all the mediant machinery in this package
builds on.

Every term of a listing is already reduced, so one planner makes the
listing as raw (h, k) pairs by the next-term recurrence, bounded below
and above inside the recurrence.  The CLI prints those pairs as they are;
``farey_sequence`` wraps them in ``Fraction``s only at the library
boundary.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Union

from ._record import record
from .errors import EndOfSequenceError, InvalidInputError
from .rationals import _fraction_text


def _require_order(order: int) -> None:
    if not isinstance(order, int) or order < 1:
        raise InvalidInputError("Farey order must be a positive integer")


@record
class FareyPair:
    """Two consecutive elements of F_order.

    Validated on construction: both terms lie in [0, 1] with denominators
    at most ``order``, left < right, the pair is unimodular, and no element
    of F_order lies strictly between them (equivalently, the denominators
    sum to more than ``order``).
    """

    left: Fraction
    right: Fraction
    order: int

    def __post_init__(self) -> None:
        _require_order(self.order)
        a, b = self.left.numerator, self.left.denominator
        c, d = self.right.numerator, self.right.denominator
        if not (0 <= self.left < self.right <= 1):
            raise InvalidInputError(f"not an ordered pair in [0, 1]: {self._ends()}")
        if b > self.order or d > self.order:
            raise InvalidInputError(f"denominators exceed order {self.order}: {self._ends()}")
        if b * c - a * d != 1:
            raise InvalidInputError(f"pair is not unimodular: {self._ends()}")
        if b + d <= self.order:
            # the mediant would be a member of F_order between the two
            raise InvalidInputError(f"pair is not consecutive in F_{self.order}: {self._ends()}")

    def _ends(self) -> str:
        return f"{_fraction_text(self.left)}, {_fraction_text(self.right)}"


@record
class ExactHit:
    """A queried value that is itself a member of F_order."""

    value: Fraction
    order: int


@record
class PropertyCheck:
    passed: bool
    checked: int
    counterexample: str | None = None
    skipped: bool = False


@record
class PropertyReport:
    """Outcome of the four classical adjacent-term checks over all of F_order."""

    order: int
    adjacent_unimodular: PropertyCheck
    mediant_of_neighbors: PropertyCheck
    denominator_sum_exceeds_order: PropertyCheck
    distinct_adjacent_denominators: PropertyCheck

    def checks(self):
        yield "adjacent_unimodular", self.adjacent_unimodular
        yield "mediant_of_neighbors", self.mediant_of_neighbors
        yield "denominator_sum_exceeds_order", self.denominator_sum_exceeds_order
        yield "distinct_adjacent_denominators", self.distinct_adjacent_denominators

    @property
    def all_passed(self) -> bool:
        return all(check.passed for _, check in self.checks())


def _int_pairs(order: int, a: int, b: int, c: int, d: int, hn=1, hd=0) -> Iterator[tuple[int, int]]:
    # Next-term recurrence on raw (h, k) pairs, from the seed a/b, c/d (two
    # consecutive terms of F_order, or see _seed_below) on to the last term
    # <= hn/hd (hd > 0, or the default 1/0, above every term: on to 1/1).
    if a * hd <= hn * b:
        yield a, b
        while c <= order and c * hd <= hn * d:
            k = (order + b) // d
            a, b, c, d = c, d, k * c - a, k * d - b
            yield a, b


def _seed_below(lo: Fraction, order: int) -> tuple[int, int, int, int]:
    # A seed a/b, c/d for _int_pairs whose c/d is the first term >= lo of
    # F_order, for 0 < lo <= 1.
    found = farey_neighbors(lo, order)
    if isinstance(found, FareyPair):
        left, right = found.left, found.right
        return left.numerator, left.denominator, right.numerator, right.denominator
    # lo = h/k is a term.  Take a, b with h*b - k*a = 1 and 0 <= b < k: the
    # predecessor of h/k is (a + t*h)/(b + t*k) for some t >= 0, and the
    # recurrence steps from either to the same next term (its multiplier
    # (order + b) // k grows by t, which cancels).
    h, k = found.value.numerator, found.value.denominator
    b = pow(h, -1, k)
    return (h * b - 1) // k, b, h, k


def _farey_pairs(order: int, lo: Fraction | None, hn=1, hd=0) -> Iterator[tuple[int, int]]:
    # The (h, k) pairs of F_order from the first term >= lo to the last
    # term <= hn/hd (as in _int_pairs): the listing's one planner, with the
    # recurrence seeded at lo, so no term below lo is built.
    _require_order(order)
    if lo is None or lo <= 0:
        return _int_pairs(order, 0, 1, 1, order, hn, hd)
    if lo > 1:
        return iter(())
    pairs = _int_pairs(order, *_seed_below(lo, order), hn, hd)
    next(pairs, None)  # the seed's a/b, the term before lo
    return pairs


def farey_sequence(order: int, lo: Fraction | None = None) -> Iterator[Fraction]:
    """Yield F_order in increasing order, from 0/1 to 1/1.

    With ``lo``, the listing starts at the first term >= lo: the next-term
    recurrence is seeded at lo by :func:`farey_neighbors`, so no term
    below lo is built.  The terms are planned as integer pairs; each
    becomes a ``Fraction`` only here, at the library boundary.
    """
    for h, k in _farey_pairs(order, lo):
        yield Fraction(h, k)


def farey_next(current: FareyPair) -> Fraction:
    """The element of F_order right after ``current.right``; order = current.order."""
    if current.right == 1:
        raise EndOfSequenceError("1/1 is the last element of every Farey sequence")
    a, b = current.left.numerator, current.left.denominator
    c, d = current.right.numerator, current.right.denominator
    k = (current.order + b) // d
    return Fraction(k * c - a, k * d - b)


def farey_neighbors(x: Fraction, order: int) -> Union[FareyPair, ExactHit]:
    """Bracket x in [0, 1] between consecutive elements of F_order.

    Members of F_order are reported as an :class:`ExactHit`; otherwise the
    unique consecutive pair with left < x < right is found by mediant
    descent through the Stern-Brocot tree.  Runs of descent steps toward
    one side are taken in a single batch, so the cost is logarithmic
    rather than linear in the order.
    """
    _require_order(order)
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise InvalidInputError(f"value {_fraction_text(x)} outside [0, 1]")
    if x.denominator <= order:
        return ExactHit(x, order)
    xn, xd = x.numerator, x.denominator
    a, b, c, d = 0, 1, 1, 1
    while b + d <= order:
        if xn * (b + d) < xd * (a + c):
            # x below the mediant: the next j right-folds replace c/d by
            # (j*a + c)/(j*b + d); j is capped by the crossing point of x
            # and by the order.
            num = c * xd - xn * d
            den = xn * b - a * xd
            j = min((num - 1) // den, (order - d) // b)
            c, d = j * a + c, j * b + d
        else:
            # x above the mediant (equality is impossible: x is not in
            # F_order but every mediant reached here is).
            num = xn * b - a * xd
            den = c * xd - xn * d
            j = min((num - 1) // den, (order - b) // d)
            a, b = a + j * c, b + j * d
    return FareyPair(Fraction(a, b), Fraction(c, d), order)


def verify_farey_properties(order: int) -> PropertyReport:
    """Exhaustively check the classical adjacent-term properties of F_order.

    Over every adjacent pair h/k < h'/k': (1) kh' - hk' = 1; (2) every
    interior term equals the reduced mediant of its neighbours; (3)
    k + k' > order and the mediant of the pair lies strictly between its
    ends; (4) for order > 1 adjacent terms never share a denominator
    (stated only for order > 1, so it is skipped at order 1).
    """
    _require_order(order)
    uni_bad = mid_bad = sum_bad = dup_bad = None
    pairs = 0
    triples = 0
    prev2: tuple[int, int] | None = None
    prev1: tuple[int, int] | None = None
    for cur in _int_pairs(order, 0, 1, 1, order):
        if prev1 is not None:
            pairs += 1
            h, k = prev1
            h2, k2 = cur
            if uni_bad is None and k * h2 - h * k2 != 1:
                uni_bad = f"{h}/{k}, {h2}/{k2}"
            if sum_bad is None:
                mn, md = h + h2, k + k2
                between = h * md < k * mn and mn * k2 < md * h2
                if not (md > order and between):
                    sum_bad = f"{h}/{k}, {h2}/{k2}"
            if dup_bad is None and order > 1 and k == k2:
                dup_bad = f"{h}/{k}, {h2}/{k2}"
        if prev2 is not None:
            triples += 1
            ha, ka = prev2
            hb, kb = prev1
            hc, kc = cur
            if mid_bad is None and hb * (ka + kc) != kb * (ha + hc):
                mid_bad = f"{ha}/{ka}, {hb}/{kb}, {hc}/{kc}"
        prev2, prev1 = prev1, cur
    return PropertyReport(
        order=order,
        adjacent_unimodular=PropertyCheck(uni_bad is None, pairs, uni_bad),
        mediant_of_neighbors=PropertyCheck(mid_bad is None, triples, mid_bad),
        denominator_sum_exceeds_order=PropertyCheck(sum_bad is None, pairs, sum_bad),
        distinct_adjacent_denominators=PropertyCheck(
            dup_bad is None,
            pairs if order > 1 else 0,
            dup_bad,
            skipped=order == 1,
        ),
    )
