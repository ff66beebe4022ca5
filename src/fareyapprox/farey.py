"""Farey sequences: generation, neighbour queries, and property checks.

F_N is the ascending list of all reduced fractions h/k with
0 <= h <= k <= N.  Adjacent terms h/k < h'/k' satisfy kh' - hk' = 1
(unimodularity), which is what all the mediant machinery in this package
builds on.

Every term of a listing is already reduced, so one generator makes every
listing as raw (h, k) pairs by the next-term recurrence, seeded at the
lower end by :func:`_seed_below`, whatever that end is, and stopped at
the upper end.  The CLI prints those pairs as they are,
:func:`verify_farey_properties` checks them, and ``farey_sequence`` wraps
them in ``Fraction``s only at the library boundary.

The Stern-Brocot descent on a rational is the one kernel behind every
bracket and every three-gap step, and this module is the only one that
knows its path: a list of levels (-min(u, v), q1, u, q2, v), which
:func:`_descent` starts and :func:`_deepen` extends by one batched step.
It has two readers.  :func:`_bracket` reads the Farey bracket of any
order off it, as its endpoints, which serves ``farey_neighbors``, the
seed of a listing and the composition heuristic.  :func:`_steps` bisects
it by residue for the scans of :mod:`fareyapprox.simultaneous`, which
hold a path but never index its levels; it answers every window w >= 1,
one that covers every residue and an integer target's included.  Those
scans descend not a target but its first convergent past the largest q
they reach, :func:`_convergent`, so that they walk on integers about as
long as that q.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import islice, pairwise
from typing import Iterator, Union

from ._record import record
from .errors import EndOfSequenceError, InvalidInputError
from .rationals import _as_fraction, _fraction_text, _int_text, _require_int


def _require_order(order: int) -> None:
    _require_int(order, 1, "Farey order must be a positive integer")


def _quoted(x: Fraction) -> str:
    # A value of over 100 characters is quoted by its first 20, as
    # parse_rational quotes a long literal.
    text = _fraction_text(x)
    return text if len(text) <= 100 else text[:20] + "..."


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
        # 0 <= left < right <= 1, in integers: b and d are positive.
        if not (0 <= a * d < b * c <= b * d):
            raise InvalidInputError(f"not an ordered pair in [0, 1]: {self._ends()}")
        if b > self.order or d > self.order:
            raise InvalidInputError(
                f"denominators exceed order {_int_text(self.order)}: {self._ends()}"
            )
        if b * c - a * d != 1:
            raise InvalidInputError(f"pair is not unimodular: {self._ends()}")
        if b + d <= self.order:
            # the mediant would be a member of F_order between the two
            raise InvalidInputError(
                f"pair is not consecutive in F_{_int_text(self.order)}: {self._ends()}"
            )

    def _ends(self) -> str:
        return f"{_quoted(self.left)}, {_quoted(self.right)}"


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
        for name in self._fields[1:]:
            yield name, getattr(self, name)

    @property
    def all_passed(self) -> bool:
        return all(check.passed for _, check in self.checks())


def _descent(xn: int, xd: int) -> list[tuple[int, int, int, int, int]]:
    """The root of the Stern-Brocot descent on xn/xd, as a path for :func:`_deepen`.

    A level is (-min(u, v), q1, u, q2, v): q1 is the first q >= 1 whose
    residue xn*q mod xd moves forward by u, q2 the first whose residue
    moves back by v, so p1/q1 < xn/xd < p2/q2 with p1 = (xn*q1 - u)/xd and
    p2 = (xn*q2 + v)/xd are the left and right endpoints of the descent
    (one-sided best approximations).  The root is q1 = q2 = 1, the
    integers on either side of xn/xd; for an integer target (xd = 1) it is
    u = v = 0, the end level of every path, so that path is its root.  The
    key -min(u, v) does not decrease along the path, so the path can be
    bisected by it.
    """
    u, v = xn % xd, -xn % xd
    return [(-min(u, v), 1, u, 1, v)]


def _convergent(xn: int, xd: int, top: int) -> tuple[int, int]:
    """(a, b): xn/xd itself if xd <= top, else its first convergent with b >= top.

    The convergents p_k/q_k of x = xn/xd satisfy |q_k*x - p_k| <= 1/q_(k+1)
    (Khinchin 1964), and q_(k+1) > q_k from k = 1 on, so the first b >= top
    has top*|b*xn - a*xd| < xd: a walk on a/b up to q = top is a walk on x
    with windows rounded up to steps of 1/b (simultaneous._first_fit).  For
    top <= 1, b = 1 and a is the integer nearest x, as |x - a| <= 1/2.
    Only the denominators are carried, by Euclid's algorithm on xn and xd,
    and a is the integer nearest b*x, as |b*x - a| <= 1/3 once b >= 2.  A
    remainder reaches 0 only with b = xd > top, so no step divides by 0.
    b is below (c + 1)*top for the partial quotient c that takes the
    denominators past top, so it is near top unless x lies very close to a
    fraction of denominator below top.
    """
    if xd <= top:
        return xn, xd
    n, d, b0, b = xd, xn % xd, 0, 1
    while b < top:
        k, r = divmod(n, d)
        n, d, b0, b = d, r, b, k * b + b0
    return (2 * b * xn + xd) // (2 * xd), b


def _deepen(path: list[tuple[int, int, int, int, int]]) -> None:
    # The one batched Stern-Brocot step: the larger of u and v drops below
    # the smaller, by as many steps of the smaller as keep it >= 1, so it
    # is the smaller one after, and its key.  u == v happens only at
    # u = v = 1, next to xn/xd itself, whose one step goes to q1 = q2 = xd
    # with u = v = 0, the end of the path.
    _, q1, u, q2, v = path[-1]
    if u > v:
        j = (u - 1) // v
        q1, u = q1 + j * q2, u - j * v
        path.append((-u, q1, u, q2, v))
    elif v > u:
        j = (v - 1) // u
        q2, v = q2 + j * q1, v - j * u
        path.append((-v, q1, u, q2, v))
    else:
        q1 += q2
        path.append((0, q1, 0, q1, 0))


def _steps(path: list[tuple[int, int, int, int, int]], w: int) -> tuple[int, int, int, int]:
    """(q1, u, q2, v) of the first level of the descent with u < w and v < w, for w >= 1.

    Each step of the descent (:func:`_deepen`) takes the larger of u and v
    below the smaller, and its last step goes to q1 = q2 = xd with
    u = v = 0 (for w = 1 the hits are the multiples of xd).  So levels
    whose smaller residue is >= w are passed whole, and the first level
    whose smaller residue is < w needs at most one partial step: the
    fewest steps of the smaller that take the larger below w.  A window
    that covers every residue (w >= xd) gets the root's steps, q1 = q2 = 1,
    so a walk by them takes every q.  ``path`` (from :func:`_descent`)
    keeps the levels found so far and is extended in place only as deep
    as w needs, so the callers that walk one target with many windows
    take each level's step once.
    """
    while path[-1][0] <= -w:
        _deepen(path)
    # The key -min(u, v) of the first level with min(u, v) < w is >= 1 - w,
    # and a longer tuple sorts after its prefix (1 - w,).
    _, q1, u, q2, v = path[bisect_left(path, (1 - w,))]
    if u >= w:
        j = (u - w) // v + 1
        q1, u = q1 + j * q2, u - j * v
    elif v >= w:
        j = (v - w) // u + 1
        q2, v = q2 + j * q1, v - j * u
    return q1, u, q2, v


def _bracket(xn: int, xd: int, order: int) -> tuple[int, int, int, int]:
    # (p1, q1, p2, q2) of the consecutive terms p1/q1 < xn/xd < p2/q2 of
    # F_order shifted by floor(xn/xd), for xd > order.  The descent goes
    # on while q1 + q2 <= order; from the last level within the order
    # (the root at order 1) one more step, capped so that no q exceeds
    # the order, reaches the bracket.
    path = _descent(xn, xd)
    while path[-1][1] + path[-1][3] <= order:
        _deepen(path)
    _, q1, u, q2, v = path[-2] if len(path) > 1 else path[0]
    if u > v:
        j = min((u - 1) // v, (order - q1) // q2)
        q1, u = q1 + j * q2, u - j * v
    elif v > u:
        j = min((v - 1) // u, (order - q2) // q1)
        q2, v = q2 + j * q1, v - j * u
    return (xn * q1 - u) // xd, q1, (xn * q2 + v) // xd, q2


def _seed_below(lo: Fraction, order: int) -> tuple[int, int, int, int]:
    # A seed a/b, c/d for _farey_pairs whose c/d is the first term >= lo of
    # F_order shifted by floor(lo), for lo >= 0: at 0/1 the virtual term
    # -1/0 and 0/1 itself, past 1/1 a c/d > 1 that ends the listing.
    h, k = lo.numerator, lo.denominator
    if k > order:
        return _bracket(h, k, order)
    # lo = h/k is a term.  Take a, b with h*b - k*a = 1 and 0 <= b < k: the
    # predecessor of h/k is (a + t*h)/(b + t*k) for some t >= 0, and the
    # recurrence steps from either to the same next term (its multiplier
    # (order + b) // k grows by t, which cancels).
    b = pow(h, -1, k)
    return (h * b - 1) // k, b, h, k


def _farey_pairs(order: int, lo: Fraction | None, hn=1, hd=0) -> Iterator[tuple[int, int]]:
    # The (h, k) pairs of F_order from the first term >= lo to the last
    # term <= hn/hd (hd > 0, or the default 1/0, above every term): the one
    # next-term recurrence of the package.  Every listing takes its seed
    # a/b, c/d from _seed_below, with c/d the first term >= lo, so no term
    # below lo is built; a lo below 0/1 is seeded at 0/1.
    _require_order(order)
    a, b, c, d = _seed_below(max(lo, 0) if lo is not None else 0, order)
    while c <= d and c * hd <= hn * d:
        yield c, d
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def farey_sequence(order: int) -> Iterator[Fraction]:
    """Yield F_order in increasing order, from 0/1 to 1/1.

    The terms are planned as integer pairs by the next-term recurrence;
    each becomes a ``Fraction`` only here, at the library boundary.
    """
    for h, k in _farey_pairs(order, None):
        yield Fraction(h, k)


def farey_next(current: FareyPair) -> Fraction:
    """The element of F_order right after ``current.right``; order = current.order."""
    if current.right == 1:
        raise EndOfSequenceError("1/1 is the last element of every Farey sequence")
    # The listing from current.right starts with it; its successor is next.
    _, (h, k) = islice(_farey_pairs(current.order, current.right), 2)
    return Fraction(h, k)


def farey_neighbors(x: Fraction, order: int) -> Union[FareyPair, ExactHit]:
    """Bracket x in [0, 1] between consecutive elements of F_order.

    Members of F_order are reported as an :class:`ExactHit`; otherwise the
    unique consecutive pair with left < x < right is read off the
    Stern-Brocot descent on x.  Runs of descent steps toward one side are
    taken in a single batch, so the cost is logarithmic rather than
    linear in the order.
    """
    _require_order(order)
    x = _as_fraction(x)
    if not 0 <= x <= 1:
        raise InvalidInputError(f"value {_quoted(x)} outside [0, 1]")
    if x.denominator <= order:
        return ExactHit(x, order)
    p1, q1, p2, q2 = _bracket(x.numerator, x.denominator, order)
    return FareyPair(Fraction(p1, q1), Fraction(p2, q2), order)


def verify_farey_properties(order: int) -> PropertyReport:
    """Exhaustively check the classical adjacent-term properties of F_order.

    Over every adjacent pair h/k < h'/k': (1) kh' - hk' = 1; (2) every
    interior term equals the reduced mediant of its neighbours; (3)
    k + k' > order and the mediant of the pair lies strictly between its
    ends; (4) for order > 1 adjacent terms never share a denominator
    (stated only for order > 1, so it is skipped at order 1).
    """
    _require_order(order)
    # The terms of each law's first counterexample, by the law's field name.
    first: dict[str, tuple[tuple[int, int], ...]] = {}
    pairs = 0
    prev2 = None
    for prev1, cur in pairwise(_farey_pairs(order, None)):
        pairs += 1
        (h, k), (h2, k2) = prev1, cur
        mn, md = h + h2, k + k2
        if k * h2 - h * k2 != 1:
            first.setdefault("adjacent_unimodular", (prev1, cur))
        if prev2 is not None and h * (prev2[1] + k2) != k * (prev2[0] + h2):
            first.setdefault("mediant_of_neighbors", (prev2, prev1, cur))
        if not (md > order and h * md < k * mn and mn * k2 < md * h2):
            first.setdefault("denominator_sum_exceeds_order", (prev1, cur))
        if order > 1 and k == k2:
            first.setdefault("distinct_adjacent_denominators", (prev1, cur))
        prev2 = prev1

    def check(name: str, checked: int, skipped: bool = False) -> PropertyCheck:
        terms = first.get(name)
        text = terms and ", ".join(f"{h}/{k}" for h, k in terms)
        return PropertyCheck(terms is None, checked, text, skipped)

    return PropertyReport(
        order,
        check("adjacent_unimodular", pairs),
        check("mediant_of_neighbors", max(pairs - 1, 0)),
        check("denominator_sum_exceeds_order", pairs),
        check("distinct_adjacent_denominators", pairs if order > 1 else 0, order == 1),
    )
