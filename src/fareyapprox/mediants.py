"""Mediant chains off a unimodular pair, and gap-bounded interval subdivision.

Given consecutive Farey terms h1/k1 < h2/k2, repeatedly taking mediants
toward one endpoint produces a ladder of reduced fractions:

    descending from the right:  (h2 + i*h1) / (k2 + i*k1),  i = 0, 1, ...
    ascending from the left:    (h1 + j*h2) / (k1 + j*k2),  j = 0, 1, ...

Because every rung is unimodular with its neighbours, the gaps have exact
closed forms (products of adjacent rung denominators), which is what lets
:func:`subdivide` pick the minimal chain length for a requested gap bound
without any searching.

Every rung is reduced by construction, so one planner, ``_plan_subdivision``,
works on integer pairs (h, k) alone; the CLI prints its pairs as they are,
and ``Fraction``s are built only at the public boundary, by
:func:`subdivide` and the two chain functions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ._record import record
from .errors import BudgetExceededError, InfeasibleError, InvalidInputError
from .farey import FareyPair
from .rationals import _as_fraction, _fraction_text, _int_text, _require_int


@record
class Subdivision:
    """Strictly increasing reduced points covering a bracketing interval.

    Consecutive gaps are all <= gap_bound and every denominator is
    <= denom_bound; the first and last points are the interval endpoints.
    """

    points: tuple[Fraction, ...]
    gap_bound: Fraction
    denom_bound: int


def _require_count(count: int) -> None:
    _require_int(count, 0, "chain length must be a nonnegative integer")


def _rungs(start: Fraction, step: Fraction, count: int) -> list[tuple[int, int]]:
    # The rungs off the reduced start = h/k toward step = dh/dk, as pairs
    # (h + i*dh, k + i*dk) for i = 0..count; dk >= 1, so the range of k's
    # ends the zip, and itertools.count repeats h when dh = 0 (a chain off
    # 0/1).
    k, dk = start.denominator, step.denominator
    return list(zip(itertools.count(start.numerator, step.numerator), range(k, k + (count + 1) * dk, dk)))


def descending_chain(base: FareyPair, count: int) -> tuple[Fraction, ...]:
    """Terms (h2 + i*h1)/(k2 + i*k1) for i = 0..count, all reduced.

    They start at base.right and strictly decrease toward base.left.
    """
    _require_count(count)
    return tuple(Fraction(h, k) for h, k in _rungs(base.right, base.left, count))


def ascending_chain(base: FareyPair, count: int) -> tuple[Fraction, ...]:
    """Terms (h1 + j*h2)/(k1 + j*k2) for j = 0..count, all reduced.

    They start at base.left and strictly increase toward base.right.
    """
    _require_count(count)
    return tuple(Fraction(h, k) for h, k in _rungs(base.left, base.right, count))


def descending_step_gap(base: FareyPair, i: int) -> Fraction:
    """Exact gap term(i) - term(i+1) of the descending chain, in closed form."""
    _require_count(i)
    k1, k2 = base.left.denominator, base.right.denominator
    return Fraction(1, (k2 + i * k1) * (k2 + (i + 1) * k1))


def descending_tail_gap(base: FareyPair, i: int) -> Fraction:
    """Exact distance term(i) - base.left of the descending chain."""
    _require_count(i)
    k1, k2 = base.left.denominator, base.right.denominator
    return Fraction(1, k1 * (k2 + i * k1))


def ascending_step_gap(base: FareyPair, j: int) -> Fraction:
    """Exact gap term(j+1) - term(j) of the ascending chain, in closed form."""
    _require_count(j)
    k1, k2 = base.left.denominator, base.right.denominator
    return Fraction(1, (k1 + j * k2) * (k1 + (j + 1) * k2))


def ascending_tail_gap(base: FareyPair, j: int) -> Fraction:
    """Exact distance base.right - term(j) of the ascending chain."""
    _require_count(j)
    k1, k2 = base.left.denominator, base.right.denominator
    return Fraction(1, k2 * (k1 + j * k2))


def _plan_subdivision(
    base: FareyPair, gap_bound: Fraction, denom_bound: int, max_points: int
) -> list[tuple[int, int]]:
    """The points :func:`subdivide` returns, as (numerator, denominator) pairs.

    Makes every check of :func:`subdivide`, in the same order and with the
    same messages; ``gap_bound`` must already be a Fraction.  The points
    are the endpoints with one chain of rungs (:func:`_rungs`) between
    them, of the smallest length p >= 0 that meets the bound; a pair whose
    own gap already meets it is the chain of length 0.
    """
    if gap_bound <= 0:
        raise InvalidInputError("gap bound must be positive")
    _require_int(denom_bound, 1, "denominator bound must be a positive integer")
    _require_int(max_points, 2, "max_points must be at least 2")
    h1, k1 = base.left.numerator, base.left.denominator
    h2, k2 = base.right.numerator, base.right.denominator
    if max(k1, k2) > denom_bound:
        raise InfeasibleError(
            f"endpoint denominators {_int_text(k1)}, {_int_text(k2)} already exceed the bound "
            f"{_int_text(denom_bound)}"
        )
    descending = k2 >= k1
    anchor, step = (k2, k1) if descending else (k1, k2)
    # Smallest chain length p with tail gap 1/(step*(anchor + p*step))
    # <= gap_bound.  The pair is unimodular, so p = 0, the two endpoints,
    # exactly when its own gap 1/(k1*k2) meets the bound; then no check
    # below can fire.
    gn, gd = gap_bound.numerator, gap_bound.denominator
    needed_den = -(-gd // (gn * step))
    p = max(0, -((anchor - needed_den) // step))
    widest_den = anchor * (anchor + step)
    if gd > gn * widest_den:
        raise InfeasibleError(
            f"gap next to the anchor endpoint is 1/{_int_text(widest_den)} > "
            f"{_fraction_text(gap_bound)} for every chain length"
        )
    if anchor + p * step > denom_bound:
        raise InfeasibleError(
            f"gap bound {_fraction_text(gap_bound)} needs a chain denominator of "
            f"{_int_text(anchor + p * step)} > {_int_text(denom_bound)}"
        )
    if p + 2 > max_points:
        raise BudgetExceededError(
            f"subdivision needs {_int_text(p + 2)} points, max_points={_int_text(max_points)}"
        )
    if descending:
        return [(h1, k1)] + _rungs(base.right, base.left, p)[::-1]
    return _rungs(base.left, base.right, p) + [(h2, k2)]


def subdivide(
    base: FareyPair,
    gap_bound: Fraction,
    denom_bound: int,
    max_points: int = 10_000,
) -> Subdivision:
    """Subdivide [base.left, base.right] into reduced points with small gaps.

    If the pair's own gap already satisfies the bound, the two endpoints
    are returned.  Otherwise a single mediant chain is grown from the
    larger-denominator endpoint toward the other one (for the only
    equal-denominator pair, 0/1 < 1/1, the descending side is used by
    convention), with the minimal length that brings the remaining tail
    gap under the bound.  The chain's own rung gaps shrink as it grows
    longer, so the widest of them - the one next to the anchor endpoint -
    is a hard floor: if it exceeds the bound, no chain length helps.

    Raises InfeasibleError when the bound is unreachable under
    ``denom_bound`` and BudgetExceededError when more than ``max_points``
    points would be needed.
    """
    gap_bound = _as_fraction(gap_bound)
    pairs = _plan_subdivision(base, gap_bound, denom_bound, max_points)
    points = tuple(Fraction(h, k) for h, k in pairs)
    return Subdivision(points, gap_bound, denom_bound)
