"""Farey pairs, a reference Farey bracket and exhaustive reference checks
for mediant subdivision, shared by the unit tests and the acceptance suite
(pytest puts this directory on sys.path)."""

import math
from fractions import Fraction as F
from functools import cache

from fareyapprox import FareyPair, farey_sequence


@cache
def consecutive_pairs(order):
    terms = list(farey_sequence(order))
    return [FareyPair(a, b, order) for a, b in zip(terms, terms[1:])]


def feasible_by_enumeration(base, gap_bound, denom_bound):
    # Walk every chain prefix the denominator bound allows; the max gap of
    # prefix p is the running max of rung gaps plus the tail gap, all by
    # direct subtraction of chain terms.
    left, right = base.left, base.right
    if max(left.denominator, right.denominator) > denom_bound:
        return False
    if right - left <= gap_bound:
        return True
    if right.denominator >= left.denominator:
        h, k = left.numerator, left.denominator
        hc, kc = right.numerator, right.denominator
        far = left
    else:
        h, k = right.numerator, right.denominator
        hc, kc = left.numerator, left.denominator
        far = right
    rung_max = F(0)
    p = 1
    while kc + p * k <= denom_bound:
        a = F(hc + (p - 1) * h, kc + (p - 1) * k)
        b = F(hc + p * h, kc + p * k)
        rung_max = max(rung_max, abs(a - b))
        if max(rung_max, abs(far - b)) <= gap_bound:
            return True
        p += 1
    return False


def subdivision_failures(points, base, gap_bound, denom_bound):
    # The ways the points can fail to subdivide base within the bounds;
    # adjacent points are unimodular because each step is a mediant.
    pairs = list(zip(points, points[1:]))
    checks = (
        ("endpoint not preserved", points[0] == base.left and points[-1] == base.right),
        ("gap bound or ordering violated", all(a < b <= a + gap_bound for a, b in pairs)),
        ("adjacent points not unimodular",
         all(a.denominator * b.numerator - a.numerator * b.denominator == 1 for a, b in pairs)),
        ("denominator bound violated", all(p.denominator <= denom_bound for p in points)),
    )
    return [name for name, ok in checks if not ok]


def mediant_bracket(x, order):
    # The consecutive terms a/b < x < c/d of F_order, for x in (0, 1) whose
    # denominator exceeds the order, by the order-capped mediant loop that
    # farey_neighbors ran before it read its pair off the shared descent.
    xn, xd = x.numerator, x.denominator
    a, b, c, d = 0, 1, 1, 1
    while b + d <= order:
        if xn * (b + d) < xd * (a + c):
            num = c * xd - xn * d
            den = xn * b - a * xd
            j = min((num - 1) // den, (order - d) // b)
            c, d = j * a + c, j * b + d
        else:
            num = xn * b - a * xd
            den = c * xd - xn * d
            j = min((num - 1) // den, (order - b) // d)
            a, b = a + j * c, b + j * d
    return a, b, c, d


def best_at_order(y, order):
    # compose's nearer Farey endpoint of frac(y) in Fraction arithmetic,
    # ties to the left one, shifted back by floor(y).
    n = math.floor(y)
    f = y - n
    if f.denominator <= order:
        p, q = f.numerator, f.denominator
    else:
        a, b, c, d = mediant_bracket(f, order)
        p, q = (a, b) if f - F(a, b) <= F(c, d) - f else (c, d)
    return n * q + p, q
