"""Farey pairs and exhaustive reference checks for mediant subdivision,
shared by the unit tests and the acceptance suite (pytest puts this
directory on sys.path)."""

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
