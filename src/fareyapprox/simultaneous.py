"""Simultaneous rational approximation under a joint error/denominator budget.

The central question: given targets x_1..x_n with tolerance weights
t_1..t_n and a scale eps > 0, find one denominator q and numerators p_i
with

    |x_i - p_i/q| <= eps * t_i   for every i,   and   eps * q <= min_i t_i.

The denominator condition caps q at t_min/eps, so the whole search space
is the finite range q = 1 .. floor(t_min/eps); :func:`brute_force_solve`
decides it exactly and is the ground-truth oracle every other method is
checked against.  :func:`dirichlet_solve` is the classical pigeonhole
baseline (error <= 1/(Tq) with q < T**n), whose denominator bound blows
up exponentially in n; :func:`compare` puts the two side by side.
:func:`epsilon_threshold` sweeps a grid of eps values and reports the
empirical feasibility frontier with the oracle's scan, run once per
point: a q that misses the error bounds at some eps misses them at every
smaller eps, so each point starts at the previous point's witness (the
witnesses are records of max_i ||q*x_i|| / (q*t_i), the best simultaneous
approximations of Lagarias 1982).  A point that witness does not settle
walks on from it, so a sweep walks each q of its overall range at most
once, and a point it settles reuses its answer.

No scan tests every q of its range.  A q that fits every item fits one
pivot item, and the q whose ||q*x|| lies in a window are the return times
of the rotation q -> q*x mod 1 to an interval, which by the three-gap
theorem (Sós 1958; Slater 1967) follow each other by one of three gaps.
:func:`_first_fit`, the one scan of the oracle, the sweep and the
baseline, steps from one such q to the next, block by block, on
word-size convergents of the pivot and of the first item tested; its
docstring states the walk's invariants and argues each of them.
:func:`_plan` puts the items of an oracle or sweep scan in test order
(the baseline's need no sort), :func:`_walk` builds the convergents and
the Stern-Brocot descent the steps are read off once per plan,
:func:`_fits` is the one exact integer test of every item, so the answers
are those of a full scan, and :func:`_solution` is the one builder of a
scan's answer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence, Union

from ._record import record
from .errors import BudgetExceededError, InternalError, InvalidInputError
from .farey import _bracket, _convergent, _descent, _steps
from .rationals import _PRINT_LIMIT

#: Default cap on exhaustive denominator scans.
DEFAULT_MAX_SCAN = 10_000_000

# Cap on the common denominator that compose_solve builds stage by stage.
_MAX_COMPOSE_DENOMINATOR = 10**30

# Hits per block that _first_fit's block length lets a block walk beyond
# those of per-q windows: about one block's set-up cost, in hits.
_BLOCK_EXCESS = 8


@record
class ConstraintSet:
    """The finite list of (target, tolerance weight) pairs."""

    items: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        items = tuple((Fraction(x), Fraction(t)) for x, t in self.items)
        if not items:
            raise InvalidInputError("constraint set must contain at least one item")
        if any(t <= 0 for _, t in items):
            raise InvalidInputError("tolerance weights must be positive")
        object.__setattr__(self, "items", items)

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def xs(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.items)

    @property
    def t_min(self) -> Fraction:
        return min(t for _, t in self.items)


@record
class Solution:
    """A common denominator q with numerators and exact per-item errors.

    ``epsilon`` records the scale the solution was produced for (1/T for
    the pigeonhole baseline).  ``satisfies_constraints`` is set only by
    the composition heuristic, which does not guarantee the joint
    constraint and says so explicitly.
    """

    q: int
    ps: tuple[int, ...]
    errors: tuple[Fraction, ...]
    epsilon: Fraction
    method: str
    satisfies_constraints: bool | None = None

    @property
    def max_error(self) -> Fraction:
        return max(self.errors)


@record
class Infeasible:
    """Negative verdict of an exhaustive scan, with the reason."""

    reason: str


@record
class ItemCheck:
    error_ok: bool
    exact_error: Fraction
    bound: Fraction


@record
class CheckReport:
    per_item: tuple[ItemCheck, ...]
    denom_ok: bool
    overall: bool


@record
class ThresholdReport:
    """Feasibility of each grid point plus the measured frontier.

    ``epsilon0`` is the largest grid point such that every grid point at
    or below it is feasible (None if the smallest point already fails);
    it is a statement about the supplied grid only, never an
    extrapolation to off-grid scales.
    """

    grid: tuple[Fraction, ...]
    feasible: tuple[bool, ...]
    epsilon0: Fraction | None
    witnesses: tuple[Solution | None, ...]


@record
class ComparisonReport:
    epsilon: Fraction
    constrained: Union[Solution, Infeasible]
    dirichlet_T: int
    dirichlet: Solution
    q_bound_constrained: Fraction
    q_bound_dirichlet: int
    max_error_constrained: Fraction | None
    max_error_dirichlet: Fraction


def best_numerator(x: Fraction, q: int) -> int:
    """The integer p minimizing |x - p/q|; exact ties go to the smaller p."""
    if not isinstance(q, int) or q < 1:
        raise InvalidInputError("denominator must be a positive integer")
    return _nearest(Fraction(x), q)


def _nearest(x: Fraction, q: int) -> int:
    # The numerator p nearest q*x, exact ties to the smaller p.
    p, r = divmod(x.numerator * q, x.denominator)
    return p + 1 if 2 * r > x.denominator else p


def _positive_epsilon(epsilon: Fraction) -> Fraction:
    # A Fraction is immutable, so an exact one is passed through, not copied.
    epsilon = epsilon if type(epsilon) is Fraction else Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    return epsilon


def _check_budget(max_scan: int) -> None:
    if not isinstance(max_scan, int) or max_scan < 0:
        raise InvalidInputError("max_scan must be a nonnegative integer")


def check_solution(
    cs: ConstraintSet,
    epsilon: Fraction,
    q: int,
    ps: Sequence[int],
) -> CheckReport:
    """Exact check of the joint constraint for a proposed (q, ps).

    Per item: |x_i - p_i/q| <= eps*t_i, non-strict as in the constraint;
    ``per_item`` carries each exact error and bound, so a caller can
    read a strict test off it.  The denominator condition is tested in
    its equivalent single form eps*q <= t_min.  ``overall`` is the
    conjunction of everything.
    """
    epsilon = _positive_epsilon(epsilon)
    if not isinstance(q, int) or q < 1:
        raise InvalidInputError("q must be a positive integer")
    if len(ps) != cs.n:
        raise InvalidInputError(f"expected {cs.n} numerators, got {len(ps)}")
    if not all(isinstance(p, int) for p in ps):
        raise InvalidInputError("numerators must be integers")
    per_item = []
    for (_, t), err in zip(cs.items, _exact_errors(cs.xs, q, ps)):
        bound = epsilon * t
        per_item.append(ItemCheck(err <= bound, err, bound))
    denom_ok = epsilon * q <= cs.t_min
    overall = denom_ok and all(item.error_ok for item in per_item)
    return CheckReport(tuple(per_item), denom_ok, overall)


def _exact_errors(xs: Sequence[Fraction], q: int, ps: Sequence[int]) -> tuple[Fraction, ...]:
    # |x - p/q| = |xn*q - p*xd| / (xd*q) for x = xn/xd: one normalisation
    # per item.
    return tuple(
        Fraction(abs(x.numerator * q - p * x.denominator), x.denominator * q)
        for x, p in zip(xs, ps)
    )


def _count_text(count: int) -> str:
    # A count for a message: in decimal if str() prints it under the digit
    # limit in force, else by its size, as a lower bound.
    try:
        return str(count)
    except ValueError:
        return f"2**{count.bit_length() - 1} or more"


def _first_in_window(a: int, b: int, m: int, w: int) -> int | None:
    """Smallest j >= 0 with (a*j + b) mod m < w, or None if there is none.

    With a and b reduced mod m and b >= w, a hit is a j with a*j in
    [k*m - b, k*m - b + w) for some k >= 1.  A step a <= w cannot jump over
    such an interval, so the first j past m - b is the answer.  For a > w
    each interval holds at most one multiple of a, and it holds one when
    ((m mod a)*(k-1) + (m - b + w - 1)) mod a < w: the same question with
    modulus a, so (m, a) shrinks as in Euclid's algorithm and the descent
    takes O(log m) rounds.  Each round's answer k - 1 gives the round
    before it j = (k*m - b + w - 1) // a.
    """
    a, b = a % m, b % m
    rounds = []
    while b >= w:
        if a == 0:
            return None
        if a <= w:
            j = (m - b + a - 1) // a
            break
        rounds.append((a, b, m))
        a, b, m = m % a, (m - b + w - 1) % a, a
    else:
        j = 0
    for a, b, m in reversed(rounds):
        j = ((j + 1) * m - b + w - 1) // a
    return j


def _fits(items: Sequence[tuple[int, int, int, int, int]], q: int) -> bool:
    """Whether the nearest numerators of q fit every item (xn, xd, a, c, den).

    Item x = xn/xd fits q when d * den <= a*q + c, where d = xd * ||q*x||
    = |xn*q - p*xd| for the numerator p nearest q*x, exact ties to the
    smaller p (:func:`_nearest` computes those p).  d is the remainder
    r = xn*q mod xd or xd - r, whichever is smaller (a tie gives the same
    d either way), so the test costs one remainder per item until an item
    rejects q, and no numerator is computed.
    """
    for xn, xd, a, c, den in items:
        r = xn * q % xd
        if (xd - r if r > xd >> 1 else r) * den > a * q + c:
            return False
    return True


def _first_fit(
    items: Sequence[tuple[int, int, int, int, int]],
    lo: int,
    hi: int,
    walk: tuple,
) -> int | None:
    """Smallest q in lo..hi that :func:`_fits` the items, or None.

    Each item is (xn, xd, a, c, den) with xn/xd in lowest terms, a >= 0,
    den >= 1 and a*b + c >= 0 at every block end b below (so c = -1 with
    a >= 1, a strict bound, is allowed).  ``walk`` is :func:`_walk`'s for
    a plan whose first item and pivot (the last item) are these items',
    and a top >= hi.  lo is tested first.  The other candidates are the q
    above it whose pivot lies in its window: a*q + c does not decrease in
    q, so on a block of q ending at b (at most hi) a q that fits the pivot
    has xd * ||q*x|| <= h = (a*b + c) // den, and no fit is missed.  h
    does not decrease in b, so a hit of one block's window is a hit of the
    next block's, and any partition of lo+1..hi into blocks gives the same
    answer.

    The walk steps on the pivot's convergent pn/pb from ``walk``, not on
    x = xn/xd itself, so it carries residues below pb, about top, where xd
    can have hundreds of bits.  For q <= top the distances pb*||q*pn/pb||
    and pb*||q*x|| differ by less than one unit, q*|pb*xn - pn*xd| / xd,
    as top*|pb*xn - pn*xd| < xd (farey._convergent).  So a q with
    xd * ||q*x|| <= h has pb*||q*pn/pb|| < pb*h/xd + 1, an integer, at
    most h' = ceil(pb*h/xd), h rounded up to the next step of 1/pb: the
    window h' (h itself when pb = xd, a walk on x) takes in every hit of
    h, and about 2*top/pb <= 2 more q per scan.  This is why hi <= top.

    The blocks have one length L from lo + 1, the last cut at hi.  A block
    that takes its end's window for every q walks about a*L**2/(den*xd)
    hits of the pivot that the window of each q's own would not, so
    L = isqrt(K*den*xd // a) + 1, K = _BLOCK_EXCESS, keeps that excess
    near K hits, about one block's set-up, while a full block offers at
    least about 2*K.  A fixed window (a = 0, the Dirichlet bound) is one
    block.  For the oracle's items, a/(den*xd) = eps*t and an item fits
    every q >= 1/(2*eps*t), since xd * ||q*x|| <= xd/2; the pivot has the
    smallest t, so a scan ends by q = ceil(1/(2*eps*t_pivot)), and as L >
    sqrt(K/(eps*t_pivot)) it walks at most ceil(1/(2*sqrt(K*eps*t_pivot)))
    blocks.

    The hits of a window follow each other by one of three gaps (Sós 1958),
    read once per block by :func:`_steps` off the walk's descent on pn/pb,
    shared with the caller's other scans, which gives gaps of 1 once the
    window covers every residue.  The walk starts in the first block at the
    last hit at or below lo, which :func:`_first_in_window` finds by walking
    back from lo (q = 0 always hits, so there is one), and it carries into
    each later block the last hit of the blocks before.  A wider window can
    take in a q between that hit and the block's start; such a q missed its
    own block's window, so it fails the pivot's exact test.  The first item,
    which rejects most candidates, gets its own block window fh first, in
    the pivot's form and on its own convergent fn/fb from ``walk``, rounded
    up the same way: its remainder shifted by fh, r = (fn*q + fh) mod fb, is
    below 2*fh + 1 exactly when fb * ||q*fn/fb|| <= fh (for every q once
    2*fh + 1 >= fb), so a hit is rejected by one compare against a per-block
    integer, and only the others pay the exact test.  A hit that passes it
    nearly always fits the first item, so its exact test takes the items in
    the order ``[*items[1:], items[0]]``: an item that rejects it is reached
    one remainder sooner.  lo, which no window filtered and which the first
    item rejects most often, is tested in plan order.  r is seeded once per
    block at the carried q and then carried: each of the three gaps moves it
    by its own residue step f_k (the remainders of q1, q2 and q1 + q2), and
    r + f_k wraps exactly when r >= fb - f_k.  Those thresholds, and the
    three-gap rule's w - u, u - v and q1 + q2, are computed once per block,
    so a hit costs one branch, which updates s, q and r in place and wraps r
    with one compare, then the test q > last and the window compare.  The
    step that passes a block's end is not tested for in advance; it is read
    back off where it left s and taken back, so the next block starts at the
    last hit at or below the end.  As u + v >= w, the three ranges s can be
    left in are disjoint: [u, w) after q1, [w - v, u) after q1 + q2 and
    [0, w - v) after q2 (a window that covers every residue can have
    u + v < w, but then q1 = q2 = 1 and the walk takes no q1 + q2 step).  So
    the walk offers, in order, every q that a walk on x's own windows would
    offer and a few more, and each inside the first item's window goes
    through the exact test of every item, the first item last.
    """
    if lo > hi:
        return None
    if _fits(items, lo):
        return lo
    _, pd, pa, pc, pden = items[-1]
    _, fd, fa, fc, fden = items[0]
    exact = [*items[1:], items[0]]
    pn, pb, path, fn, fb = walk
    size = math.isqrt(_BLOCK_EXCESS * pden * pd // pa) + 1 if pa else hi - lo + 1
    q = None
    for first in range(lo + 1, hi + 1, size):
        last = min(first + size - 1, hi)
        h = -(-pb * ((pa * last + pc) // pden) // pd)
        w = 2 * h + 1
        # Shifted residues s = (pn*q + h) mod pb put the window at 0..w-1.
        # q1 is the first q >= 1 whose residue moves forward by u < w, q2
        # the first whose residue moves back by v < w.
        q1, u, q2, v = _steps(path, w)
        if q is None:
            # Walking back from lo moves the residue by -pn per step.
            q = lo - _first_in_window(-pn, pn * lo + h, pb, w)
        s = (pn * q + h) % pb
        # The first item's residue, shifted the same way: r = (fn*q + fh)
        # mod fb puts its window at 0..fw-1.  r moves by f1, f2 or f3, that
        # of the step taken, each below fb: r + f_k wraps when r >= fb - f_k.
        fh = -(-fb * ((fa * last + fc) // fden) // fd)
        fw = 2 * fh + 1
        r = (fn * q + fh) % fb
        f1, f2 = fn * q1 % fb, fn * q2 % fb
        f3 = (f1 + f2) % fb
        wu, uv, q3 = w - u, u - v, q1 + q2
        g1, g2, g3 = fb - f1, fb - f2, fb - f3
        while True:
            # Three-gap rule: u + v >= w, so at most one of s + u and s - v
            # stays in the window; when neither does, s + u - v does.
            if s < wu:
                s += u
                q += q1
                r = r - g1 if r >= g1 else r + f1
            elif s >= v:
                s -= v
                q += q2
                r = r - g2 if r >= g2 else r + f2
            else:
                s += uv
                q += q3
                r = r - g3 if r >= g3 else r + f3
            if q > last:
                break
            if r < fw and _fits(exact, q):
                return q
        # The step past last left s in [u, w) after q1, in [w - v, u) after
        # q1 + q2 and in [0, w - v) after q2: take it back, so the next
        # block starts at the last hit at or below last.
        q -= q1 if s >= u else q3 if s >= w - v else q2
    return None


def _plan(items: Iterable[tuple[Fraction, Fraction]]) -> list:
    """Integer parts (xn, xd, tn, td) of the items in test order.

    The pivot, whose error window :func:`_first_fit` walks, is the first
    item with the smallest weight t_i, so a scan visits at most about
    2*t_pivot*t_min of its range.  Every candidate is in the pivot's
    window, so it comes last, and the others from the smallest weight up,
    ties in input order: a miss shows sooner.  :func:`_first_fit` tests
    the lower end of its range in this order; a candidate of its walk is
    in the first item's window too, so its test takes the first item
    after the pivot, last.  One stable sort by weight puts the pivot
    first, and it moves to the end.  Item i is x_i = xn/xd with weight
    t_i = tn/td.
    """
    ordered = sorted(items, key=itemgetter(1))
    ordered.append(ordered.pop(0))
    return [(x.numerator, x.denominator, t.numerator, t.denominator) for x, t in ordered]


def _walk(parts: Sequence[tuple[int, ...]], top: int) -> tuple:
    """The walk of :func:`_first_fit` for the plan's scans with hi <= top.

    ``parts`` are the plan's items in test order, each starting with its
    target's (xn, xd): the first is the first item tested, the last the
    pivot.  The walk is (a, b, path, c, e): the pivot's convergent a/b
    and the first item's c/e, each the target itself if its denominator
    is at most top and else its first convergent with denominator >= top
    (farey._convergent), and the descent on a/b (farey._descent), which
    the scans extend in place.  A plan builds it once for the largest q
    any of its scans can reach, so a sweep descends a/b once for all its
    points.
    """
    first, pivot = parts[0][:2], parts[-1][:2]
    a, b = _convergent(*pivot, top)
    c, e = (a, b) if first == pivot else _convergent(*first, top)
    return a, b, _descent(a, b), c, e


def _solution(xs: Sequence[Fraction], q: int, epsilon: Fraction, method: str) -> Solution:
    # The nearest numerators of a scan's q, as _first_fit's test takes them.
    ps = [_nearest(x, q) for x in xs]
    return Solution(q, tuple(ps), _exact_errors(xs, q, ps), epsilon, method)


def _smallest_witnesses(
    cs: ConstraintSet,
    grid: Sequence[Fraction],
    pairs: Sequence[tuple[int, int]],
    max_scan: int,
) -> list[tuple[int, Solution | None]]:
    """Range end floor(t_min/eps) and smallest-q solution of each grid point.

    The grid must be strictly descending, and ``pairs`` holds each point's
    (numerator, denominator).  A q that fails the error bounds at some eps
    fails them at every smaller eps, so point k needs no q below the
    witness of point k-1, or below the end of its range when it had none.
    Each point therefore starts at that q, which it tests first and which
    settles most points of a fine grid at once; a point it does not settle
    walks on from that q, so the sweep walks each q of its overall range
    at most once.  No point is skipped, because feasibility is not
    monotone in eps (a large eps can have an empty range while smaller
    ones are feasible).  The first point, in grid order, whose range
    exceeds ``max_scan`` and that has no witness within it raises
    BudgetExceededError, as a per-point scan would.

    Once per sweep, in integers from the numerators and denominators of
    x_i and t_i: the plan (:func:`_plan`), every point's range end, the
    one walk (:func:`_walk`), built for the last point's range, the
    largest, so the pivot's convergent is descended once, and each item's
    bound factors tn*xd and td.  Per point: each item's bound takes the
    point's (en, ed) in one product each, and one :func:`_first_fit` call
    finds the witness.  A witness that is the previous point's q reuses
    that point's numerators and errors, which do not depend on eps, so a
    sweep builds one answer (:func:`_solution`) per distinct q.
    """
    parts = _plan(cs.items)
    *_, tn_min, td_min = parts[-1]
    ends = [(tn_min * ed) // (td_min * en) for en, ed in pairs]
    # The last point's range end is the largest.
    walk = _walk(parts, min(ends[-1], max_scan))
    # Integer form: |x - p/q| <= eps*t with x = xn/xd, eps = en/ed and
    # t = tn/td becomes d * ed*td <= en*tn*xd * q with d = xd * ||q*xn/xd||;
    # tn*xd and td are the same at every point.  The bound en*tn/(ed*td) is
    # left unreduced: the test and the window floor((a*b + c)/den) depend
    # only on its value, so they match those of the reduced eps*t and need
    # no gcd.
    factors = [(xn, xd, tn * xd, td) for xn, xd, tn, td in parts]
    xs = cs.xs
    points: list[tuple[int, Solution | None]] = []
    start, witness = 1, None
    for epsilon, (en, ed), q_max in zip(grid, pairs, ends):
        limit = min(q_max, max_scan)
        items = [(xn, xd, en * a, 0, ed * td) for xn, xd, a, td in factors]
        q = _first_fit(items, start, limit, walk)
        if q is not None:
            if witness is not None and q == witness.q:
                witness = Solution(q, witness.ps, witness.errors, epsilon, "brute")
            else:
                witness = _solution(xs, q, epsilon, "brute")
            points.append((q_max, witness))
            start = q
            continue
        if q_max > max_scan:
            raise BudgetExceededError(
                f"scan budget exhausted after {_count_text(max_scan)} of "
                f"{_count_text(q_max)} denominators"
            )
        points.append((q_max, None))
        start, witness = limit + 1, None
    return points


def brute_force_solve(
    cs: ConstraintSet,
    epsilon: Fraction,
    max_scan: int = DEFAULT_MAX_SCAN,
) -> Union[Solution, Infeasible]:
    """Exhaustive smallest-q solver; the oracle for everything else.

    Decides the range q = 1 .. floor(t_min/eps) with p_i chosen as the
    nearest numerator, and returns the first q whose exact errors all
    fit.  It walks the error window of the pivot item, the first with the
    smallest t_i, and puts each q there through the exact test of every
    item, so its answer is that of a full scan.  If the scan range exceeds
    ``max_scan`` and no solution appears within the budget,
    BudgetExceededError is raised rather than guessing.
    """
    epsilon = _positive_epsilon(epsilon)
    _check_budget(max_scan)
    pair = (epsilon.numerator, epsilon.denominator)
    [(q_max, witness)] = _smallest_witnesses(cs, (epsilon,), (pair,), max_scan)
    if witness is not None:
        return witness
    if q_max < 1:
        return Infeasible("denominator range empty: floor(t_min/epsilon) = 0")
    return Infeasible(f"no feasible denominator in 1..{q_max}")


def _best_at_order(y: Fraction, order: int) -> tuple[int, int]:
    # Nearest endpoint of the Farey bracketing of frac(y) at the given
    # order, shifted back by floor(y): p1/q1 when y is at or below the
    # midpoint of the bracket, so ties go to the smaller value.
    yn, yd = y.numerator, y.denominator
    if yd <= order:
        return yn, yd
    p1, q1, p2, q2 = _bracket(yn, yd, order)
    if 2 * yn * q1 * q2 <= yd * (p1 * q2 + p2 * q1):
        return p1, q1
    return p2, q2


def compose_solve(cs: ConstraintSet, epsilon: Fraction) -> Solution:
    """Common-denominator composition heuristic.

    The common denominator q starts at 1.  Stage k approximates q * x_k
    by Farey bracketing at order ceil(1/eps), the natural scale of eps,
    as p_k/q_k, and multiplies the denominators: q <- q * q_k, with
    earlier numerators rescaled by q_k; stage 1 so approximates x_1
    itself.  The result carries exact errors and a
    ``satisfies_constraints`` flag computed by :func:`check_solution`;
    nothing guarantees the flag is True, which is the point of reporting
    it.  Every stage is capped, the first one too: a stage whose common
    denominator would pass 10**30 raises BudgetExceededError.
    """
    epsilon = _positive_epsilon(epsilon)
    stage_order = math.ceil(1 / epsilon)
    q, ps = 1, []
    for x in cs.xs:
        pk, qk = _best_at_order(x * q, stage_order)
        if q * qk > _MAX_COMPOSE_DENOMINATOR:
            raise BudgetExceededError(
                f"stage denominator {_count_text(q * qk)} exceeds cap "
                f"{_count_text(_MAX_COMPOSE_DENOMINATOR)}"
            )
        ps = [p * qk for p in ps]
        ps.append(pk)
        q *= qk
    ps_t = tuple(ps)
    report = check_solution(cs, epsilon, q, ps_t)
    errors = tuple(item.exact_error for item in report.per_item)
    return Solution(q, ps_t, errors, epsilon, "compose", satisfies_constraints=report.overall)


def dirichlet_solve(
    xs: Sequence[Fraction],
    T: int,
    max_scan: int = DEFAULT_MAX_SCAN,
) -> Solution:
    """Smallest q with 1 <= q < T**n and every ||q*x_i|| <= 1/T.

    Such a q exists by the pigeonhole argument, so an exhausted scan is
    reported as InternalError rather than infeasibility.  The recorded
    epsilon is 1/T, the guaranteed per-item scale (errors are <= 1/(Tq)).
    The scan's items are built from the targets directly, in input order
    with x_1 moved last as the pivot whose window :func:`_first_fit`
    walks (the order :func:`_plan` gives uniform weights); each has the
    fixed test d * T <= xd, d = xd * ||q*x||, which is exactly
    ||q*x|| <= 1/T, so a scan visits about 2/T of its range.  It walks on
    the convergents for q up to T**n - 1 (:func:`_walk`).  An exact
    Fraction target is passed through, not copied.
    """
    xs = tuple(x if type(x) is Fraction else Fraction(x) for x in xs)
    if not xs:
        raise InvalidInputError("need at least one target")
    if not isinstance(T, int) or T < 2:
        raise InvalidInputError("T must be an integer >= 2")
    _check_budget(max_scan)
    # T**n >= 2**k.  Once k reaches the bit lengths of both max_scan + 1 and
    # the print limit, T**n - 1 is past the budget and too long to print, so
    # the message gives its size without taking the power, which takes
    # seconds for a long T and many targets.  Otherwise k is small or the
    # budget is huge, and T**n < 4**k (as n <= k) costs little next to either.
    k = len(xs) * (T.bit_length() - 1)
    if k >= max((max_scan + 1).bit_length(), _PRINT_LIMIT.bit_length()):
        raise BudgetExceededError(
            f"T**n - 1 = 2**{k - 1} or more exceeds scan budget {_count_text(max_scan)}"
        )
    q_max = T ** len(xs) - 1
    if q_max > max_scan:
        raise BudgetExceededError(
            f"T**n - 1 = {_count_text(q_max)} exceeds scan budget {_count_text(max_scan)}"
        )
    # ||q*x|| <= 1/T is d * T <= xd with d = xd * ||q*x||; the pivot x_1
    # goes last.
    items = [(x.numerator, x.denominator, 0, x.denominator, T) for x in [*xs[1:], xs[0]]]
    q = _first_fit(items, 1, q_max, _walk(items, q_max))
    if q is not None:
        return _solution(xs, q, Fraction(1, T), "dirichlet")
    raise InternalError(
        f"no q in 1..{q_max} with all distances <= 1/{T}; "
        "this contradicts the pigeonhole guarantee for exact inputs"
    )


def epsilon_threshold(
    cs: ConstraintSet,
    grid: Iterable[Fraction],
    max_scan: int = DEFAULT_MAX_SCAN,
) -> ThresholdReport:
    """Decide every grid point exactly and locate the feasible suffix.

    The grid must be strictly descending and positive.  Each point gets
    the witness :func:`brute_force_solve` would return for it.  A point
    first tests the previous point's witness, which settles most points
    of a fine grid; a point it does not settle walks on from there to its
    witness or to the end of its range, so a sweep costs about one walk
    over its largest range, plus O(log) steps per point to start a walk.
    The grid is validated on its points' integer (numerator, denominator)
    pairs, which the sweep then reads: it sets up its plan, walk, range
    ends and each item's bound factors once, and a point only multiplies
    its own pair into the bounds and runs its scan.  A point settled by
    the previous point's witness reuses that witness's numerators and
    errors under its own epsilon, so one answer is built per distinct q.
    Feasibility is reported pointwise (no monotonicity in eps is
    assumed); epsilon0 is the top of the unbroken feasible suffix, if
    any.  BudgetExceededError is raised for the first point whose range
    exceeds ``max_scan`` and that has no witness within it.
    """
    grid = tuple(g if type(g) is Fraction else Fraction(g) for g in grid)
    if not grid:
        raise InvalidInputError("grid must be nonempty")
    pairs = [(g.numerator, g.denominator) for g in grid]
    if any(gn <= 0 for gn, _ in pairs):
        raise InvalidInputError("grid points must be positive")
    if any(an * bd <= bn * ad for (an, ad), (bn, bd) in zip(pairs, pairs[1:])):
        raise InvalidInputError("grid must be strictly descending")
    _check_budget(max_scan)
    witnesses = [w for _, w in _smallest_witnesses(cs, grid, pairs, max_scan)]
    feasible = tuple(w is not None for w in witnesses)
    epsilon0 = None
    for g, ok in zip(reversed(grid), reversed(feasible)):
        if not ok:
            break
        epsilon0 = g
    return ThresholdReport(grid, feasible, epsilon0, tuple(witnesses))


def compare(
    cs: ConstraintSet,
    epsilon: Fraction,
    T: int,
    max_scan: int = DEFAULT_MAX_SCAN,
) -> ComparisonReport:
    """Constrained solver vs. pigeonhole baseline on a uniform-weight set.

    Requires all tolerance weights equal (the comparison is stated for a
    single t).  Reports the denominator bounds t/eps vs. T**n alongside
    the achieved denominators and exact maximum errors.
    """
    epsilon = _positive_epsilon(epsilon)
    ts = {t for _, t in cs.items}
    if len(ts) != 1:
        raise InvalidInputError(
            "compare requires a uniform tolerance weight (t_1 = ... = t_n)"
        )
    t = ts.pop()
    constrained = brute_force_solve(cs, epsilon, max_scan=max_scan)
    baseline = dirichlet_solve(cs.xs, T, max_scan=max_scan)
    return ComparisonReport(
        epsilon=epsilon,
        constrained=constrained,
        dirichlet_T=T,
        dirichlet=baseline,
        q_bound_constrained=t / epsilon,
        q_bound_dirichlet=T**cs.n,
        max_error_constrained=(
            constrained.max_error if isinstance(constrained, Solution) else None
        ),
        max_error_dirichlet=baseline.max_error,
    )
