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
once.

No scan tests every q of its range.  A q that fits every item fits one
pivot item, and the q whose ||q*x|| lies in a window are the return times
of the rotation q -> q*x mod 1 to an interval, which by the three-gap
theorem (Sós 1958; Slater 1967) follow each other by one of three gaps.
:func:`_window_hits` steps from one such q to the next in a few integer
operations, with a window that contains every q the exact test can
accept.  The gaps of a doubling block of q are read off the Stern-Brocot
descent on the pivot, the one descent of the package (farey._descent and
farey._deepen, which compose_solve's Farey brackets are read off too):
a scan builds that descent once, as deep as its narrowest window needs,
and each block bisects it, so a sweep descends the pivot once for all
its points.  :func:`_first_fit`, the one scan of the oracle, the sweep
and the baseline, puts each q it yields through
the exact integer test of every item, so the answers are those of a full
scan.  The test reads only the distance xd * ||q*x_i||, so a q costs one
remainder per item until an item rejects it, and the numerators are
computed for the q returned only.  The first item tested, which rejects
most q, compares that remainder with its own window on the q's doubling
block before its exact bound, so most q cost a remainder and two
compares.  A walk starts at the last hit below its lower end, which a
Euclid-style descent finds in O(log xd) steps, so its cost does not grow
with the q below its range.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from ._record import record
from .errors import BudgetExceededError, InternalError, InvalidInputError
from .farey import _bracket, _deepen, _descent
from .rationals import _PRINT_LIMIT

#: Default cap on exhaustive denominator scans.
DEFAULT_MAX_SCAN = 10_000_000

# Cap on the common denominator that compose_solve builds stage by stage.
_MAX_COMPOSE_DENOMINATOR = 10**30


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
    x = Fraction(x)
    p, rem = divmod(x.numerator * q, x.denominator)
    return p + 1 if 2 * rem > x.denominator else p


def _positive_epsilon(epsilon: Fraction) -> Fraction:
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    return epsilon


def _check_budget(max_scan: int) -> None:
    if max_scan < 0:
        raise InvalidInputError("max_scan must be nonnegative")


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


def _steps(path: list[tuple[int, int, int, int, int]], w: int) -> tuple[int, int, int, int]:
    """(q1, u, q2, v) of the first level of the descent with u < w and v < w.

    Each step of the descent (farey._deepen) takes the larger of u and v
    below the smaller, and its last step goes to q1 = q2 = xd with
    u = v = 0 (for w = 1 the hits are the multiples of xd).  So levels
    whose smaller residue is >= w are passed whole, and the first level
    whose smaller residue is < w needs at most one partial step: the
    fewest steps of the smaller that take the larger below w.  ``path``
    (from farey._descent) keeps the levels found so far and is extended
    in place only as deep as w needs, so the callers that walk one target
    with many windows take each level's step once.
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


def _window_hits(
    xn: int,
    xd: int,
    lo: int,
    hi: int,
    a: int,
    c: int,
    den: int,
    path: list[tuple[int, int, int, int, int]],
) -> Iterator[int]:
    """Yield, ascending, every q in lo..hi with xd * ||q*xn/xd|| <= C.

    xn/xd must be in lowest terms, a >= 0, den >= 1, and a*b + c >= 0 for
    every block end b below (so c = -1 with a >= 1, a strict bound, is
    allowed).  The half-width C = (a*b + c) // den is fixed per doubling
    block [2**k, 2**(k+1) - 1] of q, where b is the block's last q (at
    most hi); it does not decrease in b, so a hit of one block's window
    is a hit of the next block's.  The walk starts in the block that
    holds lo, at the last hit below lo, which :func:`_first_in_window`
    finds by walking back from lo - 1 (q = 0 always hits, so there is
    one).  It carries into each later block the last hit of the blocks
    before.  Once the window covers all residues, q runs through the rest
    of the range one by one.  Each block reads its steps off ``path``,
    the descent on xn/xd (farey._descent), which a caller walking xn/xd
    more than once passes to every walk.
    """
    lo = max(lo, 1)
    if lo > hi:
        return
    q, k = None, lo.bit_length() - 1
    while 1 << k <= hi:
        first, last = max(lo, 1 << k), min((2 << k) - 1, hi)
        h = (a * last + c) // den
        w = 2 * h + 1
        if w >= xd:
            yield from range(first, hi + 1)
            return
        # Shifted residues s = (xn*q + h) mod xd put the window at 0..w-1.
        # q1 is the first q >= 1 whose residue moves forward by u < w, q2
        # the first whose residue moves back by v < w.
        q1, u, q2, v = _steps(path, w)
        if q is None:
            # Walking back from lo - 1 moves the residue by -xn per step.
            q = lo - 1 - _first_in_window(-xn, xn * (lo - 1) + h, xd, w)
        # Three-gap rule: u + v >= w, so at most one of s + u and s - v
        # stays in the window; when neither does, s + u - v does.
        s = (xn * q + h) % xd
        while True:
            if s + u < w:
                step, s = q1, s + u
            elif s >= v:
                step, s = q2, s - v
            else:
                step, s = q1 + q2, s + u - v
            if q + step > last:
                break
            q += step
            if q >= first:
                yield q
        k += 1


def _first_fit(
    items: Sequence[tuple[int, int, int, int, int, int]],
    lo: int,
    hi: int,
    path: list[tuple[int, int, int, int, int]],
) -> tuple[int, tuple[int, ...]] | None:
    """Smallest q in lo..hi whose nearest numerators fit every item, or None.

    An item (i, xn, xd, a, c, den) fits q when d * den <= a*q + c, where
    d = xd * ||q*xn/xd|| = |xn*q - p*xd| for the numerator p nearest
    q*xn/xd, exact ties to the smaller p; that p is the i-th of the
    returned ones.  The candidates are lo, then the q above it that
    :func:`_window_hits` yields for the last item's (a, c, den), whose
    half-width (a*b + c) // den on the block ending at b holds every
    q <= b that fits that item, so no fit is missed.  The walk is lazy,
    so it starts only if lo fails; ``path`` is the last item's descent
    (farey._descent), shared with the caller's other walks.

    The test needs d only, and d is the remainder r = xn*q mod xd or
    xd - r, whichever is smaller (a tie gives the same d either way).
    So a candidate costs one remainder per item until an item rejects
    it, and the numerators are computed once, for the q returned.  The
    first item, which rejects most candidates, first gets its block
    window: a*q + c does not decrease in q, so a q that fits it has
    d <= h = (a*b + c) // den, with b the end of q's doubling block (at
    most hi).  A q with h < r < xd - h is rejected by two compares
    against per-block integers, and only a q inside the window pays the
    exact bound.
    """
    if lo > hi:
        return None
    _, wn, wd, wa, wc, wden = items[-1]
    walk = _window_hits(wn, wd, lo + 1, hi, wa, wc, wden, path)
    # The first item rejects most candidates, so it is tested inline.
    (_, fn, fd, fa, fc, fden), rest = items[0], items[1:]
    end = -1
    for q in itertools.chain((lo,), walk):
        if q > end:
            end = min((1 << q.bit_length()) - 1, hi)
            h = (fa * end + fc) // fden
            top = fd - h
        r = fn * q % fd
        if h < r < top or (fd - r if r > fd >> 1 else r) * fden > fa * q + fc:
            continue
        for _, xn, xd, a, c, den in rest:
            r = xn * q % xd
            if (xd - r if r > xd >> 1 else r) * den > a * q + c:
                break
        else:
            ps = [0] * len(items)
            for i, xn, xd, *_ in items:
                p, r = divmod(xn * q, xd)
                ps[i] = p + 1 if 2 * r > xd else p
            return q, tuple(ps)
    return None


def _smallest_witnesses(
    cs: ConstraintSet,
    grid: Sequence[Fraction],
    max_scan: int,
) -> list[tuple[int, Solution | None]]:
    """Range end floor(t_min/eps) and smallest-q solution of each grid point.

    The grid must be strictly descending.  A q that fails the error bounds
    at some eps fails them at every smaller eps, so point k needs no q
    below the witness of point k-1, or below the end of its range when it
    had none.  Each point therefore starts at that q, which it tests first
    and which settles most points of a fine grid at once; a point it does
    not settle walks on from that q, so the sweep walks each q of its
    overall range at most once.  No point is skipped, because feasibility
    is not monotone in eps (a large eps can have an empty range while
    smaller ones are feasible).  The first point, in grid order, whose
    range exceeds ``max_scan`` and that has no witness within it raises
    BudgetExceededError, as a per-point scan would.

    :func:`_first_fit` walks the window of the pivot item, the first with
    the smallest t_i, so a scan visits at most about 2*t_pivot*t_min of
    its range.  Every walk of the sweep reads its steps off one descent on
    the pivot, which therefore goes down each level once per sweep.  The
    sweep is set up in integers from the numerators and denominators of
    eps, x_i and t_i, read once per call: the pivot, the item order, each
    point's range end and each item's bound build no Fraction.
    """
    parts = [
        (i, x.numerator, x.denominator, t.numerator, t.denominator)
        for i, (x, t) in enumerate(cs.items)
    ]
    # t_i * L for L the lcm of the weights' denominators: exact sort keys.
    scale = math.lcm(*[td for *_, td in parts])
    keys = [tn * (scale // td) for *_, tn, td in parts]
    pivot = keys.index(min(keys))
    # Every candidate is in the pivot's window, so test the pivot last and
    # the other items from the tightest bound up: a miss shows sooner.
    parts.sort(key=lambda part: (part[0] == pivot, keys[part[0]]))
    _, pn, pd, tn_min, td_min = parts[-1]
    path = _descent(pn, pd)
    xs = cs.xs
    points: list[tuple[int, Solution | None]] = []
    start = 1
    for epsilon in grid:
        en, ed = epsilon.numerator, epsilon.denominator
        q_max = (tn_min * ed) // (td_min * en)
        limit = min(q_max, max_scan)
        # Integer form: |x - p/q| <= eps*t with x = xn/xd, eps = en/ed and
        # t = tn/td becomes d * ed*td <= en*tn*xd * q with
        # d = xd * ||q*xn/xd||.  The bound en*tn/(ed*td) is left unreduced:
        # the test and the window floor((a*b + c)/den) depend only on its
        # value, so they match those of the reduced eps*t and need no gcd.
        items = [(i, xn, xd, en * tn * xd, 0, ed * td) for i, xn, xd, tn, td in parts]
        fit = _first_fit(items, start, limit, path)
        if fit is not None:
            q, ps = fit
            points.append((q_max, Solution(q, ps, _exact_errors(xs, q, ps), epsilon, "brute")))
            start = q
            continue
        if q_max > max_scan:
            raise BudgetExceededError(
                f"scan budget exhausted after {_count_text(max_scan)} of "
                f"{_count_text(q_max)} denominators"
            )
        points.append((q_max, None))
        start = max(start, limit + 1)
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
    [(q_max, witness)] = _smallest_witnesses(cs, (epsilon,), max_scan)
    if witness is not None:
        return witness
    if q_max < 1:
        return Infeasible("denominator range empty: floor(t_min/epsilon) = 0")
    return Infeasible(f"no feasible denominator in 1..{q_max}")


def _best_at_order(y: Fraction, order: int) -> tuple[int, int]:
    # Nearest endpoint of the Farey bracketing of frac(y) at the given
    # order, shifted back by floor(y); ties go to the smaller value.  The
    # endpoints lie u/(yd*q1) below y and v/(yd*q2) above it.
    yn, yd = y.numerator, y.denominator
    if yd <= order:
        return yn, yd
    q1, u, q2, v = _bracket(yn, yd, order)
    if u * q2 <= v * q1:
        return (yn * q1 - u) // yd, q1
    return (yn * q2 + v) // yd, q2


def compose_solve(cs: ConstraintSet, epsilon: Fraction) -> Solution:
    """Common-denominator composition heuristic.

    Stage 1 approximates x_1 by Farey bracketing at order ceil(1/eps),
    the natural scale of eps.  Each later stage
    approximates q * x_k the same way and multiplies the denominators:
    Q <- q * q_k, with earlier numerators rescaled by q_k.  The result
    carries exact errors and a ``satisfies_constraints`` flag computed by
    :func:`check_solution`; nothing guarantees the flag is True, which is
    the point of reporting it.  A common denominator past 10**30 raises
    BudgetExceededError.
    """
    epsilon = _positive_epsilon(epsilon)
    stage_order = math.ceil(1 / epsilon)
    xs = cs.xs
    p1, q = _best_at_order(xs[0], stage_order)
    ps = [p1]
    for x in xs[1:]:
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
    :func:`_first_fit` walks the window of the last target x_n, the fixed
    C = floor(xd/T), which is exactly the test ||q*x_n|| <= 1/T, so a scan
    visits about 2/T of its range.
    """
    xs = tuple(Fraction(x) for x in xs)
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
    # ||q*x|| <= 1/T is d * T <= xd with d = xd * ||q*x||.
    items = [(i, x.numerator, x.denominator, 0, x.denominator, T) for i, x in enumerate(xs)]
    fit = _first_fit(items, 1, q_max, _descent(xs[-1].numerator, xs[-1].denominator))
    if fit is not None:
        q, ps = fit
        return Solution(q, ps, _exact_errors(xs, q, ps), Fraction(1, T), "dirichlet")
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
    Feasibility is reported pointwise (no monotonicity in eps is
    assumed); epsilon0 is the top of the unbroken feasible suffix, if
    any.  BudgetExceededError is raised for the first point whose range
    exceeds ``max_scan`` and that has no witness within it.
    """
    grid = tuple(Fraction(g) for g in grid)
    if not grid:
        raise InvalidInputError("grid must be nonempty")
    pairs = [(g.numerator, g.denominator) for g in grid]
    if any(gn <= 0 for gn, _ in pairs):
        raise InvalidInputError("grid points must be positive")
    if any(an * bd <= bn * ad for (an, ad), (bn, bd) in zip(pairs, pairs[1:])):
        raise InvalidInputError("grid must be strictly descending")
    _check_budget(max_scan)
    witnesses = [w for _, w in _smallest_witnesses(cs, grid, max_scan)]
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
