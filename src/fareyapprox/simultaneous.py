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
empirical feasibility frontier; it shares the oracle's exact scan: a q that
misses the error bounds at some eps misses them at every smaller eps, so
one ascending scan over q finds the smallest witness of every grid point
at once (the witnesses are records of max_i ||q*x_i|| / (q*t_i), the best
simultaneous approximations of Lagarias 1982).

Neither scan tests every q of its range.  A q that fits every item fits
one pivot item, and the q whose ||q*x|| lies in a window are the return
times of the rotation q -> q*x mod 1 to an interval, which by the
three-gap theorem (Sós 1958; Slater 1967) follow each other by one of
three gaps.  :func:`_window_hits` steps from one such q to the next in a
few integer operations, with a window that contains every q the exact
test can accept; each q it yields then goes through the exact integer
test of every item, so the answers are those of a full scan.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, Union

from ._record import record
from .errors import BudgetExceededError, InternalError, InvalidInputError
from .farey import ExactHit, farey_neighbors

#: Default cap on exhaustive denominator scans.
DEFAULT_MAX_SCAN = 10_000_000


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
    return _nearest(x.numerator, x.denominator, q)[0]


def check_solution(
    cs: ConstraintSet,
    epsilon: Fraction,
    q: int,
    ps: Sequence[int],
    strict: bool = False,
) -> CheckReport:
    """Exact check of the joint constraint for a proposed (q, ps).

    Per item: |x_i - p_i/q| <= eps*t_i (strictly < with ``strict=True``).
    The denominator condition is tested in its equivalent single form
    eps*q <= t_min.  ``overall`` is the conjunction of everything.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    if not isinstance(q, int) or q < 1:
        raise InvalidInputError("q must be a positive integer")
    if len(ps) != cs.n:
        raise InvalidInputError(f"expected {cs.n} numerators, got {len(ps)}")
    per_item = []
    for (x, t), p in zip(cs.items, ps):
        err = abs(x - Fraction(p, q))
        bound = epsilon * t
        ok = err < bound if strict else err <= bound
        per_item.append(ItemCheck(ok, err, bound))
    denom_ok = epsilon * q <= cs.t_min
    overall = denom_ok and all(item.error_ok for item in per_item)
    return CheckReport(tuple(per_item), denom_ok, overall)


def _exact_errors(cs: ConstraintSet, q: int, ps: Sequence[int]) -> tuple[Fraction, ...]:
    return tuple(abs(x - Fraction(p, q)) for (x, _), p in zip(cs.items, ps))


def _nearest(xn: int, xd: int, q: int) -> tuple[int, int]:
    # (p, |xn*q - p*xd|) for the numerator p nearest q*xn/xd, exact ties
    # to the smaller p; the distance is xd * ||q * xn/xd||.
    f, rem = divmod(xn * q, xd)
    return (f + 1, xd - rem) if 2 * rem > xd else (f, rem)


def _window_hits(
    xn: int, xd: int, lo: int, hi: int, width: Callable[[int], int]
) -> Iterator[int]:
    """Yield, ascending, every q in lo..hi with _nearest(xn, xd, q)[1] <= C.

    xn/xd must be in lowest terms.  The half-width C = width(b) is fixed per
    doubling block [2**k, 2**(k+1) - 1] of q, where b is the block's last q
    (at most hi); ``width`` must not decrease in b, so a hit of one block's
    window is a hit of the next block's.  The walk starts from q = 0, which
    always hits, and carries into each block the last hit of the blocks
    before, so it steps through the hits below lo too.  Once the window
    covers all residues, q runs through the rest of the range one by one.
    """
    if lo > hi:
        return
    q, k = 0, 0
    while 1 << k <= hi:
        first, last = max(lo, 1 << k), min((2 << k) - 1, hi)
        c = width(last)
        w = 2 * c + 1
        if w >= xd:
            yield from range(first, hi + 1)
            return
        # Shifted residues s = (xn*q + c) mod xd put the window at 0..w-1.
        # q1 is the first q >= 1 whose residue moves forward by u < w, q2
        # the first whose residue moves back by v < w.  They are the first
        # left and right endpoints of the Stern-Brocot descent on xn/xd
        # with error inside the window (one-sided best approximations),
        # reached in batched steps as in farey.farey_neighbors.  u == v
        # happens only at u = v = 1, next to xn/xd itself, where a window
        # w >= 2 has already stopped the loop; for w = 1 the hits are the
        # multiples of xd, so q1 = q2 = xd with u = v = 0.
        q1, u, q2, v = 1, xn % xd, 1, xd - xn % xd
        while u >= w or v >= w:
            if u > v:
                j = min((u - 1) // v, (u - w) // v + 1)
                q1, u = q1 + j * q2, u - j * v
            elif v > u:
                j = min((v - 1) // u, (v - w) // u + 1)
                q2, v = q2 + j * q1, v - j * u
            else:
                q1 = q2 = q1 + q2
                u = v = 0
        # Three-gap rule: u + v >= w, so at most one of s + u and s - v
        # stays in the window; when neither does, s + u - v does.
        s = (xn * q + c) % xd
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


def _smallest_witnesses(
    cs: ConstraintSet,
    grid: Sequence[Fraction],
    max_scan: int,
) -> list[Solution | None]:
    """Smallest-q solution for each point of a strictly descending grid.

    One ascending pass over q serves every point.  A q that fails the
    error bounds at some eps fails them at every smaller eps, so point k
    resumes where point k-1 stopped: at the witness of k-1 (which is
    tested again) or past its range.  No point is skipped, because
    feasibility is not monotone in eps (a large eps can have an empty
    range while smaller ones are feasible).  The first point, in grid
    order, whose range exceeds ``max_scan`` and that has no witness
    within it raises BudgetExceededError, as a per-point scan would.

    The candidates of a point are its start, then the q above it that
    :func:`_window_hits` yields for the pivot item, the first with the
    smallest t_i.  Its window is C = floor(bn*xd*b/bd) for the block ending
    at b, which holds every q <= b that fits the pivot, so no solution is
    missed; each candidate then gets the exact test of every item.  A scan
    visits at most about 2*t_pivot*t_min of its range.  The start is the
    previous witness, which settles most points of a fine grid at once;
    a point it does not settle walks from q = 0 again, stepping through
    the hits below its start without testing them.
    """
    witnesses: list[Solution | None] = []
    start = 1
    pivot = min(range(cs.n), key=lambda i: cs.items[i][1])
    # Every candidate is in the pivot's window, so test the pivot last and
    # the other items from the tightest bound up: a miss shows sooner.
    order = sorted(range(cs.n), key=lambda i: (i == pivot, cs.items[i][1]))
    for epsilon in grid:
        q_max = math.floor(cs.t_min / epsilon)
        # Integer form: |x - p/q| <= eps*t with x = xn/xd and eps*t = bn/bd
        # becomes d * bd <= bn * xd * q with (p, d) = _nearest(xn, xd, q).
        items = []
        for i in order:
            x, t = cs.items[i]
            bound = epsilon * t
            items.append((i, x.numerator, x.denominator, bound.numerator, bound.denominator))
        _, pn, pd, pbn, pbd = items[-1]
        limit = min(q_max, max_scan)
        # The walk is lazy: it starts only if start fails.
        head = [start] if start <= limit else []
        walk = _window_hits(pn, pd, start + 1, limit, lambda b: pbn * pd * b // pbd)
        ps = [0] * cs.n
        for q in itertools.chain(head, walk):
            for i, xn, xd, bn, bd in items:
                ps[i], d = _nearest(xn, xd, q)
                if d * bd > bn * xd * q:
                    break
            else:
                ps = tuple(ps)
                witnesses.append(
                    Solution(q, ps, _exact_errors(cs, q, ps), epsilon, "brute")
                )
                start = q
                break
        else:
            if q_max > max_scan:
                raise BudgetExceededError(
                    f"scan budget exhausted after {max_scan} of {q_max} denominators"
                )
            witnesses.append(None)
            start = max(start, limit + 1)
    return witnesses


def brute_force_solve(
    cs: ConstraintSet,
    epsilon: Fraction,
    max_scan: int = DEFAULT_MAX_SCAN,
) -> Union[Solution, Infeasible]:
    """Exhaustive smallest-q solver; the oracle for everything else.

    Scans q = 1 .. floor(t_min/eps) with p_i chosen as the nearest
    numerator, and returns the first q whose exact errors all fit.  If
    the scan range exceeds ``max_scan`` and no solution appears within
    the budget, BudgetExceededError is raised rather than guessing.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    q_max = math.floor(cs.t_min / epsilon)
    if q_max < 1:
        return Infeasible("denominator range empty: floor(t_min/epsilon) = 0")
    [witness] = _smallest_witnesses(cs, (epsilon,), max_scan)
    if witness is None:
        return Infeasible(f"no feasible denominator in 1..{q_max}")
    return witness


def _best_at_order(y: Fraction, order: int) -> tuple[int, int]:
    # Nearest endpoint of the Farey bracketing of frac(y) at the given
    # order, shifted back by floor(y); ties go to the smaller value.
    n = math.floor(y)
    f = y - n
    found = farey_neighbors(f, order)
    if isinstance(found, ExactHit):
        p, q = found.value.numerator, found.value.denominator
    elif f - found.left <= found.right - f:
        p, q = found.left.numerator, found.left.denominator
    else:
        p, q = found.right.numerator, found.right.denominator
    return n * q + p, q


def compose_solve(
    cs: ConstraintSet,
    epsilon: Fraction,
    stage_order: int | None = None,
    max_denominator: int = 10**30,
) -> Solution:
    """Common-denominator composition heuristic.

    Stage 1 approximates x_1 by Farey bracketing at ``stage_order``
    (default ceil(1/eps), the natural scale of eps).  Each later stage
    approximates q * x_k the same way and multiplies the denominators:
    Q <- q * q_k, with earlier numerators rescaled by q_k.  The result
    carries exact errors and a ``satisfies_constraints`` flag computed by
    :func:`check_solution`; nothing guarantees the flag is True, which is
    the point of reporting it.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    if stage_order is None:
        stage_order = max(1, math.ceil(1 / epsilon))
    if not isinstance(stage_order, int) or stage_order < 1:
        raise InvalidInputError("stage order must be a positive integer")
    xs = cs.xs
    p1, q = _best_at_order(xs[0], stage_order)
    ps = [p1]
    for x in xs[1:]:
        pk, qk = _best_at_order(x * q, stage_order)
        if q * qk > max_denominator:
            raise BudgetExceededError(
                f"stage denominator {q * qk} exceeds cap {max_denominator}"
            )
        ps = [p * qk for p in ps]
        ps.append(pk)
        q *= qk
    ps_t = tuple(ps)
    report = check_solution(cs, epsilon, q, ps_t)
    return Solution(
        q,
        ps_t,
        _exact_errors(cs, q, ps_t),
        epsilon,
        "compose",
        satisfies_constraints=report.overall,
    )


def dirichlet_solve(
    xs: Sequence[Fraction],
    T: int,
    max_scan: int = DEFAULT_MAX_SCAN,
) -> Solution:
    """Smallest q with 1 <= q < T**n and every ||q*x_i|| <= 1/T.

    Such a q exists by the pigeonhole argument, so an exhausted scan is
    reported as InternalError rather than infeasibility.  The recorded
    epsilon is 1/T, the guaranteed per-item scale (errors are <= 1/(Tq)).
    The candidates are the q that :func:`_window_hits` yields for x_1
    with the fixed window C = floor(xd/T), which is exactly the test
    ||q*x_1|| <= 1/T; each gets the test of every item, and a scan visits
    about 2/T of its range.
    """
    xs = tuple(Fraction(x) for x in xs)
    if not xs:
        raise InvalidInputError("need at least one target")
    if not isinstance(T, int) or T < 2:
        raise InvalidInputError("T must be an integer >= 2")
    q_max = T ** len(xs) - 1
    if q_max > max_scan:
        raise BudgetExceededError(f"T**n - 1 = {q_max} exceeds scan budget {max_scan}")
    items = tuple((x.numerator, x.denominator) for x in xs)
    pn, pd = items[0]
    for q in _window_hits(pn, pd, 1, q_max, lambda b: pd // T):
        # ||q*x|| = _nearest(xn, xd, q)[1] / xd <= 1/T
        if all(_nearest(xn, xd, q)[1] * T <= xd for xn, xd in items):
            ps = tuple(_nearest(xn, xd, q)[0] for xn, xd in items)
            errors = tuple(abs(x - Fraction(p, q)) for x, p in zip(xs, ps))
            return Solution(q, ps, errors, Fraction(1, T), "dirichlet")
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
    the witness :func:`brute_force_solve` would return for it, but all
    points share one ascending scan over q, so a sweep costs one scan to
    the largest q any point needs rather than one scan per point.
    Feasibility is reported pointwise (no monotonicity in eps is
    assumed); epsilon0 is the top of the unbroken feasible suffix, if
    any.  BudgetExceededError is raised for the first point whose range
    exceeds ``max_scan`` and that has no witness within it.
    """
    grid = tuple(Fraction(g) for g in grid)
    if not grid:
        raise InvalidInputError("grid must be nonempty")
    if any(g <= 0 for g in grid):
        raise InvalidInputError("grid points must be positive")
    if any(a <= b for a, b in zip(grid, grid[1:])):
        raise InvalidInputError("grid must be strictly descending")
    witnesses = _smallest_witnesses(cs, grid, max_scan)
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
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
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
