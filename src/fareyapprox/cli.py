"""Command-line front end; the only module that touches files or stdout.

Exit codes: 0 = feasible/complete, 2 = infeasible, 1 = usage, I/O, budget,
or internal error.  Output is deterministic: identical argv and input
files yield byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (
    BudgetExceededError,
    FareyApproxError,
    InfeasibleError,
    InvalidInputError,
)
from .farey import ExactHit, FareyPair, _farey_pairs, farey_neighbors
from .mediants import _plan_subdivision
from .rationals import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    _int_text,
    _pair_lines,
    _past_digit_limit,
    format_rational,
    parse_rational,
    parse_real,
)
from .selftest import run_selftest
from .simultaneous import (
    DEFAULT_MAX_SCAN,
    ConstraintSet,
    Infeasible,
    Solution,
    brute_force_solve,
    compare,
    compose_solve,
    dirichlet_solve,
    epsilon_threshold,
)

_SCAN_ENV = "FAREY_APPROX_MAX_SCAN"
# Cap on generated sweep grids and default cap on subdivision points.
_MAX_POINTS = 10_000


def _max_scan() -> int:
    raw = os.environ.get(_SCAN_ENV)
    if raw is None:
        return DEFAULT_MAX_SCAN
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidInputError(f"{_SCAN_ENV} must be a positive integer, got {raw!r}")
    return value


def _read_constraints(path: str, precision: int) -> ConstraintSet:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    items = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidInputError(f"{path}:{lineno}: expected 'X T', got {raw.strip()!r}")
        try:
            x = parse_real(parts[0], precision)
            t = parse_rational(parts[1])
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}:{lineno}: {exc}") from None
        if t <= 0:
            raise InvalidInputError(f"{path}:{lineno}: tolerance weight must be positive")
        items.append((x, t))
    if not items:
        raise InvalidInputError(f"{path}: no constraints found")
    return ConstraintSet(tuple(items))


def _emit_json(obj: dict, precision: int) -> None:
    obj = {**obj, "precision": precision}
    try:
        text = json.dumps(obj, indent=2)
    except ValueError:
        # An int past str()'s digit limit, such as a p for a target of
        # 1e9000: dump every int as a NUL-marked string of its digits, then
        # unquote the marks.  No other string holds a NUL.
        text = json.dumps(_marked_ints(obj), indent=2)
        text = re.sub(r'"\\u0000(-?\d+)"', r"\1", text)
    sys.stdout.write(text + "\n")


def _marked_ints(value: object) -> object:
    if isinstance(value, dict):
        return {key: _marked_ints(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_marked_ints(v) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return "\0" + _int_text(value)
    return value


def _json(value: object) -> object:
    # A record becomes an object of its fields in order, except that a
    # Solution lists its method first and shows satisfies_constraints only
    # when it is set, and an Infeasible is flagged as such.
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if isinstance(value, Infeasible):
        return {"infeasible": True, "reason": value.reason}
    fields = getattr(value, "_fields", None)
    if fields is None:
        return value
    obj = {name: _json(getattr(value, name)) for name in fields}
    if isinstance(value, Solution):
        obj = {"method": obj.pop("method"), **obj}
        if value.satisfies_constraints is None:
            del obj["satisfies_constraints"]
    return obj


def _int_arg(text: str) -> int:
    # argparse's own message for a bad int quotes the whole value, thousands
    # of digits for one past the interpreter's limit; quote 20 characters of
    # a long value, and name that limit, as parse_rational does.
    try:
        return int(text)
    except ValueError:
        shown = repr(text) if len(text) <= 20 else f"{text[:20]!r}..."
        if over := _past_digit_limit(text):
            raise argparse.ArgumentTypeError(f"{shown} has {over}") from None
        raise argparse.ArgumentTypeError(f"invalid int value: {shown}") from None


def _parse_positive(text: str, name: str) -> Fraction:
    value = parse_rational(text)
    if value <= 0:
        raise InvalidInputError(f"{name} must be positive")
    return value


def _build_grid(args) -> tuple[Fraction, ...]:
    if args.grid is not None:
        # The options of a generated grid would be dropped: refuse them.
        given = {"--eps-max": args.eps_max is not None, "--eps-min": args.eps_min is not None,
                 "--points": args.points is not None, "--geometric": args.geometric}
        mixed = [flag for flag, on in given.items() if on]
        if mixed:
            raise InvalidInputError(f"--grid cannot be combined with {', '.join(mixed)}")
        points = tuple(_parse_positive(part, "epsilon") for part in args.grid.split(","))
    else:
        if args.eps_max is None or args.eps_min is None or args.points is None:
            raise InvalidInputError("sweep needs --grid or all of --eps-max/--eps-min/--points")
        top = _parse_positive(args.eps_max, "epsilon")
        bottom = _parse_positive(args.eps_min, "epsilon")
        count = args.points
        if count < 2 or bottom >= top:
            raise InvalidInputError("need --points >= 2 and --eps-min < --eps-max")
        if count > _MAX_POINTS:
            raise InvalidInputError(f"--points is capped at {_MAX_POINTS}")
        if args.geometric:
            # Exact-rational ratio root/scale approximating (bottom/top)**(1/m),
            # m = count - 1: root is the largest integer with
            # (root/scale)**m <= bottom/top.  As bottom/top < 1, root is below
            # scale < 2**80, so bisection fixes it one bit at a time from the
            # top, in 80 exact comparisons whatever m is.  Endpoints are kept
            # exact.
            scale = 10**24
            lam = bottom / top
            m = count - 1
            bound = lam.numerator * scale**m
            root = 0
            for bit in reversed(range(scale.bit_length())):
                if (root | 1 << bit) ** m * lam.denominator <= bound:
                    root |= 1 << bit
            if root < 1:
                raise InvalidInputError("geometric grid too extreme for the fixed ratio scale")
            ratio = Fraction(root, scale)
            # Each interior point is the previous one times the ratio,
            # rounded down to 96 significant bits: the ratio has at most 80,
            # so the 16 guard bits keep every digit that means anything, each
            # point stays below the one before, and a grid's output grows
            # linearly with the count.
            points = [top]
            for _ in range(m - 1):
                x = points[-1] * ratio
                shift = Fraction(2) ** (96 + x.denominator.bit_length() - x.numerator.bit_length())
                points.append(math.floor(x * shift) / shift)
            # Each factor is up to 1/scale below the true ratio, so with
            # bottom/top that close to 1 the last interior point can fall to
            # bottom or below it.
            if points[-1] <= bottom:
                raise InvalidInputError("geometric grid too fine for the fixed ratio scale")
            points = tuple(points) + (bottom,)
        else:
            span = top - bottom
            points = tuple(
                bottom + span * Fraction(count - 1 - k, count - 1) for k in range(count)
            )
    return points


def _cmd_farey(args) -> int:
    lo = parse_rational(args.lo) if args.lo is not None else None
    hi = parse_rational(args.hi) if args.hi is not None else None
    bound = (hi.numerator, hi.denominator) if hi is not None else ()
    # The recurrence's (h, k) pairs, printed without a Fraction and written
    # in chunks, so memory stays bounded however long the listing is.  A
    # line "h/k\n" has at most 2*d + 2 characters, where d = bit_length // 3
    # + 1 bounds the order's digits (log10 2 < 1/3), so a chunk holds at
    # most 1 MB of text or one line, and a reader meets the first one soon.
    size = min(4096, 2**20 // (2 * (args.order.bit_length() // 3) + 4) or 1)
    pairs = _farey_pairs(args.order, lo, *bound)
    while chunk := list(itertools.islice(pairs, size)):
        sys.stdout.write(_pair_lines(chunk))
    return 0


def _cmd_neighbors(args) -> int:
    x = parse_real(args.x, args.precision)
    found = farey_neighbors(x, args.order)
    if isinstance(found, ExactHit):
        value = format_rational(found.value)
        obj = {"kind": "exact", "value": value, "left": value, "right": value}
    else:
        obj = {
            "kind": "pair",
            "left": format_rational(found.left),
            "right": format_rational(found.right),
        }
    obj["order"] = args.order
    _emit_json(obj, args.precision)
    return 0


def _cmd_subdivide(args) -> int:
    lo = parse_real(args.lo, args.precision)
    hi = parse_real(args.hi, args.precision)
    gap = _parse_positive(args.gap, "gap bound")
    base = FareyPair(lo, hi, args.order)
    denom_bound = args.max_denom
    if denom_bound is None:
        denom_bound = max(math.ceil(1 / gap), lo.denominator, hi.denominator)
    # The (h, k) pairs of subdivide()'s points, printed without a Fraction.
    pairs = _plan_subdivision(base, gap, denom_bound, args.max_points)
    sys.stdout.write(_pair_lines(pairs))
    # Adjacent points are unimodular neighbours, so each gap is 1/(k_a*k_b).
    # The chain's denominators grow away from its anchor endpoint, so the
    # products of adjacent ones are monotone except next to the far
    # endpoint: the extremes are among the first two and the last two, and
    # the largest denominator is the second or the second-to-last point's.
    head, tail = [k for _, k in pairs[:3]], [k for _, k in pairs[-3:]]
    prods = [a * b for ends in (head, tail) for a, b in zip(ends, ends[1:])]
    _emit_json(
        {
            "points": len(pairs),
            "max_gap": "1/" + _int_text(min(prods)),
            "min_gap": "1/" + _int_text(max(prods)),
            "gap_bound": format_rational(gap),
            "denom_bound": denom_bound,
            "max_denominator": max(head[1], tail[-2]),
        },
        args.precision,
    )
    return 0


def _cmd_solve(args) -> int:
    cs = _read_constraints(args.input, args.precision)
    eps = _parse_positive(args.epsilon, "epsilon")
    if args.method == "compose":
        result = compose_solve(cs, eps)
    else:
        result = brute_force_solve(cs, eps, max_scan=_max_scan())
    infeasible = isinstance(result, Infeasible)
    obj = _json(result)
    if infeasible:
        obj["epsilon"] = format_rational(eps)
    _emit_json(obj, args.precision)
    return 2 if infeasible else 0


def _cmd_dirichlet(args) -> int:
    cs = _read_constraints(args.input, args.precision)
    sol = dirichlet_solve(cs.xs, args.T, max_scan=_max_scan())
    _emit_json({**_json(sol), "T": args.T}, args.precision)
    return 0


def _cmd_sweep(args) -> int:
    cs = _read_constraints(args.input, args.precision)
    grid = _build_grid(args)
    report = epsilon_threshold(cs, grid, max_scan=_max_scan())
    if args.csv:
        rows = ["epsilon,feasible,q,max_error"]
        for eps, ok, wit in zip(report.grid, report.feasible, report.witnesses):
            if wit is None:
                rows.append(f"{format_rational(eps)},false,,")
            else:
                rows.append(
                    f"{format_rational(eps)},true,{wit.q},{format_rational(wit.max_error)}"
                )
        sys.stdout.write("\n".join(rows) + "\n")
    else:
        _emit_json(_json(report), args.precision)
    return 0 if report.epsilon0 is not None else 2


def _cmd_compare(args) -> int:
    cs = _read_constraints(args.input, args.precision)
    eps = _parse_positive(args.epsilon, "epsilon")
    report = compare(cs, eps, args.T, max_scan=_max_scan())
    _emit_json(_json(report), args.precision)
    return 0


def _cmd_selftest(args) -> int:
    return run_selftest()


def _add_precision(sub) -> None:
    sub.add_argument(
        "--precision",
        type=_int_arg,
        default=DEFAULT_PRECISION,
        help="decimal digits kept for named constants (default %(default)s)",
    )


class _Parser(argparse.ArgumentParser):
    # Every option is long, so a token with one leading "-" other than -h is
    # a value such as -1/2 or -sqrt2, not an option; argparse would report
    # "expected one argument" for it.  Subparsers inherit this class.
    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)

    # argparse drops "--" from the value of "--from=--" and hands the
    # command an empty list; keep it as the (invalid) string it is.
    def _get_values(self, action, arg_strings):
        if arg_strings == ["--"] and action.nargs is None:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)

    # argparse's version swallows an OSError of the write; let run() end on
    # a closed stdout under --help as it does under a command's output.
    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


# Built once per process and shared by every run() call: parse_args makes a
# fresh Namespace each time, and each _cmd_* looks up its library function at
# call time, so patching those names still takes effect.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="farey-approx",
        description="Simultaneous rational approximation with joint error/denominator control",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("farey", help="list a Farey sequence, one fraction per line")
    p.add_argument("--order", type=_int_arg, required=True)
    p.add_argument("--from", dest="lo", default=None, help="smallest value to emit")
    p.add_argument("--to", dest="hi", default=None, help="largest value to emit")
    p.set_defaults(func=_cmd_farey)

    p = subs.add_parser("neighbors", help="bracket a value between consecutive Farey terms")
    p.add_argument(
        "--x",
        required=True,
        help="value in [0, 1] to bracket; every named constant exceeds 1, so names do not apply",
    )
    p.add_argument("--order", type=_int_arg, required=True)
    _add_precision(p)
    p.set_defaults(func=_cmd_neighbors)

    p = subs.add_parser("subdivide", help="gap-bounded mediant subdivision of a Farey pair")
    p.add_argument("--lo", required=True)
    p.add_argument("--hi", required=True)
    p.add_argument("--order", type=_int_arg, required=True)
    p.add_argument("--gap", required=True, help="upper bound for consecutive gaps")
    p.add_argument("--max-denom", type=_int_arg, default=None)
    p.add_argument("--max-points", type=_int_arg, default=_MAX_POINTS)
    _add_precision(p)
    p.set_defaults(func=_cmd_subdivide)

    p = subs.add_parser("solve", help="find one denominator fitting every constraint")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--method", choices=("brute", "compose"), default="brute")
    _add_precision(p)
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("dirichlet", help="classical pigeonhole baseline solver")
    p.add_argument("--input", required=True)
    p.add_argument("--T", type=_int_arg, required=True)
    _add_precision(p)
    p.set_defaults(func=_cmd_dirichlet)

    p = subs.add_parser("sweep", help="feasibility sweep over a descending epsilon grid")
    p.add_argument("--input", required=True)
    p.add_argument("--grid", default=None, help='comma-separated rationals, e.g. "1/2,1/4,1/8"')
    p.add_argument("--eps-max", default=None)
    p.add_argument("--eps-min", default=None)
    p.add_argument("--points", type=_int_arg, default=None)
    p.add_argument("--geometric", action="store_true")
    p.add_argument("--csv", action="store_true", help="one row per grid point")
    _add_precision(p)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("compare", help="constrained solver vs. pigeonhole baseline")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--T", type=_int_arg, required=True)
    _add_precision(p)
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("selftest", help="packaged smoke test")
    p.set_defaults(func=_cmd_selftest)

    # The top-level usage is written out, as argparse prints a given usage
    # unwrapped: 3.13 puts the command list and "..." on one line, which
    # 3.10-3.12 break.  It is set last, since each subparser's usage
    # starts with the usage its parent has when the subparsers are added.
    indent = " " * len("usage: farey-approx ")
    parser.usage = f"%(prog)s [-h]\n{indent}{{{','.join(subs.choices)}}}\n{indent}..."
    return parser


def run(argv: list[str]) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # Checked before any input is read, so the message names the option
        # and not the first file line or value it would apply to.
        if not 1 <= getattr(args, "precision", DEFAULT_PRECISION) <= MAX_PRECISION:
            raise InvalidInputError(f"--precision must be an integer in 1..{MAX_PRECISION}")
        return args.func(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except BrokenPipeError:
        # The reader of stdout is gone (as in `| head`): a quiet end.
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FareyApproxError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # What is left in the buffer has no reader; point stdout at devnull
        # so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
