"""Exact rational arithmetic and elementary number-theoretic helpers.

Every quantity in this package is a ``fractions.Fraction``: an exact,
always-reduced p/q with a positive denominator and arbitrary-precision
integer parts.  There is no floating point anywhere in the computational
core, so every inequality the solvers report is checked with equality-grade
exactness.

Irrational inputs are admitted through a stand-in convention: a named
constant such as ``sqrt2`` or ``pi`` is truncated (toward zero) to a fixed
number of decimal digits at parse time and converted exactly to a Fraction.
Its digits come from integer arithmetic alone, ``math.isqrt`` or, for ``pi``
and ``e``, series with a proven error bracket, so every digit is certified.
All downstream guarantees then hold exactly for the stand-in.  The stand-in
is reproducible bit-for-bit from the precision parameter alone.  A
constant's digits are computed once per process, at the highest precision
asked for so far; a lower precision truncates them.

Every public entry takes its arguments through the package's two intake
rules: a number goes through :func:`_as_fraction`, and an integer argument
with a least value through :func:`_require_int`.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from fractions import Fraction

from .errors import InvalidInputError

#: Decimal digits kept when a named constant is turned into a stand-in.
DEFAULT_PRECISION = 64

#: Named constants accepted by :func:`parse_real`.
CONSTANT_NAMES = ("sqrt2", "sqrt3", "sqrt5", "phi", "e", "pi")

#: Largest ``precision`` accepted for named constants (pi takes ~0.03 s).
MAX_PRECISION = 5000

#: Largest number of digits, and largest decimal exponent in absolute
#: value, accepted in a rational literal.  Both are checked before any
#: integer is built, so parsing an admitted literal takes well under 1 ms.
MAX_LITERAL_DIGITS = 4000
MAX_LITERAL_EXPONENT = 10_000

_SQUARE_ROOTS = {"sqrt2": 2, "sqrt3": 3, "sqrt5": 5}
# Name -> (top, floor(c * 10**top)) for the highest precision top asked for
# so far: at most one integer of at most MAX_PRECISION digits per name.
_SCALED_FLOORS: dict[str, tuple[int, int]] = {}
# The exponent as Fraction reads it, digit groups joined by "_" included.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)$")
# A run of digits, with the "_" that Fraction skips in it.
_DIGIT_RUN = re.compile(r"\d[\d_]*")
# The smallest int that str() refuses at its default limit of 4300 digits.
_PRINT_LIMIT = 10**4300


def _as_fraction(x) -> Fraction:
    # A Fraction is immutable, so an exact one is passed through, not
    # copied; anything else, a Fraction subclass included, is converted.
    return x if type(x) is Fraction else Fraction(x)


def _require_int(value: int, least: int, message: str) -> None:
    if not isinstance(value, int) or value < least:
        raise InvalidInputError(message)


def nearest_int_distance(x: Fraction) -> Fraction:
    """Distance from x to the nearest integer; always in [0, 1/2]."""
    f = x - math.floor(x)
    return min(f, 1 - f)


def format_rational(x: Fraction) -> str:
    """Canonical text form "num/den" with den > 0, e.g. "-1/3", "0/1"."""
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


def _int_text(n: int) -> str:
    # str(n) for an int of any size.  str() refuses an int past its digit
    # limit (4300 by default) with ValueError; such an int is split at a
    # power of ten near half its digits, and each half printed alone.
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _int_text(-n)
    # bit_length * 3/20 is just under half the digits, since log10(2) > 3/10.
    half = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**half)
    return _int_text(high) + _int_text(low).zfill(half)


def _fraction_text(x: Fraction) -> str:
    # str(x) for a Fraction of any size, for messages.
    if x.denominator == 1:
        return _int_text(x.numerator)
    return format_rational(x)


def _pair_lines(pairs: list[tuple[int, int]]) -> str:
    # One "h/k" line per pair, in one % operation.  The common case costs
    # no test per pair; a listing that str() refuses is printed again with
    # exact halves.
    try:
        return ("%s/%s\n" * len(pairs)) % tuple(itertools.chain.from_iterable(pairs))
    except ValueError:
        return "".join([f"{_int_text(h)}/{_int_text(k)}\n" for h, k in pairs])


def _past_digit_limit(text: str) -> str:
    # If text has a run of digits, "_" not counted, longer than the
    # interpreter's limit on the digits int() reads (PYTHONINTMAXSTRDIGITS),
    # the words a message names that limit with; else "".
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and any(len(run) - run.count("_") > limit for run in _DIGIT_RUN.findall(text)):
        return f"more than {limit} digits, the interpreter's limit (PYTHONINTMAXSTRDIGITS)"
    return ""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a decimal literal (exponents allowed) exactly.

    Literals with more than ``MAX_LITERAL_DIGITS`` digits or a decimal
    exponent beyond ``MAX_LITERAL_EXPONENT`` are rejected unparsed.
    """
    s = text.strip()
    if not s:
        raise InvalidInputError("empty rational literal")
    # The digit count cannot exceed len(s), so short literals skip it.
    if len(s) > MAX_LITERAL_DIGITS and sum(c.isdigit() for c in s) > MAX_LITERAL_DIGITS:
        raise InvalidInputError(
            f"literal {s[:20]!r}... has more than {MAX_LITERAL_DIGITS} digits"
        )
    exponent = _EXPONENT.search(s)
    if exponent and abs(int(exponent.group(1))) > MAX_LITERAL_EXPONENT:
        raise InvalidInputError(
            f"exponent of {text!r} exceeds {MAX_LITERAL_EXPONENT} in absolute value"
        )
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise InvalidInputError(f"zero denominator in {text!r}") from None
    except ValueError:
        # int() refuses a run of more digits than the interpreter's limit
        # (PYTHONINTMAXSTRDIGITS), which may be set below MAX_LITERAL_DIGITS.
        if over := _past_digit_limit(s):
            raise InvalidInputError(f"literal {s[:20]!r}... has a number of {over}") from None
        raise InvalidInputError(f"cannot parse {text!r} as a rational") from None


def parse_real(text: str, precision: int = DEFAULT_PRECISION) -> Fraction:
    """Parse a fraction, a decimal literal, or a named constant.

    Fractions and decimals convert exactly.  A named constant from
    ``CONSTANT_NAMES`` is truncated toward zero to ``precision`` decimal
    digits and converted exactly; the result is the stand-in used by all
    downstream arithmetic.  A leading minus sign negates a named constant;
    truncation toward zero is odd, so the stand-in of -c is minus that of c.
    ``precision`` must lie in 1..MAX_PRECISION.
    """
    if not isinstance(precision, int) or not 1 <= precision <= MAX_PRECISION:
        raise InvalidInputError(f"precision must be an integer in 1..{MAX_PRECISION}")
    s = text.strip()
    if not s:
        raise InvalidInputError("empty real literal")
    name = s.lower()
    if name[0] == "-" and name[1:] in CONSTANT_NAMES:
        return -parse_real(name[1:], precision)
    if name in CONSTANT_NAMES:
        return Fraction(_scaled_floor(name, precision), 10**precision)
    if s[0].isalpha():
        raise InvalidInputError(
            f"unknown constant name {text!r}; known: {', '.join(CONSTANT_NAMES)}"
        )
    return parse_rational(s)


def _scaled_floor(name: str, precision: int) -> int:
    # floor(c * 10**precision) for the named constant c.  A precision at or
    # below the memo's drops digits from its floor, which is exact because
    # floor(floor(y)/m) == floor(y/m) for every integer m >= 1.
    top, floor = _SCALED_FLOORS.get(name, (-1, 0))
    if precision <= top:
        return floor // 10 ** (top - precision)
    scale = 10**precision
    if name in _SQUARE_ROOTS:
        floor = math.isqrt(_SQUARE_ROOTS[name] * scale * scale)
    elif name == "phi":
        # (1 + sqrt(5))/2 scaled: floor((a + s)/2) == (a + floor(s)) // 2
        # for irrational s and integer a.
        floor = (scale + math.isqrt(5 * scale * scale)) // 2
    else:
        # _series brackets c * one for one = 10**(precision + guard); once
        # both ends of the bracket agree with the guard digits dropped,
        # their common floor is the answer.  A run of 9s or 0s after the
        # last kept digit needs a larger guard.
        guard = 10
        while True:
            approx, err = _series(name, 10 ** (precision + guard))
            floor = (approx - err) // 10**guard
            if floor == (approx + err) // 10**guard:
                break
            guard *= 2
    _SCALED_FLOORS[name] = precision, floor
    return floor


def _series(name: str, one: int) -> tuple[int, int]:
    # (approx, err) with |c * one - approx| < err.  Nested floors compose,
    # floor(floor(a/b)/c) == floor(a/(b*c)), so each term is the floor of its
    # exact value (off by < 1), and each loop stops at the first term below 1.
    # pi = 16 atan(1/5) - 4 atan(1/239) (Machin): the series of atan(1/m)
    # alternates with decreasing terms, so its tail is below that first term
    # and k summed terms leave it off by < k + 1.  e = sum_k 1/k!: past k
    # terms the tail is below term k * (k+1)/k < 2, so it is off by < k + 2.
    approx = err = 0
    if name == "pi":
        for m, weight in ((5, 16), (239, -4)):
            power, k = one // m, 0
            while power:
                term = power // (2 * k + 1)
                approx += weight * (-term if k % 2 else term)
                power //= m * m
                k += 1
            err += abs(weight) * (k + 1)
        return approx, err
    term, k = one, 0
    while term:
        approx += term
        k += 1
        term //= k
    return approx, k + 2
