import decimal
import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fareyapprox.rationals as rationals
from fareyapprox import (
    CONSTANT_NAMES,
    InvalidInputError,
    format_rational,
    nearest_int_distance,
    parse_rational,
    parse_real,
)
from fareyapprox.rationals import (
    MAX_LITERAL_DIGITS,
    MAX_LITERAL_EXPONENT,
    MAX_PRECISION,
    _scaled_floor,
    _series,
)

# First 50 decimals of pi and e, a well-known reference independent of the
# implementation's digit source.
PI_50 = "3.14159265358979323846264338327950288419716939937510"
E_50 = "2.71828182845904523536028747135266249775724709369995"

# SHA-256 of str(floor(c * 10**2000)), taken from an independent
# multiprecision evaluation of pi and e.
DIGESTS_2000 = {
    "pi": "0b7980ab9005cc94e83351b2e5593b3c3f363a67452526d756243e344d6cb842",
    "e": "87c86c78496b188708d5bdc9d1e099be6de91329fc69714e0ef3a8f63ec70f0d",
}


def assert_canonical(x):
    assert x.denominator > 0
    assert math.gcd(abs(x.numerator), x.denominator) == 1


def test_nearest_int_distance_examples():
    assert nearest_int_distance(F(7, 3)) == F(1, 3)
    assert nearest_int_distance(F(1, 2)) == F(1, 2)
    assert nearest_int_distance(F(-5, 4)) == F(1, 4)


def test_nearest_int_distance_properties():
    rng = random.Random(303)
    for _ in range(300):
        x = F(rng.randint(-400, 400), rng.randint(1, 50))
        d = nearest_int_distance(x)
        assert 0 <= d <= F(1, 2)
        # exact distance to the closer of floor/ceil
        assert d == min(x - math.floor(x), math.ceil(x) - x)
        assert nearest_int_distance(x + rng.randint(-5, 5)) == d


def test_parse_fraction_and_decimal():
    assert parse_real("3/7") == F(3, 7)
    assert parse_real("0.25") == F(1, 4)
    assert parse_real("-47e-2") == F(-47, 100)
    assert parse_real(" 2 ") == F(2)
    assert parse_rational("5/15") == F(1, 3)


def test_parse_real_sqrt2_example():
    assert parse_real("sqrt2", 5) == F(141421, 100000)


@pytest.mark.parametrize("name,square", [("sqrt2", 2), ("sqrt3", 3), ("sqrt5", 5)])
@pytest.mark.parametrize("precision", [1, 5, 30, 64])
def test_square_root_standins_are_truncations(name, square, precision):
    # v is the truncation of sqrt(square) iff v^2 <= square < (v + ulp)^2
    v = parse_real(name, precision)
    ulp = F(1, 10**precision)
    assert v.denominator <= 10**precision
    assert v * v <= square
    assert (v + ulp) * (v + ulp) > square


@pytest.mark.parametrize("precision", [1, 5, 30, 64])
def test_phi_standin_is_truncation(precision):
    # phi is the positive root of y^2 - y - 1, so for v > 0:
    # v <= phi iff v^2 - v - 1 <= 0.
    v = parse_real("phi", precision)
    ulp = F(1, 10**precision)
    assert v * v - v - 1 <= 0
    w = v + ulp
    assert w * w - w - 1 > 0


def test_pi_e_standins_match_reference_digits():
    assert parse_real("pi", 50) == F(PI_50)
    assert parse_real("e", 50) == F(E_50)
    assert parse_real("pi", 5) == F(314159, 100000)
    assert parse_real("e", 5) == F(271828, 100000)


@pytest.mark.parametrize("name", ["pi", "e"])
def test_pi_e_standins_are_truncations_of_pinned_digits(name):
    big = int(parse_real(name, 2000) * 10**2000)
    assert hashlib.sha256(str(big).encode()).hexdigest() == DIGESTS_2000[name]
    # The series bracket holds: approx - err <= floor(c * one) < approx + err.
    for digits in [*range(0, 60), 500, 761, 1999]:
        approx, err = _series(name, 10**digits)
        assert approx - err <= big // 10 ** (2000 - digits) < approx + err, digits
    # Truncating the pinned 2000 digits gives every shorter stand-in.  At
    # 761 digits six 9s follow (the Feynman point), so the first guard size
    # cannot decide the floor of pi; since 2000 is asked for first, the
    # memo answers 761 here, and test_pi_761_from_empty_memo_retries_guard
    # runs the guard-doubling retry.
    for precision in [*range(1, 401), 761, 762, 763, 1000, 1500, 2000]:
        expected = F(big // 10 ** (2000 - precision), 10**precision)
        assert parse_real(name, precision) == expected, precision


@pytest.fixture
def series_rounds(monkeypatch):
    # Starts from an empty memo and counts the _series rounds run.
    monkeypatch.setattr(rationals, "_SCALED_FLOORS", {})
    rounds = []

    def counted(name, one):
        rounds.append(name)
        return _series(name, one)

    monkeypatch.setattr(rationals, "_series", counted)
    return rounds


def fresh_floor(monkeypatch, name, precision):
    with monkeypatch.context() as m:
        m.setattr(rationals, "_SCALED_FLOORS", {})
        return _scaled_floor(name, precision)


@pytest.mark.parametrize("name", CONSTANT_NAMES)
def test_memo_answers_equal_fresh_computations(name, monkeypatch):
    precisions = [1, 2, 9, 10, 11, 64, 300, 761, 1000]
    shuffled = precisions[:]
    random.Random(505).shuffle(shuffled)
    expected = {p: fresh_floor(monkeypatch, name, p) for p in precisions}
    for order in (precisions, precisions[::-1], shuffled):
        monkeypatch.setattr(rationals, "_SCALED_FLOORS", {})
        for p in order:
            assert _scaled_floor(name, p) == expected[p], (order, p)
            assert parse_real(name, p) == F(expected[p], 10**p)
        assert list(rationals._SCALED_FLOORS) == [name]
        assert rationals._SCALED_FLOORS[name][0] == max(precisions)


def test_pi_761_from_empty_memo_retries_guard(series_rounds):
    stand_in = parse_real("pi", 761)
    assert len(series_rounds) >= 2
    big = int(parse_real("pi", 2000) * 10**2000)
    assert hashlib.sha256(str(big).encode()).hexdigest() == DIGESTS_2000["pi"]
    assert stand_in == F(big // 10**1239, 10**761)


def test_signed_constant_shares_memo_entry(series_rounds):
    assert parse_real("-pi", 30) == -parse_real("pi", 30)
    assert parse_real("PI", 20) == F(PI_50[:22])
    assert series_rounds == ["pi"]
    assert list(rationals._SCALED_FLOORS) == ["pi"]


def test_cli_import_needs_no_mpmath():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fareyapprox.cli; print('mpmath' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_standins_reproducible():
    assert parse_real("pi", 64) == parse_real("PI", 64)
    assert parse_real("e", 200) == parse_real("e", 200)


def test_parse_real_errors():
    with pytest.raises(InvalidInputError):
        parse_real("sqrt7")
    with pytest.raises(InvalidInputError):
        parse_real("1/0")
    with pytest.raises(InvalidInputError):
        parse_real("not a number")
    with pytest.raises(InvalidInputError):
        parse_real("")
    with pytest.raises(InvalidInputError):
        parse_real("pi", 0)


@pytest.mark.parametrize("name", ["sqrt2", "sqrt3", "sqrt5", "phi", "e", "pi"])
@pytest.mark.parametrize("precision", [1, 30, 64])
def test_signed_constants_are_negated_standins(name, precision):
    assert parse_real(f"-{name}", precision) == -parse_real(name, precision)
    assert parse_real(f" -{name.upper()} ", precision) == -parse_real(name, precision)


def test_literal_and_precision_bounds():
    # At the limits parsing is immediate; one past them is refused before
    # any big integer is built (1e-999999999 used to run for minutes).
    assert parse_rational("1" * MAX_LITERAL_DIGITS) == F(int("1" * MAX_LITERAL_DIGITS))
    assert parse_rational(f"1e-{MAX_LITERAL_EXPONENT}") == F(1, 10**MAX_LITERAL_EXPONENT)
    assert parse_rational("1e-1_0") == F(1, 10**10)
    assert parse_real("pi", MAX_PRECISION).denominator == 10**MAX_PRECISION
    for text in (
        "1" * (MAX_LITERAL_DIGITS + 1),
        "1/" + "3" * MAX_LITERAL_DIGITS,
        f"1e-{MAX_LITERAL_EXPONENT + 1}",
        f"2.5E+{MAX_LITERAL_EXPONENT + 1}",
        "1e-999999999",
        "1e-999_999_999",
        "1e1_0000_0",
    ):
        with pytest.raises(InvalidInputError):
            parse_rational(text)
        with pytest.raises(InvalidInputError):
            parse_real(text)
    with pytest.raises(InvalidInputError):
        parse_real("1/3", MAX_PRECISION + 1)


def test_digit_limit_counts_digits_not_characters():
    # Only literals longer than the limit are counted; separators, "/" and
    # the decimal point count as characters but not as digits.
    half = MAX_LITERAL_DIGITS // 2
    for text in (
        "-" + "1" * half + "/" + "3" * half,
        "-" + "1" * half + "." + "5" * half,
        "1_" * (MAX_LITERAL_DIGITS - 1) + "1",
    ):
        assert len(text) > MAX_LITERAL_DIGITS
        assert parse_rational(text) == F(text)
    for text in ("1_" * MAX_LITERAL_DIGITS + "1", "1" * half + "/" + "3" * (half + 1)):
        with pytest.raises(InvalidInputError, match=f"has more than {MAX_LITERAL_DIGITS} digits"):
            parse_rational(text)


def test_format_round_trip():
    assert format_rational(F(0, 1)) == "0/1"
    assert format_rational(F(-1, 3)) == "-1/3"
    for text in ["4/6", "-3/9", "10/5", "7/13"]:
        x = parse_real(text)
        again = parse_real(format_rational(x))
        assert again == x
        assert_canonical(again)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40_000).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)))
@example(10**4300 - 1)  # the longest int str() prints by default
@example(10**4300)
@example(-(10**4300))
@example(10**9000 + 1)  # a split whose low half has leading zeros
def test_int_text_prints_any_int_exactly(n):
    # Decimal converts an int without str(), so it has no digit limit.
    assert rationals._int_text(n) == str(decimal.Decimal(n))
    x = F(n, abs(n) + 7)
    assert format_rational(x) == f"{decimal.Decimal(x.numerator)}/{decimal.Decimal(x.denominator)}"
    assert rationals._fraction_text(F(n)) == str(decimal.Decimal(n))
