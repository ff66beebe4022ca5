"""A tour of Farey sequences: generation, bracketing, and the classical laws.

F_N lists every reduced fraction in [0, 1] with denominator at most N, in
increasing order.  The magic is in adjacent terms h/k < h'/k': they always
satisfy kh' - hk' = 1, their denominators sum past N, and each interior
term is the mediant of its neighbours.
"""

from fractions import Fraction

from fareyapprox import (
    farey_neighbors,
    farey_next,
    farey_sequence,
    format_rational,
    parse_real,
    verify_farey_properties,
)

print("F_7, all nineteen terms:")
terms = list(farey_sequence(7))
print("  " + "  ".join(format_rational(t) for t in terms))

print("\nWalking by the next-term recurrence from (0/1, 1/7):")
from fareyapprox import FareyPair

pair = FareyPair(terms[0], terms[1], 7)
walked = [pair.left, pair.right]
while walked[-1] != 1:
    nxt = farey_next(FareyPair(walked[-2], walked[-1], 7))
    walked.append(nxt)
assert walked == terms
print("  recurrence reproduces the whole sequence, no sorting involved")

print("\nWhere does 5/16 land in F_7?")
found = farey_neighbors(Fraction(5, 16), 7)
print(f"  between {format_rational(found.left)} and {format_rational(found.right)}")
print(f"  check: {found.left} < 5/16 < {found.right},",
      f"unimodular: {found.left.denominator * found.right.numerator - found.left.numerator * found.right.denominator}")

print("\nBracketing a 50-digit stand-in for sqrt(2) - 1 in F_1000:")
x = parse_real("sqrt2", 50) - 1
found = farey_neighbors(x, 1000)
print(f"  {format_rational(found.left)} < sqrt2 - 1 < {format_rational(found.right)}")
print(f"  interval width: {found.right - found.left}")

print("\nExhaustive verification of the four adjacent-term laws:")
for order in (1, 10, 100):
    report = verify_farey_properties(order)
    flags = ", ".join(
        f"{name}={'skip' if c.skipped else 'ok' if c.passed else 'FAIL'}"
        for name, c in report.checks()
    )
    print(f"  order {order:>3}: {flags}")
