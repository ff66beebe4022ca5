"""Mediant ladders and their exact gap formulas.

Starting from the consecutive Farey pair 1/3 < 1/2, repeatedly replacing
the right end by the mediant walks down toward 1/3; doing it from the left
walks up toward 1/2.  Every gap between rungs is exactly one over the
product of the adjacent rung denominators - no approximation involved.
"""

from fractions import Fraction

from fareyapprox import (
    FareyPair,
    ascending_chain,
    ascending_step_gap,
    ascending_tail_gap,
    descending_chain,
    descending_step_gap,
    descending_tail_gap,
    format_rational,
)

base = FareyPair(Fraction(1, 3), Fraction(1, 2), 3)

down = descending_chain(base, 5)
print("descending ladder from 1/2 toward 1/3:")
print("  " + " > ".join(format_rational(t) for t in down))

up = ascending_chain(base, 5)
print("ascending ladder from 1/3 toward 1/2:")
print("  " + " < ".join(format_rational(t) for t in up))

print("\nrung gaps, subtraction vs. closed form 1/((k2+i*k1)(k2+(i+1)*k1)):")
for i in range(5):
    direct = down[i] - down[i + 1]
    formula = descending_step_gap(base, i)
    print(f"  i={i}: {format_rational(direct)} == {format_rational(formula)}  ({direct == formula})")

print("\ntail distances to the far endpoint, 1/(k1*(k2+i*k1)):")
for i in (0, 2, 5):
    direct = down[i] - base.left
    formula = descending_tail_gap(base, i)
    print(f"  i={i}: {format_rational(direct)} == {format_rational(formula)}  ({direct == formula})")

print("\nsame story on the ascending side:")
for j in (0, 3):
    step = up[j + 1] - up[j]
    tail = base.right - up[j]
    print(
        f"  j={j}: step {format_rational(step)} == {format_rational(ascending_step_gap(base, j))},"
        f" tail {format_rational(tail)} == {format_rational(ascending_tail_gap(base, j))}"
    )
