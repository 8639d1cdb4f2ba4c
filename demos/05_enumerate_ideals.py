"""Enumerating every B-saturated monomial ideal with a given Hilbert
polynomial, by peeling face-ring polynomials off the target.

The classical benchmark: twisted-cubic-like subschemes of P^2 with
polynomial 3t + 1.  There are exactly 30 saturated monomial ideals, all
generated by two monomials of degree four, and the longest
representation the search builds has four pairs - the Gotzmann number.
"""

from toricreg import (
    format_ideal,
    parse_poly,
    product_projective,
    projective_space,
    run_enumeration,
)

P2 = projective_space(2)
target = parse_poly("3*t+1")
result = run_enumeration(P2, target)

print("P =", "3t+1", "on P^2")
print("ideals found:", len(result.ideals))
print("representations explored:", len(result.reps))
print("Gotzmann number:", result.gotzmann_number)

print("\nfirst five ideals with their witness filtrations:")
for ideal, witness in result.ideals[:5]:
    print(" ", format_ideal(ideal))
    for pair in witness:
        print("    ", pair)

# On P^2 x P^1 the multigrading separates classes that the coarse
# grading conflates: 3t1+1 is realizable, 3t2+1 is not.
PP = product_projective(2, 1)
for text in ("3*t1+1", "2*t1+t2+1", "t1+2*t2+1", "3*t2+1"):
    out = run_enumeration(PP, parse_poly(text, nvars=2))
    print(f"\nP = {text} on P^2 x P^1: {len(out.ideals)} ideals, "
          f"max representation {out.gotzmann_number} pairs")
