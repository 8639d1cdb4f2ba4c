"""Building toric varieties from fans and reading off their gradings.

A smooth projective toric variety is specified by the rays of its fan
and the maximal cones.  The package computes the Gale-dual grading of
the Cox ring, the irrelevant ideal, and the nef semigroup K.
"""

from toricreg import (
    Fan,
    build_variety,
    find_c,
    format_monomial,
    hirzebruch,
    positive_orthant_change,
    product_projective,
    projective_space,
)

# Projective space: the all-ones grading, K = N.
P3 = projective_space(3)
print("P^3:", P3)
print("  grading:", P3.grading)
print("  irrelevant ideal: <%s>" % ", ".join(
    format_monomial(g) for g in P3.irrelevant_generators()))
print("  nef rays:", P3.nef_rays)

# The Hirzebruch surface F_2 with its textbook grading.  With this
# choice the nef semigroup is exactly N^2.
F2 = hirzebruch(2)
print("\nF_2:", F2)
print("  grading rows:", F2.grading)
print("  (1,1) nef?", F2.nef_member((1, 1)), " (-2,1) nef?", F2.nef_member((-2, 1)))

# Building the same fan without specifying the grading picks the
# Hermite-normal-form Gale dual instead: a different, equally valid
# basis of Pic.  K is then a different (unimodularly equivalent) cone,
# and positive_orthant_change finds the coordinates with N^2 inside K.
F2_raw = build_variety(F2.fan)
print("\nF_2 with canonical grading:", F2_raw.grading)
U = positive_orthant_change(F2_raw)
print("  orthant change:", [list(row) for row in U.matrix])
print("  columns are nef:", all(F2_raw.nef_member(col) for col in zip(*U.matrix)))

# find_c produces the degree used by the uniform regularity bound: a
# point c with c - deg(x_i) in K for every variable.
PP = product_projective(2, 1)
print("\nP^2 x P^1: c =", find_c(PP))
print("F_2:       c =", find_c(F2))
