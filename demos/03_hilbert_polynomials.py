"""Multigraded Hilbert polynomials, exactly.

P_S comes in closed form from the maximal cones (Brion's lattice-point
formula, with exact rational coefficients); P_{S_sigma} and P_{S/I} are
shifted sums of P_S over a K-polynomial, and over any Stanley
decomposition P_{S/I} is the sum of its face polynomials, with off-fan
pairs contributing nothing.
"""

from toricreg import (
    MonomialIdeal,
    face_hilbert_polynomial,
    format_poly,
    hilbert_function,
    hirzebruch,
    projective_space,
    quotient_hilbert_polynomial,
    ring_hilbert_polynomial,
)

P3 = projective_space(3)
F2 = hirzebruch(2)

print("P_S(P^3) =", format_poly(ring_hilbert_polynomial(P3)))
print("P_S(F_2) =", format_poly(ring_hilbert_polynomial(F2)))
print("P_S(F_4) =", format_poly(ring_hilbert_polynomial(hirzebruch(4))))

# Face rings: the plane {x4 = 0} inside P^3 and a torus-fixed point.
print("\nface {1,2,3} of P^3:", format_poly(face_hilbert_polynomial(P3, {0, 1, 2})))
print("face {4}     of P^3:", format_poly(face_hilbert_polynomial(P3, {3})))

# A monomial quotient: three generators supported on x4^2.
I = MonomialIdeal(4, [(1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 1, 2)])
P = quotient_hilbert_polynomial(P3, I)
print("\nI =", I)
print("P_{S/I} =", format_poly(P))
print("values vs Hilbert function:")
for t in range(7):
    print(f"  t={t}:  P={P.evaluate((t,))}  H={hilbert_function(P3, I, (t,))}")

# On the Hirzebruch surface the polynomial is honestly bivariate.
J = MonomialIdeal(4, [(1, 0, 1, 0)])
Q = quotient_hilbert_polynomial(F2, J)
print("\nJ =", J, "on F_2")
print("P_{S/J} =", format_poly(Q))
for t in [(2, 2), (3, 1), (4, 5)]:
    print(f"  t={t}:  P={Q.evaluate(t)}  H={hilbert_function(F2, J, t)}")
