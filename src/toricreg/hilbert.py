"""Multigraded Hilbert polynomials through one coarse K-polynomial kernel.

The grading deg: N^n -> Z^r of S = k[x_1..x_n] is positive, so the
Hilbert series of S/I is the formal power series

    H(S/I; y) = K(S/I; y) / prod_i (1 - y^{deg x_i}),

whose numerator, the coarse K-polynomial K(S/I; y) = sum_d c_d y^d, is
a Laurent polynomial with integer coefficients.  Since
H(S; y) = 1 / prod_i (1 - y^{deg x_i}), comparing coefficients gives

    H_{S/I}(t) = sum_d c_d H_S(t - d)    for every t in Z^r.

Deep inside the nef semigroup K every t - d lies in K, and on all of K
the Hilbert function of S is a polynomial: by Demazure vanishing
H^i(X, O(t)) = 0 for i > 0 and t nef, so H_S(t) = dim H^0(X, O(t)) is
the Euler characteristic, a polynomial P_S(t).  Both sides therefore
agree with polynomials deep in K, and as polynomials

    P_{S/I}(t) = sum_d c_d P_S(t - d)

exactly.  A face ring S_sigma = S / <x_i : i in sigma^> has the Koszul
numerator prod_{i in sigma^} (1 - y^{deg x_i}), so it comes out of the
same sum; when sigma^ is not a face the ring is B-torsion and the sum
is zero.  P_S is the only polynomial built per variety, in closed form
from the maximal cones: Brion's formula sums the lattice points of a
fiber of S over its vertex cones, one per maximal cone, and the
constant term of that sum at s = 0 is a Todd (Bernoulli) expansion
(_ring_polynomial; Brion, Points entiers dans les polyedres convexes,
1988; Cox-Little-Schenck, Toric Varieties, ch. 9 and 13).  It is
assembled in integers over one common denominator, and P_S(0) = 1 is
checked.

The sum is computed in integers: with D the lcm of the denominators
of P_S, D * P_S(t - d) expands by the binomial theorem into integer
multiples of t^beta prod_j (-d_j)^gamma_j, so D * sum_d c_d P_S(t - d)
has the integer coefficients shift_numerators returns.  In particular
D * P_{S/I} is integral for every I; so is L * P_{S/I} for any L that
D divides, and multiplying by L > 0 keeps every equality and sign, so
the integer vectors decide P_{S/I} = P and leading terms exactly
(enumeration.py).

A face ring's K(S_sigma) is always its Koszul numerator
(face_k_polynomial, pairs_k_polynomial).  Only an ideal's K-polynomial
comes from a recursion, on the exact sequence
0 -> S/(I : m)(-deg m) -> S/I -> S/(I + m) -> 0 for m = x_i^e, that is
K(S/I) = K(S/(I + m)) + y^{deg m} K(S/(I : m)).  The recursion runs in
any grading: the coarse one, memoized on the variety, and the fine one
deg u = u, which certifies Stanley decompositions (verify_stanley).
"""

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, lcm, prod
from operator import add, mul, sub

from . import intlinalg as il
from .errors import NotComplete, SearchExhausted, UnitIdeal
from .ideals import minimal_generators
from .multipoly import MultiPoly


@cache
def _todd_scale(d):
    """(T, (T b_0, ..., T b_d)) for b_k = B_k / k! the coefficients of
    B(x) = x / (e^x - 1), so B_1 = -1/2, and T their least common
    denominator; a constant per dimension."""
    b = [Fraction(1)]
    for k in range(1, d + 1):
        # B(x) times (e^x - 1) / x = sum_j x^j / (j + 1)! is 1
        b.append(-sum(b[j] / factorial(k - j + 1) for j in range(k)))
    scale = lcm(*(x.denominator for x in b))
    return scale, tuple(int(x * scale) for x in b)


@cache
def _todd_power_sums(d, scale, todd):
    """T^d beta_j(c), j <= d, from the power sums p_k = sum_i c_i^k of d
    weights c: (weights, divisors, T^d) with

        T^d beta_m(c) = T^d F_m / divisors[m],
        F_0 = 1,  F_m = sum over (k, w) in weights[m] of w p_k F_{m-k}.

    With log B(x) = sum_k l_k x^k (l_m = b_m - sum_{k<m} k l_k b_{m-k} / m,
    from x B' = x (log B)' B), prod_i B(c_i x) = exp(sum_k l_k p_k x^k),
    and f = exp(g) has m f_m = sum_{k<=m} k g_k f_{m-k}.  With D the lcm
    of the denominators of the l_k, F_m = m! D^m f_m satisfies the
    recursion above with the integer weights w = k (m-1)!/(m-k)! D^k l_k,
    and divisors[m] = m! D^m.  T^d beta_m is an integer (a product of d
    series with integer coefficients T b_k c^k), so each division is
    exact.  Keyed on the table (T, T b_k), not on d alone."""
    b = [Fraction(t, scale) for t in todd]
    logs = [Fraction(0)]
    for m in range(1, d + 1):
        logs.append(b[m] - sum((k * logs[k] * b[m - k] for k in range(1, m)), Fraction(0)) / m)
    D = lcm(*(x.denominator for x in logs))
    weights = [[(k, int(k * factorial(m - 1) // factorial(m - k) * D ** k * logs[k]))
                for k in range(1, m + 1) if logs[k]]
               for m in range(d + 1)]
    return weights, [factorial(m) * D ** m for m in range(d + 1)], scale ** d


def _ring_polynomial(X, gammas):
    """P_S from the maximal cones, as {alpha: coefficient of t^alpha}
    over the exponents alpha in gammas (|alpha| <= d).

    For lam in Z^n and a maximal cone sigma, the vertex of the fiber
    {u in N^n : A u = t} at sigma is u_sigma^ = M^-1 t, u_sigma = 0, with
    M = A's columns on sigma^; moving off it along x_i, i in sigma,
    changes lam.u by c_i = lam_i - ell.a_i, for ell = lam_sigma^ M^-1.
    Brion's formula sums the lattice points of the fiber over these
    vertex cones:

        sum_u e^{s lam.u} = sum_sigma e^{s ell.t} / prod_i (1 - e^{s c_i}),

    valid when no c_i is zero.  With 1 / (1 - e^x) = -B(x) / x, the
    constant term at s = 0 is

        P_S(t) = sum_sigma (-1)^d / prod_i c_i
                 * sum_k (ell.t)^k / k! * beta_{d-k}(c),
        beta_j(c) = [x^j] prod_i B(c_i x),

    the Euler characteristic of O(t), so equal to the fiber count on K
    (Demazure vanishing), as polynomials.  lam = (1, N, ..., N^{n-1})
    makes each c_i a nonzero polynomial in N of degree below n (its N^i
    coefficient is 1), so of any cones * d * (n - 1) + 1 values of N one
    leaves every c_i nonzero; N runs from 2.  With L the lcm of the
    prod_i c_i and T^d beta_j(c) an integer from the table of
    _todd_scale, alpha! T^d L times the coefficient of t^alpha is the
    integer (-1)^d sum_sigma (L / prod_i c_i) ell^alpha T^d
    beta_{d-|alpha|}(c), so each coefficient is one Fraction.  P_S(0) = 1,
    the one monomial in degree 0, is checked: a fan that is not complete
    breaks it.
    """
    n, d = X.n, X.d
    columns = tuple(zip(*X.grading))
    scale, todd = _todd_scale(d)
    cones = X._facet_data
    for N in range(2, 3 + len(cones) * d * (n - 1)):
        lam = [N ** i for i in range(n)]
        local = []
        for hat, minv in cones:
            ell = [sum(lam[j] * x for j, x in zip(hat, col)) for col in zip(*minv)]
            c = [lam[i] - sum(map(mul, ell, columns[i])) for i in range(n) if i not in hat]
            if not all(c):
                break
            local.append((ell, c))
        else:
            break
    else:  # never raised: see the docstring
        raise SearchExhausted("no weight vector is generic on every maximal cone")

    total = lcm(*(prod(c) for _, c in local))
    rests = [d - sum(alpha) for alpha in gammas]
    numerators = [0] * len(gammas)
    weights, divisors, top = _todd_power_sums(d, scale, todd)
    for ell, c in local:
        sums, powers = [d], c  # p_k = sum_i c_i^k
        for _ in range(d):
            sums.append(sum(powers))
            powers = list(map(mul, powers, c))
        F = [1]
        for m in range(1, d + 1):
            F.append(sum(w * sums[k] * F[m - k] for k, w in weights[m]))
        weight = total // prod(c)
        # weight * T^d beta_j(c), j <= d
        series = [weight * (top * f // e) for f, e in zip(F, divisors)]
        for k, alpha in enumerate(gammas):
            numerators[k] += series[rests[k]] * prod(map(pow, ell, alpha))
    denom = (-1) ** d * total * scale ** d
    if numerators[0] != denom:  # gammas[0] is the zero exponent
        raise NotComplete(f"P_S(0) = {Fraction(numerators[0], denom)}, not 1: "
                          "the fan is not complete")
    return {alpha: Fraction(v, denom * prod(map(factorial, alpha)))
            for alpha, v in zip(gammas, numerators) if v}


def ring_hilbert_polynomial(X):
    """P_S(t) of the full Cox ring, in closed form from the maximal
    cones, once per variety.  NotComplete when P_S(0) is not 1, as on a
    fan built with assume_complete that is not complete."""
    return _ring_expansion(X)[0]


def _ring_expansion(X):
    """(P_S, D, gammas, terms) with
    P_S(t - d) = (1/D) sum over the terms (beta, k, a) of
    a * t^beta * prod_j (-d_j)^gammas[k][j], all integers; gammas, the
    exponents of total degree at most d, are also the monomials of the
    closed form of P_S (_ring_polynomial)."""
    if X._ring_expansion is None:
        gammas = [g for g in product(range(X.d + 1), repeat=X.r) if sum(g) <= X.d]
        poly = MultiPoly(X.r, _ring_polynomial(X, gammas))
        denom = lcm(*(c.denominator for c in poly.terms.values()))
        index = {gamma: k for k, gamma in enumerate(gammas)}
        terms = []
        for alpha, coeff in poly.terms.items():
            whole = coeff.numerator * (denom // coeff.denominator)
            for gamma in product(*(range(a + 1) for a in alpha)):
                beta = tuple(map(sub, alpha, gamma))
                terms.append((beta, index[gamma], whole * prod(map(comb, alpha, beta))))
        X._ring_expansion = (poly, denom, gammas, tuple(terms))
    return X._ring_expansion


def shift_numerators(X, kpoly):
    """D * sum_d c_d P_S(t - d) for kpoly = ((d, c_d), ...) as
    {beta: nonzero integer coefficient of t^beta}, D the denominator of
    P_S; from the moments sum_d c_d prod_j (-d_j)^gamma_j."""
    _, _, gammas, terms = _ring_expansion(X)
    moments = [0] * len(gammas)
    for d, c in kpoly:
        neg = [-x for x in d]
        for k, gamma in enumerate(gammas):
            moments[k] += c * prod(map(pow, neg, gamma))
    numerators = {}
    for beta, k, a in terms:
        numerators[beta] = numerators.get(beta, 0) + a * moments[k]
    return {beta: v for beta, v in numerators.items() if v}


def _scaled_target(X, P):
    """D * P as {exponent: integer}, for D the denominator of P_S
    (_ring_expansion), or None when D * P is not integral.

    D * P_{S/I} = shift_numerators(X, K(S/I)) is integral for every I
    (module docstring), and D > 0, so P_{S/I} = P exactly when that
    dict equals this one; when D * P is not integral no ideal has
    polynomial P.  The unit ideal has K = 0, so it matches exactly when
    P = 0.  Both sides keep nonzero coefficients only.
    """
    denom = _ring_expansion(X)[1]
    target = {e: c * denom for e, c in P.terms.items()}
    if any(c.denominator != 1 for c in target.values()):
        return None
    return {e: int(c) for e, c in target.items()}


def _shift_sum(X, kpoly):
    """sum_d c_d P_S(t - d) as a MultiPoly."""
    denom = _ring_expansion(X)[1]
    return MultiPoly(X.r, {beta: Fraction(v, denom)
                           for beta, v in shift_numerators(X, kpoly).items()})


# -- the K-polynomial recursion ---------------------------------------------


def koszul_numerator(degrees, zero):
    """{degree: coefficient} of prod_d (1 - y^d) over the given degrees,
    the K-polynomial of a regular sequence of monomials of those
    degrees; zero is the degree of 1."""
    out = {zero: 1}
    for deg in degrees:
        for d, c in list(out.items()):
            key = tuple(map(add, d, deg))
            out[key] = out.get(key, 0) - c
    return out


def coarse_k_polynomial(X, I):
    """K(S/I; y) pushed to Z^r by the grading, as a tuple of
    (degree, nonzero integer coefficient) pairs; empty for the unit
    ideal.  Every ideal met by the recursion is memoized on X."""
    return _k_polynomial(X.degree, (0,) * X.r, X._k_poly_cache, I.gens, None)


def _k_polynomial(degree, zero, cache, gens, bound):
    """The recursion on a minimal, sorted generator tuple in the grading
    u -> degree(u), zero = degree(1), memoized in cache (one per grading).

    Leaves: the unit ideal (K = 0) and pairwise coprime generators, a
    regular sequence with K = prod_g (1 - y^{deg g}).  Otherwise split
    on m = x_i^e, with x_i the variable in the most generators and e the
    median exponent of x_i over the generators x_i divides that are not
    powers of x_i.  I + m drops at least one of those, and I : m lowers
    the total degree without adding one, so the measure (generators that
    are not pure powers, total degree) falls in both children; bound is
    the parent's measure and the fall is checked.
    """
    cached = cache.get(gens)
    if cached is not None:
        return cached
    if gens and not any(gens[0]):  # the unit ideal; the zero vector sorts first
        cache[gens] = ()
        return ()
    support = [len(g) - g.count(0) for g in gens]
    measure = (sum(s >= 2 for s in support), sum(map(sum, gens)))
    if bound is not None and measure >= bound:
        raise SearchExhausted("the K-polynomial recursion made no progress")
    counts = [len(col) - col.count(0) for col in zip(*gens)]
    if max(counts, default=0) <= 1:
        out = koszul_numerator(map(degree, gens), zero)
    else:
        i = counts.index(max(counts))
        exps = sorted(g[i] for g, s in zip(gens, support) if g[i] and s >= 2)
        e = exps[len(exps) // 2]
        power = tuple(e if j == i else 0 for j in range(len(gens[0])))
        plus = tuple(sorted([g for g in gens if g[i] < e] + [power]))
        colon = minimal_generators({g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens})
        out = dict(_k_polynomial(degree, zero, cache, plus, measure))
        deg = degree(power)
        for d, c in _k_polynomial(degree, zero, cache, colon, measure):
            key = tuple(map(add, d, deg))
            out[key] = out.get(key, 0) + c
    result = tuple(sorted((d, c) for d, c in out.items() if c))
    cache[gens] = result
    return result


def pairs_k_polynomial(degree, zero, pairs):
    """{degree: coefficient} of the sum over the pairs (u, sigma) of
    y^{deg u} K(S_sigma; y), graded as by _k_polynomial; K(S_sigma) is the
    Koszul numerator of the variables outside sigma."""
    out = {}
    for pair in pairs:
        shift = degree(pair.shift)
        outside = (degree(e) for i, e in enumerate(il.identity(len(pair.shift)))
                   if i not in pair.face)
        for d, c in koszul_numerator(outside, zero).items():
            key = tuple(map(add, d, shift))
            out[key] = out.get(key, 0) + c
    return out


# -- Hilbert polynomials ------------------------------------------------------


def quotient_hilbert_polynomial(X, I):
    """P_{S/I}(t) = sum_d c_d P_S(t - d) over the coarse K-polynomial."""
    if I.is_unit():
        raise UnitIdeal("S/I is zero")
    return _shift_sum(X, coarse_k_polynomial(X, I))


def face_k_polynomial(X, sigma):
    """K(S_sigma; y) = prod_{i not in sigma} (1 - y^{deg x_i}), the Koszul
    numerator of the face prime's variables, as coarse_k_polynomial gives
    it: a sorted tuple of (degree, nonzero coefficient) pairs."""
    out = koszul_numerator((X.variable_degree(i) for i in range(X.n) if i not in sigma),
                           (0,) * X.r)
    return tuple(sorted((d, c) for d, c in out.items() if c))


def face_hilbert_polynomial(X, sigma):
    """P_{S_sigma}(t) for the face ring on the variables in sigma, the
    shift sum over its Koszul numerator (face_k_polynomial).

    This is the zero polynomial when the complement of sigma is not a
    face of the fan (S_sigma is then B-torsion).
    """
    return _shift_sum(X, face_k_polynomial(X, frozenset(sigma)))
