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
is zero.  P_S is the only polynomial interpolated per variety: from
the integer forward differences of the fiber counts of S at the points
U.{0..d}^r, for the unimodular U of positive_orthant_change with
U.N^r inside K, where Demazure vanishing makes those counts exact.  The
counts are coefficients of H(S; y) itself, multiplied out to a finite
truncation (ring_fiber_counts), so no monomial is listed; the Newton
form of P_S is built in integers scaled by d! and divided once.

The sum is computed in integers: with D the lcm of the denominators
of P_S, D * P_S(t - d) expands by the binomial theorem into integer
multiples of t^beta prod_j (-d_j)^gamma_j, so D * sum_d c_d P_S(t - d)
has the integer coefficients shift_numerators returns.  In particular
D * P_{S/I} is integral for every I; so is L * P_{S/I} for any L that
D divides, and multiplying by L > 0 keeps every equality and sign, so
the integer vectors decide P_{S/I} = P and leading terms exactly
(enumeration.py).

The K-polynomial comes from the exact sequence
0 -> S/(I : m)(-deg m) -> S/I -> S/(I + m) -> 0 for m = x_i^e, that is
K(S/I) = K(S/(I + m)) + y^{deg m} K(S/(I : m)).  The recursion runs in
any grading: the coarse one, memoized on the variety, and the fine one
deg u = u, which certifies Stanley decompositions (verify_stanley).
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod
from operator import add, le, mul

from .errors import InterpolationInconsistent, SearchExhausted, UnitIdeal
from .ideals import MonomialIdeal, minimal_generators
from .multipoly import MultiPoly
from .variety import positive_orthant_change

from . import intlinalg as il


def ring_fiber_counts(X, degrees):
    """{t: number of monomials of S in degree t} for the given degrees.

    The counts are coefficients of the Hilbert series
    H(S; y) = prod_i 1 / (1 - y^{deg x_i}); no monomial is listed.  Split
    the variables at sigma^, the complement of the first maximal cone,
    as fiber_monomials does: its degrees are the columns of a unimodular
    M, so in the coordinates v = M^-1 t the factor over sigma^ has
    coefficient 1 at every v >= 0 and 0 elsewhere, and
    |fiber(t)| = sum of the coefficients of the factor F over the other
    d variables at the v <= M^-1 t.  F is multiplied out one factor at a
    time, truncated at w.t <= top, the largest w.t over the degrees, for
    the w = X.positive_w with w . a_i > 0.  Every partial sum of the
    exponents of a monomial of degree t has w-value in [0, w.t], so the
    truncation loses no term the counts need, in K or not.
    """
    w = X.positive_w
    hat, minv = X._facet_data[0]
    degrees = [tuple(t) for t in degrees]
    top = max((sum(map(mul, w, t)) for t in degrees), default=-1)
    zero = (0,) * X.r
    series = {zero: 1}
    levels = [[] for _ in range(top + 1)]  # the v in series by w-value
    if top >= 0:
        levels[0].append(zero)
    for i in range(X.n):
        if i in hat:
            continue
        a = X.variable_degree(i)
        step = sum(map(mul, w, a))
        a = il.matvec(minv, a)
        # series times 1 / (1 - y^a), in increasing w-value, so that
        # series[v] is final before it is pushed on to v + a
        for level in range(top + 1 - step):
            for v in levels[level]:
                s = tuple(map(add, v, a))
                if s not in series:
                    series[s] = 0
                    levels[level + step].append(s)
                series[s] += series[v]
    # t - s = M (q - v) with q - v >= 0 has w-value >= 0, so only the
    # levels up to w.t can hold a v <= q
    counts = {}
    for t in degrees:
        q = il.matvec(minv, t)
        below = levels[:max(sum(map(mul, w, t)) + 1, 0)]
        counts[t] = sum(series[v] for level in below for v in level if all(map(le, v, q)))
    return counts


def _interpolate_ring(X):
    """P_S from fiber counts at the points U lam, lam in {0..d}^r.

    U = positive_orthant_change(X) is unimodular with U N^r inside K,
    where H_S = P_S, so f(lam) = |fiber(U lam)| is Q(lam) = P_S(U lam),
    a polynomial of total degree d.  Every count comes from one
    truncated Hilbert series (ring_fiber_counts).  The integer forward
    differences a_j = Delta^j f(0) vanish for |j| > d (checked), and
    Newton's formula gives Q = sum_j a_j prod_k binom(lam_k, j_k).  So
    d! P_S(t) = sum_j a_j (d! / prod_k j_k!) prod_k (l_k)_{j_k}, with
    l_k = (U^-1 t)_k and (l)_q = l (l - 1) ... (l - q + 1), is a
    polynomial with integer coefficients (d! / prod_k j_k! is an integer
    for |j| <= d), computed in integers.  Checked at r + 1 more points
    of U N^r.
    """
    d, r = X.d, X.r
    change = positive_orthant_change(X)
    grid = list(product(range(d + 1), repeat=r))
    checks = [(d + 1,) * r] + [tuple(d + 2 if j == k else 0 for j in range(r))
                               for k in range(r)]
    points = {lam: il.matvec(change.matrix, lam) for lam in grid + checks}
    counts = ring_fiber_counts(X, points.values())

    diffs = {lam: counts[points[lam]] for lam in grid}
    for k in range(r):
        for step in range(d):
            # in reverse lex order lam - e_k still holds the previous step
            for lam in reversed(grid):
                if lam[k] > step:
                    diffs[lam] -= diffs[lam[:k] + (lam[k] - 1,) + lam[k + 1:]]

    zero = (0,) * r
    falling = []  # falling[k][q] = (l_k)_q as {exponent: integer}
    for row in change.inverse:
        form = {tuple(int(i == j) for i in range(r)): c for j, c in enumerate(row) if c}
        powers = [{zero: 1}]
        for q in range(d):
            powers.append(_int_product(powers[-1], {**form, zero: -q} if q else form))
        falling.append(powers)
    scaled = {}  # d! P_S
    for j, a in diffs.items():
        if not a:
            continue
        if sum(j) > d:
            raise InterpolationInconsistent(
                f"fiber counts of S are not polynomial on K: difference {j} is {a}")
        term = {zero: a * factorial(d) // prod(map(factorial, j))}
        for k, jk in enumerate(j):
            if jk:
                term = _int_product(term, falling[k][jk])
        for e, c in term.items():
            scaled[e] = scaled.get(e, 0) + c
    poly = MultiPoly(r, {e: Fraction(c, factorial(d)) for e, c in scaled.items()})

    for lam in checks:
        t = points[lam]
        if poly.evaluate(t) != counts[t]:
            raise InterpolationInconsistent(f"P_S disagrees with the fiber count at {t}")
    return poly


def _int_product(f, g):
    """The product of two polynomials given as {exponent: integer}."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def ring_hilbert_polynomial(X):
    """P_S(t) of the full Cox ring, interpolated once per variety."""
    return _ring_expansion(X)[0]


def _ring_expansion(X):
    """(P_S, D, gammas, terms) with
    P_S(t - d) = (1/D) sum over the terms (beta, k, a) of
    a * t^beta * prod_j (-d_j)^gammas[k][j], all integers."""
    if X._ring_expansion is None:
        poly = _interpolate_ring(X)
        denom = lcm(*(c.denominator for c in poly.terms.values()))
        gammas = [g for g in product(range(X.d + 1), repeat=X.r) if sum(g) <= X.d]
        terms = []
        for alpha, coeff in poly.terms.items():
            whole = int(coeff * denom)
            for k, gamma in enumerate(gammas):
                beta = tuple(a - g for a, g in zip(alpha, gamma))
                if min(beta) >= 0:
                    terms.append((beta, k, whole * prod(map(comb, alpha, beta))))
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


def pairs_k_polynomial(degree, zero, cache, pairs):
    """{degree: coefficient} of the sum over the pairs (u, sigma) of
    y^{deg u} K(S_sigma; y), graded as by _k_polynomial; K(S_sigma) is the
    recursion's coprime leaf on the face prime."""
    out = {}
    for pair in pairs:
        prime = _face_prime(len(pair.shift), pair.face)
        shift = degree(pair.shift)
        for d, c in _k_polynomial(degree, zero, cache, prime, None):
            key = tuple(map(add, d, shift))
            out[key] = out.get(key, 0) + c
    return out


# -- Hilbert polynomials ------------------------------------------------------


def quotient_hilbert_polynomial(X, I):
    """P_{S/I}(t) = sum_d c_d P_S(t - d) over the coarse K-polynomial."""
    if I.is_unit():
        raise UnitIdeal("S/I is zero")
    return _shift_sum(X, coarse_k_polynomial(X, I))


def _face_prime(n, sigma):
    """The sorted generators of <x_i : i not in sigma>, the ideal of S_sigma."""
    return tuple(tuple(int(j == i) for j in range(n)) for i in reversed(range(n)) if i not in sigma)


def face_k_polynomial(X, sigma):
    """K(S_sigma; y) = prod_{i not in sigma} (1 - y^{deg x_i})."""
    return coarse_k_polynomial(X, MonomialIdeal(X.n, _face_prime(X.n, sigma)))


def face_hilbert_polynomial(X, sigma):
    """P_{S_sigma}(t) for the face ring on the variables in sigma.

    This is the zero polynomial when the complement of sigma is not a
    face of the fan (S_sigma is then B-torsion).
    """
    sigma = frozenset(sigma)
    poly = X._face_poly_cache.get(sigma)
    if poly is None:
        poly = quotient_hilbert_polynomial(X, MonomialIdeal(X.n, _face_prime(X.n, sigma)))
        X._face_poly_cache[sigma] = poly
    return poly
