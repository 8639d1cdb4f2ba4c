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
is zero.  P_S is the only polynomial interpolated per variety, from
fiber counts on a grid at the origin of K, which Demazure vanishing
makes exact.

The K-polynomial comes from the exact sequence
0 -> S/(I : m)(-deg m) -> S/I -> S/(I + m) -> 0 for m = x_i^e, that is
K(S/I) = K(S/(I + m)) + y^{deg m} K(S/(I : m)), memoized on the variety.
The Stanley decomposition route (hilbert_polynomial_of_pairs) computes
the same polynomials and stays as an independent check.
"""

from fractions import Fraction
from math import comb, lcm, prod
from operator import add

from .errors import InterpolationInconsistent, SearchExhausted, UnitIdeal
from .ideals import MonomialIdeal, fiber_monomials, minimal_generators
from .multipoly import MultiPoly

from . import intlinalg as il


def _independent_nef_directions(X):
    """r linearly independent rays of K (K is full-dimensional)."""
    chosen = []
    for ray in X.nef_rays:
        cand = chosen + [ray]
        if il.rank(cand) == len(cand):
            chosen.append(ray)
        if len(chosen) == X.r:
            return chosen
    raise InterpolationInconsistent("could not find independent nef directions")


def _monomials_of_degree_at_most(nvars, bound):
    out = []

    def rec(pos, remaining, acc):
        if pos == nvars:
            out.append(tuple(acc))
            return
        for k in range(remaining + 1):
            acc[pos] = k
            rec(pos + 1, remaining - k, acc)
        acc[pos] = 0

    rec(0, bound, [0] * nvars)
    return out


def _solve_exact(rows, rhs):
    """Solve an overdetermined consistent rational system; None if inconsistent."""
    m, n = len(rows), len(rows[0])
    A = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        scale = A[r][col]
        A[r] = [x / scale for x in A[r]]
        for i in range(m):
            if i != r and A[i][col] != 0:
                f = A[i][col]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if A[i][n] != 0:
            return None
    solution = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        solution[col] = A[i][n]
    return solution


def _interpolate_ring(X):
    """P_S from fiber counts at the points sum_k lam_k v_k, lam in
    {0..d}^r, for r independent nef rays v_k; checked at r + 1 more
    points.  All of them lie in K, where H_S = P_S."""
    degree = X.d
    monomials = _monomials_of_degree_at_most(X.r, degree)
    directions = _independent_nef_directions(X)

    def sample_point(lam):
        return tuple(sum(lam[k] * directions[k][j] for k in range(X.r))
                     for j in range(X.r))

    def count(point):
        return len(fiber_monomials(X, point))

    grid = [()]
    for _ in range(X.r):
        grid = [g + (k,) for g in grid for k in range(degree + 1)]
    rows, rhs = [], []
    for lam in grid:
        p = sample_point(lam)
        rows.append([prod(x ** e for x, e in zip(p, mono)) for mono in monomials])
        rhs.append(count(p))
    solution = _solve_exact(rows, rhs)
    if solution is None:
        raise InterpolationInconsistent("fiber counts of S are not polynomial on K")
    poly = MultiPoly(X.r, dict(zip(monomials, solution)))

    checks = [tuple(degree + 1 for _ in range(X.r))]
    for k in range(X.r):
        checks.append(tuple(degree + 2 if j == k else 0 for j in range(X.r)))
    for lam in checks:
        p = sample_point(lam)
        if poly.evaluate(p) != count(p):
            raise InterpolationInconsistent(
                f"P_S disagrees with the fiber count at {p}")
    return poly


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
        gammas = _monomials_of_degree_at_most(X.r, X.d)
        terms = []
        for alpha, coeff in poly.terms.items():
            whole = int(coeff * denom)
            for k, gamma in enumerate(gammas):
                beta = tuple(a - g for a, g in zip(alpha, gamma))
                if min(beta) >= 0:
                    terms.append((beta, k, whole * prod(map(comb, alpha, beta))))
        X._ring_expansion = (poly, denom, gammas, tuple(terms))
    return X._ring_expansion


def _shift_sum(X, kpoly):
    """sum_d c_d P_S(t - d) for kpoly = ((d, c_d), ...), from the
    moments sum_d c_d prod_j (-d_j)^gamma_j."""
    _, denom, gammas, terms = _ring_expansion(X)
    moments = [0] * len(gammas)
    for d, c in kpoly:
        neg = [-x for x in d]
        for k, gamma in enumerate(gammas):
            moments[k] += c * prod(map(pow, neg, gamma))
    numerators = {}
    for beta, k, a in terms:
        numerators[beta] = numerators.get(beta, 0) + a * moments[k]
    return MultiPoly(X.r, {beta: Fraction(v, denom) for beta, v in numerators.items()})


# -- the coarse K-polynomial ------------------------------------------------


def coarse_k_polynomial(X, I):
    """K(S/I; y) pushed to Z^r by the grading, as a tuple of
    (degree, nonzero integer coefficient) pairs; empty for the unit
    ideal.  Every ideal met by the recursion is memoized on X."""
    return _k_polynomial(X, I.gens, None)


def _k_polynomial(X, gens, bound):
    """The recursion on a minimal, sorted generator tuple.

    Leaves: the unit ideal (K = 0) and pairwise coprime generators, a
    regular sequence with K = prod_g (1 - y^{deg g}).  Otherwise split
    on m = x_i^e, with x_i the variable in the most generators and e the
    median exponent of x_i over the generators x_i divides that are not
    powers of x_i.  I + m drops at least one of those, and I : m lowers
    the total degree without adding one, so the measure (generators that
    are not pure powers, total degree) falls in both children; bound is
    the parent's measure and the fall is checked.
    """
    cached = X._k_poly_cache.get(gens)
    if cached is not None:
        return cached
    if gens and not any(gens[0]):  # the unit ideal; the zero vector sorts first
        X._k_poly_cache[gens] = ()
        return ()
    support = [len(g) - g.count(0) for g in gens]
    measure = (sum(s >= 2 for s in support), sum(map(sum, gens)))
    if bound is not None and measure >= bound:
        raise SearchExhausted("the K-polynomial recursion made no progress")
    counts = [len(col) - col.count(0) for col in zip(*gens)]
    if max(counts, default=0) <= 1:
        out = {(0,) * X.r: 1}
        for g in gens:
            deg = X.degree(g)
            for d, c in list(out.items()):
                key = tuple(map(add, d, deg))
                out[key] = out.get(key, 0) - c
    else:
        i = counts.index(max(counts))
        exps = sorted(g[i] for g, s in zip(gens, support) if g[i] and s >= 2)
        e = exps[len(exps) // 2]
        power = tuple(e if j == i else 0 for j in range(X.n))
        plus = tuple(sorted([g for g in gens if g[i] < e] + [power]))
        colon = minimal_generators({g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens})
        out = dict(_k_polynomial(X, plus, measure))
        deg = tuple(e * a for a in X.variable_degree(i))
        for d, c in _k_polynomial(X, colon, measure):
            key = tuple(map(add, d, deg))
            out[key] = out.get(key, 0) + c
    result = tuple(sorted((d, c) for d, c in out.items() if c))
    X._k_poly_cache[gens] = result
    return result


# -- Hilbert polynomials ------------------------------------------------------


def quotient_hilbert_polynomial(X, I):
    """P_{S/I}(t) = sum_d c_d P_S(t - d) over the coarse K-polynomial."""
    if I.is_unit():
        raise UnitIdeal("S/I is zero")
    return _shift_sum(X, coarse_k_polynomial(X, I))


def face_hilbert_polynomial(X, sigma):
    """P_{S_sigma}(t) for the face ring on the variables in sigma.

    This is the zero polynomial when the complement of sigma is not a
    face of the fan (S_sigma is then B-torsion).
    """
    sigma = frozenset(sigma)
    poly = X._face_poly_cache.get(sigma)
    if poly is None:
        prime = [tuple(int(j == i) for j in range(X.n)) for i in range(X.n) if i not in sigma]
        poly = quotient_hilbert_polynomial(X, MonomialIdeal(X.n, prime))
        X._face_poly_cache[sigma] = poly
    return poly


def shifted_face_polynomial(X, sigma, degree):
    """P_{S_sigma}(t - degree), computed once per (sigma, degree) on X."""
    key = (frozenset(sigma), tuple(degree))
    poly = X._shifted_face_poly_cache.get(key)
    if poly is None:
        poly = face_hilbert_polynomial(X, key[0]).shift(key[1])
        X._shifted_face_poly_cache[key] = poly
    return poly


def hilbert_polynomial_of_pairs(X, pairs):
    """Sum P_{S_sigma}(t - A u) over the pairs supported on the fan."""
    total = MultiPoly.zero(X.r)
    for pair in pairs:
        sigma_hat = frozenset(range(X.n)) - pair.face
        if sigma_hat not in X.delta:
            continue
        total = total + shifted_face_polynomial(X, pair.face, X.degree(pair.shift))
    return total
