"""Multigraded Hilbert polynomials of face rings and monomial quotients.

P_{S_sigma} is recovered by exact rational interpolation of fiber counts
sampled deep enough inside the nef semigroup K: smoothness forces the
counting quasi-polynomial to have period one, so a plain polynomial fit
is valid, and the Koszul resolution of S_sigma says how deep is deep
enough (all subset sums of the complementary variable degrees must be
dominated).  P_{S/I} is then the shifted sum over a Stanley
decomposition, with pairs supported off the fan contributing zero.
"""

from fractions import Fraction

from .errors import InterpolationInconsistent, UnitIdeal
from .ideals import fiber_monomials
from .multipoly import MultiPoly
from .stanley import stanley_filtration
from .variety import find_point_dominating

from . import intlinalg as il


def _independent_nef_directions(X):
    """r linearly independent rays of K (K is full-dimensional)."""
    chosen = []
    for ray in X.nef_rays:
        cand = chosen + [ray]
        if il.rank(il.as_int_matrix(cand)) == len(cand):
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


def face_hilbert_polynomial(X, sigma):
    """P_{S_sigma}(t) for the face ring on the variables in sigma.

    Returns the zero polynomial when the complement of sigma is not a
    face of the fan (S_sigma is then B-torsion).
    """
    sigma = frozenset(sigma)
    cached = X._face_poly_cache.get(sigma)
    if cached is not None:
        return cached
    sigma_hat = frozenset(range(X.n)) - sigma
    if sigma_hat not in X.delta:
        poly = MultiPoly.zero(X.r)
        X._face_poly_cache[sigma] = poly
        return poly

    degree = len(sigma) - X.r
    shifts = {(0,) * X.r}
    for i in sorted(sigma_hat):
        a = X.variable_degree(i)
        shifts |= {tuple(s + x for s, x in zip(old, a)) for old in shifts}
    t0 = find_point_dominating(X, sorted(shifts))
    directions = _independent_nef_directions(X)

    poly = None
    for _ in range(4):
        poly = _interpolate_face(X, sigma, t0, directions, degree)
        if poly is not None:
            break
        t0 = tuple(2 * x for x in t0) if any(t0) else tuple(
            sum(col) for col in zip(*directions))
    if poly is None:
        raise InterpolationInconsistent(
            f"fiber counts for face ring on {sorted(sigma)} never stabilized")
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


def _interpolate_face(X, sigma, t0, directions, degree):
    monomials = _monomials_of_degree_at_most(X.r, degree)

    def sample_point(lam):
        return tuple(
            t0[j] + sum(lam[k] * directions[k][j] for k in range(X.r))
            for j in range(X.r))

    def count(point):
        return len(fiber_monomials(X, point, support=sigma))

    grid = [()]
    for _ in range(X.r):
        grid = [g + (k,) for g in grid for k in range(degree + 1)]

    rows, rhs = [], []
    for lam in grid:
        p = sample_point(lam)
        rows.append([_power(p, e) for e in monomials])
        rhs.append(count(p))
    solution = _solve_exact(rows, rhs)
    if solution is None:
        return None
    poly = MultiPoly(X.r, dict(zip(monomials, solution)))

    checks = [tuple(degree + 1 for _ in range(X.r))]
    for k in range(X.r):
        checks.append(tuple(degree + 2 if j == k else 0 for j in range(X.r)))
    for lam in checks:
        p = sample_point(lam)
        if poly.evaluate(p) != count(p):
            return None
    return poly


def _power(point, expo):
    val = Fraction(1)
    for p, e in zip(point, expo):
        if e:
            val *= Fraction(p) ** e
    return val


def ring_hilbert_polynomial(X):
    """P_S(t) of the full Cox ring."""
    return face_hilbert_polynomial(X, range(X.n))


def quotient_hilbert_polynomial(X, I, strategy=None):
    """P_{S/I}(t) via a Stanley decomposition.

    Pairs whose face complement is not in the fan contribute zero (their
    face rings are B-torsion), so the sum runs over the rest, shifted by
    the pair degrees.
    """
    if I.is_unit():
        raise UnitIdeal("S/I is zero")
    pairs = stanley_filtration(I, strategy)
    return hilbert_polynomial_of_pairs(X, pairs)


def hilbert_polynomial_of_pairs(X, pairs):
    """Sum P_{S_sigma}(t - A u) over the pairs supported on the fan."""
    total = MultiPoly.zero(X.r)
    for pair in pairs:
        sigma_hat = frozenset(range(X.n)) - pair.face
        if sigma_hat not in X.delta:
            continue
        total = total + shifted_face_polynomial(X, pair.face, X.degree(pair.shift))
    return total
