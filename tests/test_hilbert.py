"""Face and quotient Hilbert polynomials against fiber counting."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, prod
from operator import add, le, mul

import pytest
from hypothesis import assume, given
from hypothesis import strategies as gen

from toricreg import cones
from toricreg import hilbert as hb
from toricreg import intlinalg as il
from toricreg import ideals as mi
from toricreg import variety as tv
from toricreg.errors import (
    FiberTooLarge,
    NotComplete,
    SearchExhausted,
    UnitIdeal,
)
from toricreg.multipoly import MultiPoly, parse_poly
from toricreg.stanley import StanleyPair, stanley_filtration

from test_variety import BLOWN_UP_P3, BLOWUP, HEXAGON_FAN, SEVEN_RAYS, _gradings, _relabel

P1 = tv.projective_space(1)
P2 = tv.projective_space(2)
P3 = tv.projective_space(3)
F2 = tv.hirzebruch(2)
PP = tv.product_projective(2, 1)

# doubled plane union a point: <x4^2> intersect <x1,x2,x3>
DPP_IDEAL = mi.MonomialIdeal(4, [(1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 1, 2)])


def hilbert_polynomial_of_pairs(X, pairs):
    """The oracle sum of P_{S_sigma}(t - A u) over the pairs supported on
    the fan, as one shift sum over the K-polynomials y^{A u} K(S_sigma; y)."""
    supported = [p for p in pairs if frozenset(range(X.n)) - p.face in X.delta]
    kpoly = hb.pairs_k_polynomial(X.degree, (0,) * X.r, supported)
    return hb._shift_sum(X, kpoly.items())


def test_ring_polynomials():
    for d in range(1, 5):
        X = tv.projective_space(d)
        P = hb.ring_hilbert_polynomial(X)
        for t in range(8):
            assert P.evaluate((t,)) == comb(t + d, d)
    assert hb.ring_hilbert_polynomial(F2) == parse_poly("t1*t2 + t2^2 + t1 + 2*t2 + 1")
    assert hb.ring_hilbert_polynomial(tv.hirzebruch(4)) == parse_poly(
        "t1*t2 + 2*t2^2 + t1 + 3*t2 + 1")


def test_face_polynomials_p3():
    assert hb.face_hilbert_polynomial(P3, {0, 1, 2}) == parse_poly("1/2*t^2 + 3/2*t + 1")
    assert hb.face_hilbert_polynomial(P3, {3}) == parse_poly("1", nvars=1)
    # complement [n] is not a face: torsion, zero polynomial
    assert hb.face_hilbert_polynomial(P3, set()).is_zero()


def test_face_polynomial_degrees():
    for X in (P2, P3, F2, PP):
        everything = frozenset(range(X.n))
        for face in X.faces():
            sigma = everything - face
            poly = hb.face_hilbert_polynomial(X, sigma)
            assert poly.total_degree() == len(sigma) - X.r


def test_quotient_polynomial_fixtures():
    assert hb.quotient_hilbert_polynomial(P3, DPP_IDEAL) == parse_poly("t^2 + 2*t + 2")
    L = mi.MonomialIdeal(3, [(4, 0, 0), (3, 1, 0)])
    assert hb.quotient_hilbert_polynomial(P2, L) == parse_poly("3*t + 1")
    Pr = mi.MonomialIdeal(3, [(0, 1, 0)])
    assert hb.quotient_hilbert_polynomial(P2, Pr) == hb.face_hilbert_polynomial(P2, {0, 2})
    with pytest.raises(UnitIdeal):
        hb.quotient_hilbert_polynomial(P2, mi.MonomialIdeal.unit(3))


def test_binomial_identity_of_two_decompositions():
    # binom(t+2,2) + binom(t+1,2) + binom(t-2,0) equals the 7-term sum
    from toricreg.multipoly import binomial_in_t
    three = (binomial_in_t(1, 0, 2, 2) + binomial_in_t(1, 0, 1, 2)
             + binomial_in_t(1, 0, -2, 0))
    seven = (binomial_in_t(1, 0, 0, 0) + binomial_in_t(1, 0, -1, 0)
             + binomial_in_t(1, 0, -2, 0) + binomial_in_t(1, 0, 0, 1)
             + binomial_in_t(1, 0, -1, 1) + binomial_in_t(1, 0, 1, 2)
             + binomial_in_t(1, 0, 0, 2))
    assert three == seven
    assert three == hb.quotient_hilbert_polynomial(P3, DPP_IDEAL)


def test_decomposition_independence():
    # two different Stanley decompositions give the same polynomial
    first = (StanleyPair((0, 0, 0, 0), frozenset({0, 1, 2})),
             StanleyPair((0, 0, 0, 1), frozenset({0, 1, 2})),
             StanleyPair((0, 0, 0, 2), frozenset({3})))
    second = (StanleyPair((0, 0, 0, 0), frozenset({3})),
              StanleyPair((0, 0, 1, 0), frozenset({2})),
              StanleyPair((0, 0, 1, 1), frozenset({2})),
              StanleyPair((0, 1, 0, 0), frozenset({1, 2})),
              StanleyPair((0, 1, 0, 1), frozenset({1, 2})),
              StanleyPair((1, 0, 0, 0), frozenset({0, 1, 2})),
              StanleyPair((1, 0, 0, 1), frozenset({0, 1, 2})))
    assert hilbert_polynomial_of_pairs(P3, first) == hilbert_polynomial_of_pairs(P3, second)


def test_interpolation_agrees_with_fibers_deep():
    # 20 sampled deep points per variety; on the last three the positive
    # orthant does not lie in K
    from toricreg.variety import find_point_dominating
    changed = [tv.build_variety(F2.fan), TWO_POINT_BLOWUP, HEXAGON]
    assert not any(tv.positive_orthant_change(X).is_identity() for X in changed)
    for X in [P3, F2, PP] + changed:
        P = hb.ring_hilbert_polynomial(X)
        t0 = find_point_dominating(X, [X.variable_degree(i) for i in range(X.n)])
        samples = []
        for combo in product(range(5), repeat=X.r):
            samples.append(tuple(
                t0[j] + sum(combo[k] * X.nef_rays[k][j] for k in range(X.r))
                for j in range(X.r)))
            if len(samples) == 20:
                break
        for t in samples:
            assert P.evaluate(t) == mi.hilbert_function(X, mi.MonomialIdeal.zero(X.n), t)


def _drop_last_cone(X, monkeypatch):
    monkeypatch.setattr(X, "_facet_data", X._facet_data[:-1])


def _zero_b1(X, monkeypatch):
    todd_scale = hb._todd_scale

    def without_b1(d):
        scale, todd = todd_scale(d)
        return scale, todd[:1] + (0,) + todd[2:]

    monkeypatch.setattr(hb, "_todd_scale", without_b1)


@pytest.mark.parametrize("break_it, value", [
    # P(2) without its last maximal cone: the sum misses a vertex
    (_drop_last_cone, "17/36"),
    # B_1 = 0 in place of -1/2 in the Todd table
    (_zero_b1, "1/4"),
], ids=["dropped-cone", "todd-table"])
def test_closed_form_checks_its_constant_term(monkeypatch, break_it, value):
    X = tv.projective_space(2)
    break_it(X, monkeypatch)
    with pytest.raises(NotComplete, match=rf"P_S\(0\) = {value}, not 1"):
        hb.ring_hilbert_polynomial(X)


def test_incomplete_fan_fails_loudly():
    # two of the three cones of P^2: with the completeness check skipped,
    # the localization sum has constant term 23/24, not the 1 of the one
    # monomial in degree 0
    X = tv.build_variety(tv.Fan([[1, 0], [0, 1], [-1, -1]], [(0, 1), (1, 2)]),
                         assume_complete=True)
    with pytest.raises(NotComplete, match=r"P_S\(0\) = 23/24, not 1"):
        hb.ring_hilbert_polynomial(X)
    with pytest.raises(NotComplete):
        hb.quotient_hilbert_polynomial(X, mi.MonomialIdeal(3, [(1, 0, 0)]))


def test_quotient_agrees_with_hilbert_function_deep():
    from itertools import combinations
    from toricreg.variety import find_point_dominating
    cases = [
        (P3, DPP_IDEAL),
        (P2, mi.MonomialIdeal(3, [(4, 0, 0), (3, 1, 0)])),
        (F2, mi.MonomialIdeal(4, [(1, 0, 1, 0)])),
        (F2, mi.MonomialIdeal(4, [(0, 1, 0, 1), (2, 0, 0, 0)])),
    ]
    for X, I in cases:
        P = hb.quotient_hilbert_polynomial(X, I)
        shifts = []
        for size in range(1, len(I.gens) + 1):
            for subset in combinations(I.gens, size):
                shifts.append(X.degree(tuple(max(col) for col in zip(*subset))))
        t0 = find_point_dominating(X, shifts)
        count = 0
        for combo in product(range(4), repeat=X.r):
            t = tuple(t0[j] + sum(combo[k] * X.nef_rays[k][j] for k in range(X.r))
                      for j in range(X.r))
            assert P.evaluate(t) == mi.hilbert_function(X, I, t), (X, I, t)
            count += 1
            if count >= 20:
                break


def test_quotient_degree_bound():
    import random
    rng = random.Random(31)
    for X in (P2, F2):
        for _ in range(30):
            gens = [tuple(rng.randint(0, 2) for _ in range(X.n))
                    for _ in range(rng.randint(1, 3))]
            I = mi.MonomialIdeal(X.n, gens)
            if I.is_unit():
                continue
            P = hb.quotient_hilbert_polynomial(X, I)
            assert P.total_degree() <= X.d


def test_leading_coefficient_positivity():
    # in positive-orthant coordinates every nonzero quotient polynomial
    # has a positive glex leading coefficient
    import random
    rng = random.Random(32)
    for X in (F2, PP):
        assert all(X.nef_member(e) for e in [(1, 0), (0, 1)])
        for _ in range(25):
            gens = [tuple(rng.randint(0, 2) for _ in range(X.n))
                    for _ in range(rng.randint(1, 3))]
            I = mi.MonomialIdeal(X.n, gens)
            if I.is_unit():
                continue
            P = hb.quotient_hilbert_polynomial(X, I)
            if not P.is_zero():
                assert P.leading_coeff() > 0, (X, I, P)
    # and for the other glex order too: glex t1 > t2 on the swapped grading
    P = hb.ring_hilbert_polynomial(tv.with_grading(PP, PP.grading[::-1]))
    assert P == hb.ring_hilbert_polynomial(PP).compose_linear(((0, 1), (1, 0)))
    assert P.leading_coeff() > 0


def test_torsion_quotient_polynomial_is_zero():
    # S/B is B-torsion
    B = mi.MonomialIdeal(2, [(1, 0), (0, 1)])
    assert hb.quotient_hilbert_polynomial(P1, B).is_zero()


def _fit_from_function(X, I, degree):
    """Independent oracle: fit a polynomial of the given total degree to
    Hilbert function values sampled deep in K, with its own elimination."""
    from fractions import Fraction
    from itertools import combinations as combos
    from toricreg.variety import find_point_dominating

    shifts = []
    for size in range(1, len(I.gens) + 1):
        for subset in combos(I.gens, size):
            shifts.append(X.degree(tuple(max(col) for col in zip(*subset))))
    t0 = find_point_dominating(X, shifts or [(0,) * X.r])
    monos = []

    def build(pos, rem, acc):
        if pos == X.r:
            monos.append(tuple(acc))
            return
        for k in range(rem + 1):
            acc[pos] = k
            build(pos + 1, rem - k, acc)
        acc[pos] = 0

    build(0, degree, [0] * X.r)
    grid = [()]
    for _ in range(X.r):
        grid = [g + (k,) for g in grid for k in range(degree + 1)]
    rows, rhs = [], []
    for lam in grid:
        p = tuple(t0[j] + sum(lam[k] * X.nef_rays[k][j] for k in range(X.r))
                  for j in range(X.r))
        rows.append([Fraction(
            __import__("math").prod(int(p[i]) ** e for i, e in enumerate(mono)))
            for mono in monos])
        rhs.append(Fraction(mi.hilbert_function(X, I, p)))
    # plain gaussian elimination, local to this oracle
    aug = [row + [r] for row, r in zip(rows, rhs)]
    ncols = len(monos)
    pivots, r = [], 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    assert all(aug[i][ncols] == 0 for i in range(r, len(aug)))
    coeffs = {}
    for i, c in enumerate(pivots):
        coeffs[monos[c]] = aug[i][ncols]
    from toricreg.multipoly import MultiPoly
    return MultiPoly(X.r, coeffs)


def test_quotient_polynomial_against_direct_fit():
    import random
    rng = random.Random(33)
    for X in (P2, P3, F2):
        for _ in range(12):
            gens = [tuple(rng.randint(0, 2) for _ in range(X.n))
                    for _ in range(rng.randint(1, 3))]
            I = mi.MonomialIdeal(X.n, gens)
            if I.is_unit():
                continue
            via_stanley = hb.quotient_hilbert_polynomial(X, I)
            via_fit = _fit_from_function(X, I, X.d)
            assert via_stanley == via_fit, (X, I)


# P^2 blown up at two points, read from the JSON schema with its
# canonical grading: r = 3
TWO_POINT_BLOWUP = tv.variety_from_dict({
    "rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]],
    "max_cones": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]})
KERNEL_VARIETIES = [P2, P3, PP, tv.product_projective(1, 1), tv.hirzebruch(1), F2,
                    TWO_POINT_BLOWUP]
# rank four, with five nef rays
HEXAGON = tv.build_variety(tv.Fan([[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
                                  [(i, (i + 1) % 6) for i in range(6)]))


# -- the interpolation oracle ------------------------------------------------


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


def interpolate_ring(X):
    """P_S from fiber counts at the points U lam, lam in {0..d}^r.

    U = positive_orthant_change(X) is unimodular with U N^r inside K,
    where H_S = P_S, so f(lam) = |fiber(U lam)| is Q(lam) = P_S(U lam),
    a polynomial of total degree d.  The integer forward differences
    a_j = Delta^j f(0) vanish for |j| > d (checked), and Newton's formula
    gives Q = sum_j a_j prod_k binom(lam_k, j_k).  So
    d! P_S(t) = sum_j a_j (d! / prod_k j_k!) prod_k (l_k)_{j_k}, with
    l_k = (U^-1 t)_k and (l)_q = l (l - 1) ... (l - q + 1), is a
    polynomial with integer coefficients, computed in integers.  Checked
    at r + 1 more points of U N^r.
    """
    d, r = X.d, X.r
    change = tv.positive_orthant_change(X)
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
        assert sum(j) <= d, f"fiber counts of S are not polynomial on K: difference {j} is {a}"
        term = {zero: a * factorial(d) // prod(map(factorial, j))}
        for k, jk in enumerate(j):
            if jk:
                term = _int_product(term, falling[k][jk])
        for e, c in term.items():
            scaled[e] = scaled.get(e, 0) + c
    poly = MultiPoly(r, {e: Fraction(c, factorial(d)) for e, c in scaled.items()})

    for lam in checks:
        t = points[lam]
        assert poly.evaluate(t) == counts[t], f"P_S disagrees with the fiber count at {t}"
    return poly


def _int_product(f, g):
    """The product of two polynomials given as {exponent: integer}."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _fans_relabelled_and_regraded(fans, seed):
    """Each fan, the fan with its rays relabelled, and every variety
    _gradings makes from either (the canonical, the given and two
    seeded regradings)."""
    rng = random.Random(seed)
    for fan in fans:
        for fan2 in (fan, _relabel(fan, rng.sample(range(fan.n), fan.n))):
            base = tv.build_variety(fan2)
            for grading in _gradings(base, rng):
                yield tv.build_variety(fan2, grading=grading, assume_complete=True)


def test_closed_form_matches_interpolation_oracle():
    fans = ([tv.projective_space(d).fan for d in range(1, 5)]
            + [tv.product_projective(a, b).fan for a in (1, 2) for b in (1, 2)]
            + [tv.hirzebruch(ell).fan for ell in range(6)]
            + [BLOWUP, HEXAGON_FAN, BLOWN_UP_P3])
    named = [tv.projective_space(d) for d in range(1, 5)] + [
        tv.product_projective(a, b) for a in (1, 2) for b in (1, 2)] + [
        tv.hirzebruch(ell) for ell in range(6)]
    count = 0
    for X in named + list(_fans_relabelled_and_regraded(fans, 41)):
        assert hb.ring_hilbert_polynomial(X) == interpolate_ring(X), (X.fan.rays, X.grading)
        count += 1
    assert count == 14 + 17 * 2 * 4


def test_closed_form_on_seven_rays_matches_hilbert_function():
    # r = 5, where the oracle takes seconds: H_S = P_S deep in K instead
    zero = mi.MonomialIdeal.zero(SEVEN_RAYS.n)
    rng = random.Random(43)
    base = tv.build_variety(SEVEN_RAYS)
    for X in [base] + [tv.with_grading(base, g) for g in _gradings(base, rng)[2:]]:
        P = hb.ring_hilbert_polynomial(X)
        t0 = tv.find_point_dominating(X, [X.variable_degree(i) for i in range(X.n)])
        for _ in range(6):
            weights = [rng.randint(0, 2) for _ in X.nef_rays]
            t = tuple(t0[j] + sum(c * ray[j] for c, ray in zip(weights, X.nef_rays))
                      for j in range(X.r))
            assert P.evaluate(t) == mi.hilbert_function(X, zero, t), (X.grading, t)


# P(1..3), PxP(2,1), PxP(1,1), Hirzebruch(1), Hirzebruch(2) with its
# canonical grading, the two-point blowup (r = 3) and the hexagon (r = 4)
COUNTING_VARIETIES = [P1, P2, P3, PP, tv.product_projective(1, 1), tv.hirzebruch(1),
                      tv.build_variety(F2.fan), TWO_POINT_BLOWUP, HEXAGON]


def test_series_counts_match_fiber_enumeration():
    # the truncated Hilbert series against the listed fibers, on a box
    # around the origin that holds degrees inside K, outside K and
    # outside the degree cone (negative w-value)
    for X in COUNTING_VARIETIES:
        radius = {1: 6, 2: 4, 3: 3, 4: 2}[X.r]
        box = list(product(range(-2, radius + 1), repeat=X.r))
        counts = ring_fiber_counts(X, box)
        assert set(counts) == set(box)
        for t in box:
            assert counts[t] == len(mi.fiber_monomials(X, t)), (X, t)
            assert ring_fiber_counts(X, [t]) == {t: counts[t]}
        assert any(counts.values()) and not all(counts.values())


def _cone_rays_by_kernel(W, dim):
    """cone_rays through the Smith-form kernel of each (dim-1)-subset of
    the rows, in place of their signed maximal minors."""
    W = cones.dedupe_rows(W)
    rays = set()
    for subset in combinations(W, dim - 1):
        ker = il.kernel_basis(subset, dim)
        if len(ker) == 1:
            v = il.primitive(ker[0])
            rays.update(c for c in (v, tuple(-x for x in v))
                        if all(x >= 0 for x in il.matvec(W, c)))
    return tuple(sorted(rays))


def test_cone_rays_match_kernel_oracle():
    # the nef cone {x : M_sigma^^-1 x >= 0 for every facet} and the dual
    # {w : w . a_i >= 0} of the degree cone, on every variety above
    for X in COUNTING_VARIETIES + [F2]:
        W = tuple(row for _, minv in X._facet_data for row in minv)
        assert cones.cone_rays(W, X.r) == _cone_rays_by_kernel(W, X.r) == X.nef_rays
        A = il.transpose(X.grading)
        assert cones.cone_rays(A, X.r) == _cone_rays_by_kernel(A, X.r)
    # a subset of dependent rows spans no line
    W = ((1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1))
    assert cones.cone_rays(W, 3) == _cone_rays_by_kernel(W, 3)


def test_interpolation_fills_no_fiber_cache():
    X = tv.product_projective(2, 1)
    hb.ring_hilbert_polynomial(X)
    assert X._fiber_cache == {}


def _stanley_path(X, I):
    return hilbert_polynomial_of_pairs(X, stanley_filtration(I))


@given(gen.data())
def test_kernel_matches_stanley_path(data):
    X = data.draw(gen.sampled_from(KERNEL_VARIETIES))
    gens = data.draw(gen.lists(gen.tuples(*[gen.integers(0, 3)] * X.n), max_size=4))
    I = mi.MonomialIdeal(X.n, gens)
    assume(not I.is_unit())
    assert hb.quotient_hilbert_polynomial(X, I) == _stanley_path(X, I)


def test_kernel_on_zero_and_unsaturated_ideals():
    for X in KERNEL_VARIETIES:
        zero = mi.MonomialIdeal.zero(X.n)
        assert hb.quotient_hilbert_polynomial(X, zero) == hb.ring_hilbert_polynomial(X)
        assert _stanley_path(X, zero) == hb.ring_hilbert_polynomial(X)
        # S/B is B-torsion; x1 * B has saturation <x1>
        B = mi.MonomialIdeal(X.n, X.irrelevant_generators())
        assert hb.quotient_hilbert_polynomial(X, B).is_zero()
        x1B = mi.MonomialIdeal(X.n, [(g[0] + 1,) + g[1:] for g in B.gens])
        assert not mi.is_b_saturated(x1B, X)
        P = hb.quotient_hilbert_polynomial(X, x1B)
        assert P == _stanley_path(X, x1B)
        assert P == hb.quotient_hilbert_polynomial(X, mi.b_saturate(x1B, X))


def test_k_polynomial_recursion_checks_its_measure():
    I = mi.MonomialIdeal(3, [(1, 1, 0), (0, 1, 1)])
    assert hb.coarse_k_polynomial(P2, I) == (((0,), 1), ((2,), -2), ((3,), 1))
    # a child whose measure (2 non-pure-power generators, total degree 4)
    # does not fall below its parent's is an error
    with pytest.raises(SearchExhausted):
        hb._k_polynomial(P2.degree, (0,), {}, I.gens, (2, 4))


def _dominating_points(X, vectors):
    t0 = tv.find_point_dominating(X, vectors)
    return [tuple(t0[j] + sum(c * ray[j] for c, ray in zip(combo, X.nef_rays))
                  for j in range(X.r))
            for combo in product(range(2), repeat=len(X.nef_rays))]


def test_every_face_polynomial_matches_fiber_counts():
    # |fiber_sigma(t)| = sum over T in sigma^ of (-1)^|T| H_S(t - deg x_T),
    # and H_S = P_S on K, so the face polynomial equals the fiber count
    # wherever t - deg x_T lies in K for every T; off the fan both vanish
    varieties = KERNEL_VARIETIES + [P1, tv.hirzebruch(3)]
    for X in varieties:
        for size in range(X.n + 1):
            for sigma in combinations(range(X.n), size):
                hat = [i for i in range(X.n) if i not in sigma]
                sums = {(0,) * X.r}
                for i in hat:
                    a = X.variable_degree(i)
                    sums |= {tuple(s + x for s, x in zip(old, a)) for old in sums}
                poly = hb.face_hilbert_polynomial(X, sigma)
                if frozenset(hat) not in X.delta:
                    assert poly.is_zero(), (X, sigma)
                for t in _dominating_points(X, sorted(sums)):
                    # the fiber of S_sigma: monomials of S in degree t on sigma only
                    count = sum(1 for u in mi.fiber_monomials(X, t)
                                if not any(u[i] for i in hat))
                    assert poly.evaluate(t) == count, (X, sigma, t)


@given(gen.data())
def test_hilbert_function_matches_fiber_scan(data):
    X = data.draw(gen.sampled_from(KERNEL_VARIETIES))
    gens = data.draw(gen.lists(gen.tuples(*[gen.integers(0, 3)] * X.n), max_size=4))
    I = mi.MonomialIdeal(X.n, gens)
    t = data.draw(gen.tuples(*[gen.integers(-2, 5)] * X.r))
    scan = sum(1 for u in mi.fiber_monomials(X, t) if not I.contains(u))
    assert mi.hilbert_function(X, I, t) == scan


def test_hilbert_function_keeps_the_cap():
    X = tv.projective_space(3)
    for I in (mi.MonomialIdeal.zero(4), DPP_IDEAL, mi.MonomialIdeal.unit(4)):
        with pytest.raises(FiberTooLarge):
            mi.hilbert_function(X, I, (12,), cap=10)
    assert mi.hilbert_function(X, DPP_IDEAL, (12,), cap=455) == 12 * 12 + 2 * 12 + 2


def test_each_variety_builds_its_ring_polynomial_once(monkeypatch):
    from toricreg import enumeration as en
    built = Counter()
    original = hb._ring_polynomial

    def counting(X, gammas):
        built[id(X)] += 1
        return original(X, gammas)

    monkeypatch.setattr(hb, "_ring_polynomial", counting)
    # canonical-grading F2 enumerates on a regraded copy with its own P_S
    for X in (tv.projective_space(2), tv.product_projective(2, 1), tv.build_variety(F2.fan)):
        for size in range(X.n + 1):
            for sigma in combinations(range(X.n), size):
                hb.face_hilbert_polynomial(X, sigma)
        mi.hilbert_function(X, mi.MonomialIdeal(X.n, [(2,) + (0,) * (X.n - 1)]), (3,) * X.r)
        curve = mi.MonomialIdeal(X.n, [(1, 0, 1) + (0,) * (X.n - 3)])
        en.run_enumeration(X, hb.quotient_hilbert_polynomial(X, curve))
        assert built[id(X)] == 1
    assert sorted(built.values()) == [1, 1, 1, 1]
