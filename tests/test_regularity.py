"""K-upsets and the two regularity bounds."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as gen

from toricreg import ideals as mi
from toricreg import intlinalg as il
from toricreg import regularity as rg
from toricreg import variety as tv
from toricreg.errors import FiltrationInvalid, MissingBaseline, NoSaturatedIdeal
from toricreg.ideals import hilbert_function
from toricreg.hilbert import quotient_hilbert_polynomial
from toricreg.multipoly import parse_poly
from toricreg.stanley import StanleyPair, stanley_filtration, verify_stanley

P2 = tv.projective_space(2)
P3 = tv.projective_space(3)
PP = tv.product_projective(2, 1)
F2 = tv.hirzebruch(2)

# doubled plane union a point: <x4^2> intersect <x1,x2,x3>
DPP_IDEAL = mi.MonomialIdeal(4, [(1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 1, 2)])
DPP_FILT = (StanleyPair((0, 0, 0, 0), frozenset({0, 1, 2})),
             StanleyPair((0, 0, 0, 1), frozenset({0, 1, 2})),
             StanleyPair((0, 0, 0, 2), frozenset({3})))


def upset_contains(U, p):
    """Whether p lies in the upset U: p - g lies in K for some generator g.
    No CLI verb asks for membership, so only tests use it."""
    return any(U.X.nef_member(tuple(a - b for a, b in zip(p, g))) for g in U.generators)


def test_upset_nesting_and_joins():
    assert rg.upset_intersect(rg.KUpset(P3, [(2,)]), rg.KUpset(P3, [(0,)])).generators == ((2,),)
    assert rg.upset_intersect(rg.KUpset(PP, [(1, 0)]), rg.KUpset(PP, [(0, 3)])).generators == ((1, 3),)
    got = rg.upset_intersect(rg.KUpset(PP, [(2, 0), (0, 2)]), rg.KUpset(PP, [(1, 1)]))
    assert got.generators == ((1, 2), (2, 1))
    # a generator of the wrong length is rejected, not truncated
    with pytest.raises(ValueError, match="has 3 entries, the grading has 2"):
        rg.upset_intersect(rg.KUpset(PP, [(1, 2, 3)]), rg.KUpset(PP, [(0, 5)]))


def test_upset_membership_matches_brute_force():
    A = rg.KUpset(PP, [(2, 0), (0, 2)])
    B = rg.KUpset(PP, [(1, 1)])
    C = rg.upset_intersect(A, B)
    for p in product(range(-1, 6), repeat=2):
        assert upset_contains(C, p) == (upset_contains(A, p) and upset_contains(B, p))


def test_upset_minimal_generators():
    U = rg.KUpset(PP, [(1, 1), (2, 2), (0, 3), (0, 4)])
    assert U.generators == ((0, 3), (1, 1))


def test_doubled_plane_point_bound_is_sharp():
    bound = rg.reg_bound_from_filtration(P3, DPP_IDEAL, DPP_FILT)
    assert bound.generators == ((2,),)


def test_prime_ideal_bound_is_baseline():
    P = mi.MonomialIdeal(3, [(0, 1, 0)])
    bound = rg.reg_bound_from_filtration(P2, P, stanley_filtration(P))
    assert bound.generators == ((0,),)


def test_lex_ideal_bound():
    L = mi.MonomialIdeal(3, [(4, 0, 0), (3, 1, 0)])
    bound = rg.reg_bound_from_filtration(P2, L, stanley_filtration(L))
    assert bound.generators == ((3,),)


def test_invalid_filtration_rejected():
    with pytest.raises(FiltrationInvalid):
        rg.reg_bound_from_filtration(P3, DPP_IDEAL, DPP_FILT[:2])
    # a B-saturated ideal on PxP(2,1) whose two pairs decompose S/I in
    # either order, but filter it only with the shift 1 first
    I = mi.MonomialIdeal(5, [(2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 0, 1, 0)])
    reordered = stanley_filtration(I)[::-1]
    assert verify_stanley(I, reordered, mode="decomposition")
    with pytest.raises(FiltrationInvalid,
                       match="prefix 2: x1 lies in pair 1 but shift 2 divides it"):
        rg.reg_bound_from_filtration(PP, I, reordered)


def test_unsaturated_ideal_needs_baselines():
    # <x1, x2> on P^1 has only the non-face component {1,2}
    B = mi.MonomialIdeal(2, [(1, 0), (0, 1)])
    P1 = tv.projective_space(1)
    with pytest.raises(MissingBaseline):
        rg.reg_bound_from_filtration(P1, B, stanley_filtration(B))


def test_polynomial_bound_fixtures():
    bound = rg.reg_bound_from_polynomial(PP, parse_poly("3*t1+1", nvars=2))
    assert bound.generators == ((3, 3),)
    assert rg.reg_bound_from_polynomial(P2, parse_poly("1", nvars=1)).generators == ((0,),)
    # points: Gotzmann number = number of points, bound (l-1)c
    assert rg.reg_bound_from_polynomial(P2, parse_poly("3", nvars=1)).generators == ((2,),)
    assert rg.reg_bound_from_polynomial(F2, parse_poly("2", nvars=2)).generators == ((1, 1),)
    with pytest.raises(NoSaturatedIdeal):
        rg.reg_bound_from_polynomial(PP, parse_poly("3*t2+1", nvars=2))


def test_filtration_bound_refines_polynomial_bound():
    # the per-ideal filtration region contains the uniform region
    from toricreg.enumeration import enumerate_saturated_ideals
    P = parse_poly("3*t+1")
    uniform = rg.reg_bound_from_polynomial(P2, P)
    ideals = enumerate_saturated_ideals(P2, P)
    assert len(ideals) == 30
    for ideal, witness in ideals:
        fine = rg.reg_bound_from_filtration(P2, ideal, witness)
        for g in uniform.generators:
            assert upset_contains(fine, g)


def test_hilbert_function_equals_polynomial_on_bound_region():
    # necessary regularity consequence, checked at 10 points past the bound
    cases = [(P3, DPP_IDEAL, DPP_FILT),
             (P2, mi.MonomialIdeal(3, [(4, 0, 0), (3, 1, 0)]), None)]
    for X, I, filt in cases:
        if filt is None:
            filt = stanley_filtration(I)
        bound = rg.reg_bound_from_filtration(X, I, filt)
        P = quotient_hilbert_polynomial(X, I)
        (k,) = bound.generators
        count = 0
        for combo in product(range(1, 12), repeat=X.r):
            t = tuple(k[j] + sum(combo[i] * X.nef_rays[i][j] for i in range(X.r))
                      for j in range(X.r))
            assert hilbert_function(X, I, t) == P.evaluate(t)
            count += 1
            if count >= 10:
                break


def test_hirzebruch_bound_consistency():
    # whether the default baselines are valid on a Hirzebruch surface is
    # not settled, so only the testable consequence is asserted: the
    # Hilbert function matches the polynomial past the computed bound
    cases = [mi.MonomialIdeal(4, [(1, 0, 1, 0)]),
             mi.MonomialIdeal(4, [(0, 1, 0, 1), (2, 0, 0, 0)])]
    for I in cases:
        sat = mi.b_saturate(I, F2)
        filt = stanley_filtration(sat)
        bound = rg.reg_bound_from_filtration(F2, sat, filt)
        P = quotient_hilbert_polynomial(F2, sat)
        for k in bound.generators:
            for combo in product(range(1, 4), repeat=2):
                t = tuple(k[j] + sum(combo[i] * F2.nef_rays[i][j] for i in range(2))
                          for j in range(2))
                assert hilbert_function(F2, sat, t) == P.evaluate(t), (I, t)


def test_monotonicity_of_intersections():
    # adding pairs to the intersection never grows the region
    base = rg.KUpset(P3, [(1,)])
    more = rg.upset_intersect(base, rg.KUpset(P3, [(4,)]))
    for p in range(-2, 9):
        if upset_contains(more, (p,)):
            assert upset_contains(base, (p,))


def test_nef_coordinates_are_computed_once_per_variety(monkeypatch):
    # V and its inverse are stored by build_variety; bounding the
    # regularity of an ideal computes no determinant and no inverse
    from collections import Counter
    from toricreg import intlinalg as il
    X = tv.product_projective(2, 1)
    calls = Counter()
    for name in ("determinant", "inverse_unimodular"):
        def counting(*args, _name=name, _original=getattr(il, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(il, name, counting)
    I = mi.parse_ideal("x1^2*x4, x1*x2*x4^2, x2^3", X.n)
    bound = rg.reg_bound_from_filtration(X, I, stanley_filtration(I))
    assert bound.generators == ((3, 1),)
    assert X._nef_basis[0] == ((0, 1), (1, 0))
    assert not calls


def test_intersection_unsupported_for_nonsimplicial_nef_cone():
    # hexagon fan: five nef rays in rank four, so no coordinate mode;
    # single upsets still answer membership
    from toricreg.errors import Unsupported
    hexagon = tv.build_variety(tv.Fan(
        [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
        [(i, (i + 1) % 6) for i in range(6)]))
    assert hexagon._nef_basis is None
    A = rg.KUpset(hexagon, [(1, 1, 1, 1)])
    B = rg.KUpset(hexagon, [(0, 1, 1, 0)])
    points = [(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 1)]
    assert [upset_contains(A, p) for p in points] == [False, True, True]
    with pytest.raises(Unsupported, match="minimal generators of intersections"):
        rg.upset_intersect(A, B)


def test_rendering():
    U = rg.KUpset(PP, [(2, 1), (1, 2)])
    assert rg.format_upset(U) == "{(1,2),(2,1)} + K"
    data = rg.upset_to_dict(U, rg.RegularityAssumption())
    assert data == {"generators": [[1, 2], [2, 1]], "assumed_baselines": "default-K"}


# -- the one-join bound against pairwise intersection ---------------------


def _bound_by_pairwise_intersection(X, I, filt, assume):
    """reg_bound_from_filtration as it stood before the translates of
    one-generator baselines met at one join: one KUpset per supported
    pair, intersected two at a time."""
    from functools import reduce

    filt = tuple(filt)
    result = verify_stanley(I, filt, mode="filtration")
    if not result:
        raise FiltrationInvalid(f"not a Stanley filtration for the ideal: {result.reason}")
    saturated = mi.is_b_saturated(I, X)
    parts = [assume.baseline(X, pair.face).translate(X.degree(pair.shift))
             for pair in filt
             if not saturated or frozenset(range(X.n)) - pair.face in X.delta]
    if not parts:
        raise FiltrationInvalid("no pair of the filtration is supported on the fan")
    return reduce(rg.upset_intersect, parts)


def _bound_outcome(bound, *args):
    from toricreg.errors import DomainError

    try:
        U = bound(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    return U.generators


def _random_assumption(X, rng):
    """Baselines of 0-3 generators (an empty baseline is the empty upset)
    on a random half of the faces' complements, or the default."""
    if rng.random() < 0.3:
        return rg.RegularityAssumption()
    baselines = {}
    for face in X.delta:
        if rng.random() < 0.5:
            sigma = frozenset(range(X.n)) - face
            gens = [tuple(rng.randint(-2, 2) for _ in range(X.r))
                    for _ in range(rng.choice((0, 1, 1, 1, 2, 3)))]
            baselines[sigma] = rg.KUpset(X, gens)
    return rg.RegularityAssumption(baselines, "random")


def test_one_join_bound_matches_pairwise_intersection():
    from test_variety import BLOWUP, BLOWN_UP_P3, HEXAGON_FAN

    import random

    rng = random.Random(33)
    varieties = [P2, P3, PP, F2, tv.product_projective(1, 1), tv.hirzebruch(1)]
    varieties += [tv.build_variety(fan) for fan in (BLOWUP, BLOWN_UP_P3, HEXAGON_FAN)]
    kinds = set()
    for X in varieties:
        for _ in range(25):
            gens = [tuple(rng.randint(0, 2) for _ in range(X.n))
                    for _ in range(rng.randint(1, 3))]
            I = mi.MonomialIdeal(X.n, gens)
            if not I.is_unit() and rng.random() < 0.6:
                I = mi.b_saturate(I, X)
            if I.is_unit():
                continue
            filt = stanley_filtration(I)
            if rng.random() < 0.1:
                filt = filt[::-1]  # usually no longer a filtration
            assume = _random_assumption(X, rng)
            got = _bound_outcome(rg.reg_bound_from_filtration, X, I, filt, assume)
            assert got == _bound_outcome(_bound_by_pairwise_intersection, X, I, filt, assume), \
                (X, I, filt)
            kinds.add(got[0] if got and isinstance(got[0], type) else len(got))
    from toricreg.errors import Unsupported

    assert {MissingBaseline, Unsupported, FiltrationInvalid, 0, 1, 2} <= kinds, kinds


def _polynomial_bound_by_pairwise_intersection(X, P, assume):
    """reg_bound_from_polynomial as it stood before the baselines met in
    one upset_intersect call: each distinct baseline once, intersected
    two at a time."""
    from functools import reduce

    from toricreg.enumeration import gotzmann_number
    from toricreg.errors import NoRepresentation, Unsupported

    try:
        m = gotzmann_number(X, P)
    except NoRepresentation as exc:
        raise NoSaturatedIdeal(
            "no B-saturated ideal realizes this Hilbert polynomial") from exc
    c = tv.find_c(X)
    if X._nef_basis is None:
        raise Unsupported("uniform bound needs a simplicial unimodular K")
    parts = {}
    for face in X.faces():
        part = assume.baseline(X, frozenset(range(X.n)) - face)
        parts.setdefault(part.generators, part)
    return reduce(rg.upset_intersect, parts.values()).translate(tuple((m - 1) * x for x in c))


def test_polynomial_bound_matches_pairwise_intersection():
    # random assumptions, some baselines repeated on several faces, over
    # the Hilbert polynomials of two face rings and of one small ideal,
    # and a constant no ideal has
    from test_variety import BLOWUP, BLOWN_UP_P3, HEXAGON_FAN

    import random

    from toricreg.errors import Unsupported

    rng = random.Random(34)
    varieties = [P2, P3, PP, F2, tv.product_projective(1, 1), tv.hirzebruch(1)]
    varieties += [tv.build_variety(fan) for fan in (BLOWUP, BLOWN_UP_P3, HEXAGON_FAN)]
    kinds = set()
    for X in varieties:
        ideals = [mi.MonomialIdeal(X.n, [e]) for e in il.identity(X.n)[:2]]
        ideals.append(mi.b_saturate(mi.MonomialIdeal(X.n, [(1, 1) + (0,) * (X.n - 2)]), X))
        polys = [quotient_hilbert_polynomial(X, I) for I in ideals]
        for P in polys + [parse_poly("1/3", nvars=X.r)]:
            for _ in range(4):
                assume = _random_assumption(X, rng)
                if assume.baselines and rng.random() < 0.5:
                    pool = list(assume.baselines.values())
                    assume.baselines = {sigma: rng.choice(pool) for sigma in assume.baselines}
                got = _bound_outcome(rg.reg_bound_from_polynomial, X, P, assume)
                want = _bound_outcome(_polynomial_bound_by_pairwise_intersection, X, P, assume)
                assert got == want, (X, P, assume.baselines)
                kinds.add(got[0] if got and isinstance(got[0], type) else len(got))
    assert {NoSaturatedIdeal, Unsupported, 0, 1, 2} <= kinds, kinds


UPSET_VARIETIES = {"P3": P3, "PxP(2,1)": PP, "Hirzebruch(2)": F2,
                   "PxP(1,1)": tv.product_projective(1, 1)}


@given(gen.data())
def test_upset_intersect_of_several_is_the_pairwise_fold(data):
    # one call on 1-4 upsets, each of 0-3 generators (none: the empty
    # upset), equals intersecting them two at a time, and holds exactly
    # the points that lie in every upset
    from functools import reduce

    X = data.draw(gen.sampled_from(list(UPSET_VARIETIES.values())))
    point = gen.tuples(*[gen.integers(-2, 3)] * X.r)
    upsets = [rg.KUpset(X, gens)
              for gens in data.draw(gen.lists(gen.lists(point, max_size=3),
                                              min_size=1, max_size=4))]
    got = rg.upset_intersect(*upsets)
    assert got == reduce(rg.upset_intersect, upsets)
    for p in product(range(-3, 6), repeat=X.r):
        assert upset_contains(got, p) == all(upset_contains(u, p) for u in upsets)
