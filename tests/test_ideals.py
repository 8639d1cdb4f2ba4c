"""Monomial-ideal arithmetic: colon, decomposition, saturation, fibers."""

import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as gen

from toricreg import ideals as mi
from toricreg import intlinalg as il
from toricreg import variety as tv
from toricreg.errors import FiberTooLarge, UnitIdeal
from toricreg.hilbscheme import ideals_generated_in_degrees
from toricreg.multipoly import MultiPoly
from toricreg.regularity import KUpset

from test_variety import BLOWN_UP_P3

P1 = tv.projective_space(1)
P2 = tv.projective_space(2)
P3 = tv.projective_space(3)
F1 = tv.hirzebruch(1)
F2 = tv.hirzebruch(2)
P1xP1 = tv.product_projective(1, 1)
P2xP1 = tv.product_projective(2, 1)

# doubled plane union a point: <x4^2> intersect <x1,x2,x3>
DPP_IDEAL = mi.MonomialIdeal(4, [(1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 1, 2)])


def component_ideal(a):
    """The irreducible ideal with exponent tuple a, from its generators."""
    n = len(a)
    return mi.MonomialIdeal(
        n, [tuple(e if j == i else 0 for j in range(n)) for i, e in enumerate(a) if e])


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def intersect(I, J):
    """I meet J from the lcms of all pairs of generators."""
    if I.is_zero() or J.is_zero():
        return mi.MonomialIdeal.zero(I.n)
    return mi.MonomialIdeal(I.n, [mi.monomial_lcm(g, h) for g in I.gens for h in J.gens])


def saturate_monomial(I, m):
    """(I : (x^m)^infinity): zero out all exponents in supp(m)."""
    supp = {i for i, e in enumerate(m) if e}
    return mi.MonomialIdeal(
        I.n, [tuple(0 if j in supp else e for j, e in enumerate(g)) for g in I.gens])


def b_saturate_classical(I, X):
    """The oracle for b_saturate: intersect (I : m^infinity) over the
    minimal generators m of the irrelevant ideal."""
    if I.is_unit():
        raise UnitIdeal("cannot saturate the unit ideal")
    out = None
    for m in X.irrelevant_generators():
        part = saturate_monomial(I, m)
        out = part if out is None else intersect(out, part)
    return out


def support(a):
    return [i for i, e in enumerate(a) if e]


def monomials_up_to(n, bound):
    """All exponent tuples in N^n of total degree <= bound."""
    def rec(pos, remaining, acc):
        if pos == n:
            yield tuple(acc)
            return
        for k in range(remaining + 1):
            acc[pos] = k
            yield from rec(pos + 1, remaining - k, acc)
        acc[pos] = 0

    yield from rec(0, bound, [0] * n)


def brute_colon(I, m, n, bound):
    """Membership-level oracle: x^v in (I : x^m) iff x^(v+m) in I."""
    return {v for v in monomials_up_to(n, bound) if I.contains(monomial_mul(v, m))}


def test_colon_examples():
    I = mi.MonomialIdeal(2, [(2, 1), (1, 2)])
    C = I.colon((1, 0))
    assert C.gens == ((0, 2), (1, 1))
    # oracle agreement up to degree 5
    expect = brute_colon(I, (1, 0), 2, 5)
    got = {v for v in monomials_up_to(2, 5) if C.contains(v)}
    assert got == expect
    assert I.colon((0, 0)) == I
    J = mi.MonomialIdeal(4, [(1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)])
    assert J.colon((1, 0, 0, 0)) == mi.MonomialIdeal(
        4, [(0, 1, 0, 0), (0, 0, 0, 1)])


def test_add_monomial():
    I = mi.MonomialIdeal(2, [(2, 1)])
    assert I.plus((1, 0)).gens == ((1, 0),)
    assert I.plus((3, 3)) == I


def test_minimality_is_maintained():
    I = mi.MonomialIdeal(3, [(1, 0, 0), (2, 0, 0), (1, 1, 0), (0, 0, 2)])
    assert I.gens == ((0, 0, 2), (1, 0, 0))


def test_irreducible_decomposition_examples():
    I = mi.MonomialIdeal(4, [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)])
    comps = mi.irreducible_decomposition(I)
    assert sorted(support(a) for a in comps) == [[0, 1], [2, 3]]
    I = mi.MonomialIdeal(2, [(3, 0), (2, 1)])
    assert mi.irreducible_decomposition(I) == ((2, 0), (3, 1))
    I = mi.MonomialIdeal(2, [(1, 0)])
    assert mi.irreducible_decomposition(I) == ((1, 0),)
    assert mi.irreducible_decomposition(mi.MonomialIdeal.zero(3)) == ((0, 0, 0),)
    with pytest.raises(UnitIdeal):
        mi.irreducible_decomposition(mi.MonomialIdeal.unit(2))


def test_decomposition_membership_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        I = mi.MonomialIdeal(n, gens)
        if I.is_unit():
            continue
        comps = mi.irreducible_decomposition(I)
        for m in monomials_up_to(n, 6):
            assert I.contains(m) == all(component_ideal(a).contains(m) for a in comps)


def test_b_saturate_fixtures():
    quadric = tv.build_variety(
        tv.Fan([[1, 0], [0, 1], [-1, 0], [0, -1]], [(0, 1), (1, 2), (2, 3), (0, 3)]))
    I = mi.MonomialIdeal(4, [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)])
    assert mi.b_saturate(I, quadric) == I
    assert mi.b_saturate(DPP_IDEAL, P3) == DPP_IDEAL
    assert b_saturate_classical(DPP_IDEAL, P3) == DPP_IDEAL
    B = mi.MonomialIdeal(2, [(1, 0), (0, 1)])
    assert mi.b_saturate(B, P1).is_unit()


# JSON fans with 1-based cones: P^2 blown up at two points (r = 3) and
# the hexagon (r = 4, five nef rays)
TWO_POINT_BLOWUP = tv.variety_from_dict({
    "rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]],
    "max_cones": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]})
HEXAGON = tv.variety_from_dict({
    "rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
    "max_cones": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]]})


def test_b_saturate_agrees_with_classical():
    rng = random.Random(12)
    for X in (P2, P3, F2, P1xP1, F1, TWO_POINT_BLOWUP, HEXAGON):
        for _ in range(80):
            gens = [tuple(rng.randint(0, 2) for _ in range(X.n))
                    for _ in range(rng.randint(1, 4))]
            I = mi.MonomialIdeal(X.n, gens)
            if I.is_unit():
                continue
            assert mi.b_saturate(I, X) == b_saturate_classical(I, X)


def split_decomposition(I):
    """The split recursion of Miller-Sturmfels, ch. 5, as the oracle for
    irreducible_decomposition: a generator with two or more variables in
    its support splits I into I + <first pure power> and I + <the rest>;
    once every generator is a pure power, I is irreducible.  The union of
    the leaves' components is then reduced."""
    if I.is_unit():
        raise UnitIdeal("the unit ideal has no decomposition")

    def split(J):
        target = next((g for g in J.gens if sum(1 for e in g if e) >= 2), None)
        if target is None:
            return {tuple(sum(g[i] for g in J.gens) for i in range(J.n))}
        i = next(j for j, e in enumerate(target) if e)
        pure = tuple(target[j] if j == i else 0 for j in range(J.n))
        rest = tuple(0 if j == i else target[j] for j in range(J.n))
        return split(J.plus(pure)) | split(J.plus(rest))

    return mi.reduce_components(split(I))


def intersect_components(n, comps):
    """The intersection of the irreducible ideals with exponent tuples
    comps, built from their generators (the unit ideal when empty)."""
    out = mi.MonomialIdeal.unit(n)
    for a in comps:
        out = intersect(out, component_ideal(a))
    return out


def irrelevant_power(X, k):
    """B^k, B the irrelevant ideal of X: its components all lie off the fan."""
    gens = [(0,) * X.n]
    for _ in range(k):
        gens = [monomial_mul(g, h) for g in gens for h in X.irrelevant_generators()]
    return mi.MonomialIdeal(X.n, gens)


DECOMPOSITION_VARIETIES = {"P2": P2, "P3": P3, "P1xP1": P1xP1, "F1": F1, "F2": F2,
                           "two_point_blowup": TWO_POINT_BLOWUP, "hexagon": HEXAGON}


def check_decomposition(I, X):
    """The decomposition, saturation and saturation test of I on X against
    the split-recursion oracle and the classical saturation."""
    comps = split_decomposition(I)
    assert mi.irreducible_decomposition(I) == comps
    sat = mi.b_saturate(I, X)
    on_fan = [a for a in comps if frozenset(support(a)) in X.delta]
    assert sat == intersect_components(I.n, on_fan)
    assert sat == b_saturate_classical(I, X)
    assert mi.is_b_saturated(I, X) == (sat == I)
    return sat


@pytest.mark.parametrize("name", DECOMPOSITION_VARIETIES)
def test_decomposition_and_saturation_match_split_oracle(name):
    X = DECOMPOSITION_VARIETIES[name]
    n = X.n
    rng = random.Random(31)
    pure = [tuple(2 if j == i else 0 for j in range(n)) for i in range(n)]
    assert check_decomposition(mi.MonomialIdeal.zero(n), X).is_zero()
    assert mi.is_b_saturated(mi.MonomialIdeal.zero(n), X)
    for g in pure:
        assert check_decomposition(mi.MonomialIdeal(n, [g]), X) == mi.MonomialIdeal(n, [g])
    for k in (1, 2):
        # every component lies off the fan: the saturation is the unit ideal
        B = irrelevant_power(X, k)
        assert all(frozenset(support(a)) not in X.delta for a in split_decomposition(B))
        assert check_decomposition(B, X).is_unit()
        assert check_decomposition(mi.MonomialIdeal(n, B.gens + (pure[0],)), X).is_unit()
    for _ in range(40):
        one = tuple(rng.randint(0, 3) for _ in range(n))
        if any(one):
            check_decomposition(mi.MonomialIdeal(n, [one]), X)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 5))]
        I = mi.MonomialIdeal(n, gens)
        if not I.is_unit():
            check_decomposition(I, X)
    with pytest.raises(UnitIdeal):
        mi.is_b_saturated(mi.MonomialIdeal.unit(n), X)


@pytest.mark.parametrize("name", DECOMPOSITION_VARIETIES)
def test_saturated_inputs_reach_no_intersection(name, monkeypatch):
    # b_saturate returns I itself when every component of I is on the
    # fan, that is on every saturated input, so it meets no component
    calls = []
    original_meet = mi.MonomialIdeal.intersect_irreducible

    def counting(self, a):
        calls.append(a)
        return original_meet(self, a)

    saturations = []
    original = mi.b_saturate

    def recording(I, X):
        before = len(calls)
        out = original(I, X)
        saturations.append((I, X, out, len(calls) - before))
        return out

    monkeypatch.setattr(mi.MonomialIdeal, "intersect_irreducible", counting)
    monkeypatch.setattr(mi, "b_saturate", recording)
    test_decomposition_and_saturation_match_split_oracle(name)
    saturated = [(I, out, met) for I, X, out, met in saturations if mi.is_b_saturated(I, X)]
    assert saturated and len(saturated) < len(saturations)
    for I, out, met in saturated:
        assert (out is I, met) == (True, 0), I


def test_saturated_input_whose_decomposition_drops_a_component():
    # meeting x2*x5, then x1*x3, makes <x3, x5> (supported off the fan),
    # whose descendants <x1, x3, x5> and <x2, x3, x5> the last generator
    # x1*x2 makes redundant: I is saturated, and b_saturate, which reads
    # only the final components, returns I itself
    X = TWO_POINT_BLOWUP
    I = mi.MonomialIdeal(5, [(1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (0, 1, 0, 0, 1)])
    assert mi.is_b_saturated(I, X)
    assert all(mi.on_fan(a, X.delta) for a in mi.irreducible_decomposition(I))
    assert mi.b_saturate(I, X) is I


@gen.composite
def variety_and_ideal(draw):
    """A variety of DECOMPOSITION_VARIETIES and a proper ideal on it with
    0..5 generators, exponents 0..3."""
    X = draw(gen.sampled_from(list(DECOMPOSITION_VARIETIES.values())))
    exps = gen.tuples(*[gen.integers(0, 3)] * X.n).filter(any)
    return X, mi.MonomialIdeal(X.n, draw(gen.lists(exps, max_size=5)))


@given(variety_and_ideal())
def test_decomposition_and_saturation_match_split_oracle_on_drawn_ideals(case):
    X, I = case
    check_decomposition(I, X)


def test_b_saturate_idempotent_and_extensive():
    rng = random.Random(13)
    for _ in range(60):
        gens = [tuple(rng.randint(0, 2) for _ in range(3))
                for _ in range(rng.randint(1, 3))]
        I = mi.MonomialIdeal(3, gens)
        if I.is_unit():
            continue
        sat = mi.b_saturate(I, P2)
        for g in I.gens:
            assert sat.contains(g)  # I is contained in its saturation
        if not sat.is_unit():
            assert mi.b_saturate(sat, P2) == sat


def test_hilbert_function_fixtures():
    assert mi.hilbert_function(P3, DPP_IDEAL, (2,)) == 10
    assert mi.hilbert_function(F2, mi.MonomialIdeal.zero(4), (1, 0)) == 2
    assert mi.fiber_monomials(F2, (1, 0)) == [(0, 0, 1, 0), (1, 0, 0, 0)]
    # empty fiber
    assert mi.hilbert_function(P2, mi.MonomialIdeal.zero(3), (-1,)) == 0
    assert mi.hilbert_function(F2, mi.MonomialIdeal.zero(4), (-1, -1)) == 0
    # example 1.1 polynomial values: t^2 + 2t + 2 for t >= 2
    for t in range(2, 8):
        assert mi.hilbert_function(P3, DPP_IDEAL, (t,)) == t * t + 2 * t + 2


def test_fiber_cap():
    X = tv.projective_space(3)
    with pytest.raises(FiberTooLarge):
        mi.fiber_monomials(X, (12,), cap=10)
    assert len(mi.fiber_monomials(X, (12,))) == 455
    with pytest.raises(FiberTooLarge):
        mi.fiber_monomials(X, (12,), cap=10)  # the cached fiber is still capped
    assert len(mi.fiber_monomials(X, (12,), cap=455)) == 455


def _box_fibers(X, degrees):
    """Brute force: bucket by degree every u in the box u_i <= floor(w.t / w.a_i),
    taken for the largest w.t over the given degrees.  Every u in a fiber
    of a given degree t has w.a_i u_i <= w.t, so it lies in that box."""
    w = X.positive_w
    top = max(sum(a * b for a, b in zip(w, t)) for t in degrees)
    bounds = [top // sum(a * b for a, b in zip(w, X.variable_degree(i))) for i in range(X.n)]
    buckets = {}
    for u in product(*(range(b + 1) for b in bounds)):
        buckets.setdefault(X.degree(u), []).append(u)
    return buckets


# F1 with its rays reordered: the solved block is no longer enumerated
# in lex order, so the result must be sorted afterwards
F1_REORDERED = tv.build_variety(tv.Fan([[1, 0], [-1, 1], [0, -1], [0, 1]],
                                       [(0, 3), (1, 3), (1, 2), (0, 2)]))
# (variety, axis): the degrees axis^r, with negative entries and degrees
# outside K; the added Hirzebruch surfaces and the blowups take smaller
# axes, as the box of _box_fibers grows with r and n
FIBER_ORACLE_CASES = (
    [(X, range(-2, 7)) for X in (P1, P2, P3, P2xP1, P1xP1, F1, F2, F1_REORDERED)]
    + [(tv.hirzebruch(ell), range(-2, 6)) for ell in (0, 3)]
    + [(tv.build_variety(BLOWN_UP_P3), range(-2, 5)), (TWO_POINT_BLOWUP, range(-2, 4))])


def test_fiber_matches_box_oracle():
    """The walk (free exponents, the last one solved as an interval)
    against brute force, on a fresh variety for each case."""
    outside_k = 0
    for X, axis in FIBER_ORACLE_CASES:
        X = tv.with_grading(X, X.grading)  # a fresh variety: empty caches
        degrees = list(product(axis, repeat=X.r))
        buckets = _box_fibers(X, degrees)
        for t in degrees:
            expected = sorted(buckets.get(t, []))
            assert mi.fiber_monomials(X, t) == expected, (X, t)
            # second call answers from the cache
            assert mi.fiber_monomials(X, t) == expected
            outside_k += bool(expected) and not X.nef_member(t)
    assert outside_k  # some nonempty fibers lie outside K


def test_fiber_cap_boundary():
    """cap = |fiber| returns the fiber and cap = |fiber| - 1 raises, both
    from a fresh walk and from the cache."""
    for X, _ in FIBER_ORACLE_CASES:
        for t in product(range(1, 4), repeat=X.r):
            size = len(mi.fiber_monomials(X, t))
            if not size:
                continue
            fresh = tv.with_grading(X, X.grading)
            with pytest.raises(FiberTooLarge):
                mi._enumerate_fiber(fresh, t, size - 1)
            with pytest.raises(FiberTooLarge):
                mi.fiber_monomials(fresh, t, cap=size - 1)
            assert t not in fresh._fiber_cache  # a walk that raised left nothing
            assert len(mi._enumerate_fiber(fresh, t, size)) == size
            assert len(mi.fiber_monomials(fresh, t, cap=size)) == size
            assert t in fresh._fiber_cache
            with pytest.raises(FiberTooLarge):
                mi.fiber_monomials(fresh, t, cap=size - 1)
            assert len(mi.fiber_monomials(fresh, t, cap=size)) == size


def test_fiber_rejects_bad_degree():
    zero = mi.MonomialIdeal.zero(3)
    with pytest.raises(ValueError):
        mi.hilbert_function(P2, zero, (1, 2))
    with pytest.raises(ValueError):
        mi.fiber_monomials(P1xP1, (1,))


def test_cached_fiber_cannot_be_changed_by_callers():
    X = tv.projective_space(2)
    fiber = mi.fiber_monomials(X, (2,))
    expected = list(fiber)
    fiber.append((9, 9, 9))
    fiber.sort(reverse=True)
    assert mi.fiber_monomials(X, (2,)) == expected
    assert mi.fiber_monomials(X, (2,)) is not mi.fiber_monomials(X, (2,))


def _irredundant_by_intersection(components):
    """The former definition: repeatedly drop a component that contains
    the intersection of all the others."""
    keep = sorted(components)
    changed = True
    while changed:
        changed = False
        for c in list(keep):
            others = [k for k in keep if k is not c]
            if not others:
                continue
            inter = component_ideal(others[0])
            for o in others[1:]:
                inter = intersect(inter, component_ideal(o))
            if all(component_ideal(c).contains(g) for g in inter.gens):
                keep = others
                changed = True
                break
    return tuple(keep)


def test_irredundant_pairwise_matches_intersection_definition():
    rng = random.Random(21)
    for _ in range(1500):
        n = rng.randint(1, 4)
        comps = set()
        for _ in range(rng.randint(1, 6)):
            supp = rng.sample(range(n), rng.randint(1, n))
            comps.add(tuple(rng.randint(1, 3) if i in supp else 0 for i in range(n)))
        assert mi.reduce_components(comps) == _irredundant_by_intersection(comps)


@gen.composite
def ideal_and_component(draw):
    """A random ideal (zero and unit included) in 1..4 variables and an
    irreducible exponent tuple (the zero tuple included)."""
    n = draw(gen.integers(1, 4))
    exps = gen.tuples(*[gen.integers(0, 3)] * n)
    kind = draw(gen.sampled_from(("zero", "unit", "random")))
    if kind == "zero":
        I = mi.MonomialIdeal.zero(n)
    elif kind == "unit":
        I = mi.MonomialIdeal.unit(n)
    else:
        I = mi.MonomialIdeal(n, draw(gen.lists(exps, min_size=1, max_size=6)))
    return I, draw(exps)


@given(ideal_and_component())
def test_intersect_irreducible_matches_intersect(case):
    I, a = case
    J = I.intersect_irreducible(a)
    assert J == intersect(I, component_ideal(a))  # the zero tuple: the zero ideal
    # canonical: minimal and sorted, as the validating constructor builds it
    assert mi.MonomialIdeal(I.n, J.gens).gens == J.gens


def test_colon_add_exact_sequence_on_hilbert_functions():
    # H(S/I, t) = H(S/(I + <m>), t) + H(S/(I : m), t - deg m)
    rng = random.Random(14)
    for X in (P2, F2):
        for _ in range(60):
            gens = [tuple(rng.randint(0, 2) for _ in range(X.n))
                    for _ in range(rng.randint(1, 3))]
            I = mi.MonomialIdeal(X.n, gens)
            m = tuple(rng.randint(0, 2) for _ in range(X.n))
            dm = X.degree(m)
            for t in product(range(0, 4), repeat=X.r):
                left = mi.hilbert_function(X, I, t)
                plus = mi.hilbert_function(X, I.plus(m), t)
                colon = mi.hilbert_function(
                    X, I.colon(m), tuple(a - b for a, b in zip(t, dm)))
                assert left == plus + colon


def test_saturation_preserves_deep_hilbert_values():
    rng = random.Random(15)
    from toricreg.variety import find_point_dominating
    for X in (P2, F2):
        for _ in range(25):
            gens = [tuple(rng.randint(0, 2) for _ in range(X.n))
                    for _ in range(rng.randint(1, 3))]
            I = mi.MonomialIdeal(X.n, gens)
            if I.is_unit():
                continue
            sat = mi.b_saturate(I, X)
            if sat.is_unit():
                continue
            # deep = past the Taylor-complex shifts of both ideals
            shifts = []
            for J in (I, sat):
                from itertools import combinations
                for size in range(1, len(J.gens) + 1):
                    for subset in combinations(J.gens, size):
                        lcm = tuple(max(col) for col in zip(*subset))
                        shifts.append(X.degree(lcm))
            t0 = find_point_dominating(X, shifts)
            for k in product(range(0, 3), repeat=X.r):
                t = tuple(a + sum(k[j] * X.nef_rays[j][i] for j in range(X.r))
                          for i, a in enumerate(t0))
                assert mi.hilbert_function(X, I, t) == mi.hilbert_function(X, sat, t)


def test_parse_and_format():
    assert mi.parse_monomial("x1^2*x2", 3) == (2, 1, 0)
    assert mi.parse_monomial("1", 3) == (0, 0, 0)
    assert mi.format_monomial((2, 1, 0)) == "x1^2*x2"
    assert mi.format_monomial((0, 0, 0)) == "1"
    I = mi.parse_ideal("x1^2*x2, x2*x3", 3)
    assert I.gens == ((0, 1, 1), (2, 1, 0))
    assert mi.format_ideal(I) == "<x2*x3, x1^2*x2>"
    assert mi.parse_ideal("0", 3).is_zero()


def test_minimalize_single_pass_matches_pairwise_definition():
    rng = random.Random(20)
    for _ in range(2000):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 7))]
        distinct = set(gens)
        expected = tuple(sorted(g for g in distinct
                                if not any(h != g and mi.divides(h, g) for h in distinct)))
        assert mi.minimalize(gens) == expected


class _Index:
    """An integer-like type that is not int, as numeric libraries define."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_exponents_must_be_integers():
    with pytest.raises(ValueError):
        mi.MonomialIdeal(3, [(1.5, 0, 0)])
    with pytest.raises(ValueError):
        mi.MonomialIdeal(3, [(1, 0, 0), (0, 2.0, 0)])
    I = mi.MonomialIdeal(3, [(True, 2, 0), (_Index(2), 1, 0)])
    assert I.gens == ((1, 2, 0), (2, 1, 0))
    assert all(type(e) is int for g in I.gens for e in g)


X1 = mi.MonomialIdeal(3, [(1, 0, 0)])


@pytest.mark.parametrize("call", [
    lambda: mi.hilbert_function(P2, X1, (2.7,)),
    lambda: mi.fiber_monomials(P2, (1.5,)),
    lambda: P2.nef_member((-0.5,)),
    lambda: tv.find_point_dominating(P2, [(0,), (0.5,)]),
    lambda: MultiPoly(1, {(1.5,): 1}),
    lambda: KUpset(P2, [(0.7,)]),
    lambda: il.unimodular_with_first_column((1.0, 2)),
    lambda: ideals_generated_in_degrees(P2, [(1.5,)], MultiPoly.constant(1, 1)),
], ids=["hilbert_function", "fiber_monomials", "nef_member", "find_point_dominating",
        "MultiPoly", "KUpset", "unimodular_with_first_column",
        "ideals_generated_in_degrees"])
def test_non_integer_vectors_are_rejected(call):
    # truncating 2.7 to 2 would answer for a different degree
    with pytest.raises(TypeError):
        call()


# -- plus and colon against the minimalizing constructor ----------------


def _plus_by_definition(I, m):
    return mi.MonomialIdeal(I.n, I.gens + (tuple(m),))


def _colon_by_definition(I, m):
    return mi.MonomialIdeal(
        I.n, [tuple(max(g[i] - m[i], 0) for i in range(I.n)) for g in I.gens])


def _ideal_outcome(call, I, m):
    """The generators of call(I, m), as exact types, or the type and
    message of the error it raises."""
    try:
        J = call(I, m)
    except (ValueError, IndexError, TypeError) as exc:
        return type(exc), str(exc)
    return J.n, tuple(tuple((type(e), e) for e in g) for g in J.gens)


@gen.composite
def ideal_and_monomial(draw):
    """A random ideal (zero and unit included) in 1..5 variables, exponents
    0..3, and a monomial: random, in the ideal, zero or a variable."""
    n = draw(gen.integers(1, 5))
    exps = gen.tuples(*[gen.integers(0, 3)] * n)
    kind = draw(gen.sampled_from(("zero", "unit", "random", "random")))
    if kind == "zero":
        I = mi.MonomialIdeal.zero(n)
    elif kind == "unit":
        I = mi.MonomialIdeal.unit(n)
    else:
        I = mi.MonomialIdeal(n, draw(gen.lists(exps, min_size=1, max_size=6)))
    which = draw(gen.sampled_from(("random", "member", "zero", "variable")))
    if which == "member" and I.gens:
        g = draw(gen.sampled_from(I.gens))
        m = tuple(a + b for a, b in zip(g, draw(exps)))
    elif which == "zero":
        m = (0,) * n
    elif which == "variable":
        i = draw(gen.integers(0, n - 1))
        m = tuple(int(j == i) for j in range(n))
    else:
        m = draw(exps)
    return I, m


@given(ideal_and_monomial())
def test_plus_and_colon_match_the_constructor(case):
    I, m = case
    for call, definition in ((mi.MonomialIdeal.plus, _plus_by_definition),
                             (mi.MonomialIdeal.colon, _colon_by_definition)):
        got = _ideal_outcome(call, I, m)
        assert got == _ideal_outcome(definition, I, m), (I, m, call)
        assert not isinstance(got[0], type), got
    if I.contains(m):
        assert I.plus(m) is I


@given(ideal_and_monomial(), gen.sampled_from((
    "float", "half", "fraction", "negative", "short", "long", "bool", "index")))
def test_plus_and_colon_raise_as_the_constructor_does(case, how):
    # monomials the constructor converts or rejects: non-integer, negative
    # and wrongly sized exponents, bools and __index__ objects
    from fractions import Fraction

    I, m = case
    m = list(m)
    if how == "float":
        m[0] = float(m[0])
    elif how == "half":
        m[0] = m[0] + 0.5
    elif how == "fraction":
        m[-1] = Fraction(2 * m[-1] + 1, 2)
    elif how == "negative":
        m[0] = -1
    elif how == "short":
        m = m[:-1]
    elif how == "long":
        m = m + [1]
    elif how == "bool":
        m = [bool(e) for e in m]
    else:
        m[0] = _Index(m[0])
    m = tuple(m)
    for call, definition in ((mi.MonomialIdeal.plus, _plus_by_definition),
                             (mi.MonomialIdeal.colon, _colon_by_definition)):
        assert _ideal_outcome(call, I, m) == _ideal_outcome(definition, I, m), (I, m, call)


def test_plus_and_colon_reject_non_integers_as_before():
    I = mi.MonomialIdeal(2, [(1, 1)])
    for call in (lambda: I.plus((0.5, 0)), lambda: I.colon((0.5, 0)),
                 lambda: I.colon((1.0, 0)), lambda: I.plus((-1, 0)),
                 lambda: I.plus((1, 0, 0))):
        with pytest.raises(ValueError):
            call()
    # as before, lowering to a non-positive difference leaves an int 0
    assert I.colon((1.5, 1)) == mi.MonomialIdeal(2, [(0, 0)])
