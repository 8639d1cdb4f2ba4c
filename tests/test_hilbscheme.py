"""Degree sets for the Hilbert scheme embedding and the Step-2 search."""

import json
from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import index

import pytest
from hypothesis import given
from hypothesis import strategies as gen

from toricreg import hilbert as hb
from toricreg import hilbscheme as hs
from toricreg import ideals as mi
from toricreg import variety as tv
from toricreg.enumeration import run_enumeration
from toricreg.errors import BudgetExceeded, InfeasibleHilbertValue
from toricreg.hilbert import coarse_k_polynomial, quotient_hilbert_polynomial
from toricreg.multipoly import MultiPoly, parse_poly

P1 = tv.projective_space(1)
P2 = tv.projective_space(2)
P3 = tv.projective_space(3)
# the plane blown up at two points, from a variety file (1-based cones); r = 3
DP7 = tv.variety_from_dict({"rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]],
                            "max_cones": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]})


def divides_oracle(X, degrees, P, node_budget=1_000_000):
    """The search of ideals_generated_in_degrees with a divides() test
    per fiber monomial and chosen generator, and minimalized results."""
    degrees = sorted({tuple(map(index, t)) for t in degrees},
                     key=lambda t: hs._degree_sort_key(X, t))
    fibers = []
    targets = []
    for t in degrees:
        fiber = mi.fiber_monomials(X, t)
        value = P.evaluate(t)
        if value.denominator != 1 or value < 0 or value > len(fiber):
            raise InfeasibleHilbertValue(
                f"P{t} = {value} impossible for a fiber of size {len(fiber)}")
        fibers.append(fiber)
        targets.append(len(fiber) - int(value))

    results = []
    nodes = 0

    def rec(level, chosen):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded(f"more than {node_budget} search nodes")
        if level == len(degrees):
            results.append(mi.MonomialIdeal(X.n, chosen))
            return
        fiber = fibers[level]
        free = [m for m in fiber if not any(mi.divides(g, m) for g in chosen)]
        need = targets[level] - (len(fiber) - len(free))
        if need < 0:
            return
        for subset in combinations(free, need):
            rec(level + 1, chosen + list(subset))

    rec(0, [])
    return results


def search_outcome(search, X, degrees, P, node_budget):
    """The result list of a search, or the type and message it raised."""
    try:
        return search(X, degrees, P, node_budget=node_budget)
    except (BudgetExceeded, InfeasibleHilbertValue) as exc:
        return type(exc), str(exc)


def test_ideals_generated_in_degree_four():
    out = hs.ideals_generated_in_degrees(P2, [(4,)], parse_poly("3*t+1"))
    assert len(out) == 105  # C(15, 2) two-generator choices
    survivors = set()
    for I in out:
        sat = mi.b_saturate(I, P2)
        if sat.is_unit():
            continue
        if quotient_hilbert_polynomial(P2, sat) == parse_poly("3*t+1"):
            survivors.add(sat)
    assert len(survivors) == 30


def test_full_fiber_forces_zero_ideal():
    out = hs.ideals_generated_in_degrees(P2, [(2,)], parse_poly("6", nvars=1))
    assert len(out) == 1 and out[0].is_zero()


def test_infeasible_values():
    with pytest.raises(InfeasibleHilbertValue):
        hs.ideals_generated_in_degrees(P2, [(1,)], parse_poly("7", nvars=1))
    with pytest.raises(InfeasibleHilbertValue):
        hs.ideals_generated_in_degrees(P2, [(1,)], parse_poly("-1", nvars=1))
    with pytest.raises(InfeasibleHilbertValue):
        hs.ideals_generated_in_degrees(P2, [(1,)], parse_poly("1/2*t", nvars=1))


def test_node_budget():
    with pytest.raises(BudgetExceeded):
        hs.ideals_generated_in_degrees(P2, [(4,)], parse_poly("3*t+1"), node_budget=5)


def test_consistency_across_degrees():
    # generators at one degree force their multiples at later degrees
    out = hs.ideals_generated_in_degrees(P1, [(1,), (3,)], parse_poly("1", nvars=1))
    assert sorted(out) == [mi.MonomialIdeal(2, [(0, 1)]), mi.MonomialIdeal(2, [(1, 0)])]


def test_degree_set_fixtures():
    for X, ptext in [(P1, "1"), (P1, "2"), (P1, "t+1"),
                     (P2, "1"), (P2, "2"), (P2, "t+1")]:
        P = parse_poly(ptext, nvars=1)
        result = hs.degree_set(X, P, seed=7)
        assert result.converged
        assert result.anchor in result.points
        assert hs.supportive_check(X, result, P), (X, ptext)
        for I in result.ideals:
            got = MultiPoly.zero(1) if I.is_unit() else quotient_hilbert_polynomial(X, I)
            assert got == P


def test_degree_set_monotone_trace():
    result = hs.degree_set(P2, parse_poly("t+1"), seed=3)
    sizes = [row["size"] for row in result.trace]
    assert sizes == sorted(sizes)
    assert result.trace[-1]["bad"] == 0


def test_degree_set_deterministic_per_seed():
    a = hs.degree_set(P2, parse_poly("2", nvars=1), seed=5)
    b = hs.degree_set(P2, parse_poly("2", nvars=1), seed=5)
    assert a.points == b.points
    c = hs.degree_set(P2, parse_poly("2", nvars=1), seed=6)
    assert c.converged  # different seed still converges


def rational_polynomial(X, I):
    """P_{S/I} as a Fraction MultiPoly, the zero polynomial for the unit ideal."""
    return MultiPoly.zero(X.r) if I.is_unit() else quotient_hilbert_polynomial(X, I)


def saturating_supportive_oracle(X, result, P, box_level=6):
    """supportive_check as it was with a saturation clause: every
    candidate agrees with P on the sampled grid (by hilbert_function),
    and its B-saturation has Hilbert polynomial P, as a Fraction
    polynomial."""
    for I in result.ideals:
        if any(mi.hilbert_function(X, I, t) != P.evaluate(t)
               for t in hs._cone_points(X, result.anchor, box_level)):
            return False
        saturated = mi.b_saturate(I, X) if not I.is_unit() else I
        if rational_polynomial(X, saturated) != P:
            return False
    return True


def variety(name):
    return DP7 if name == "DP7" else tv.load_variety(name)


@cache
def degset_rounds(name, ptext):
    """(X, P, degree_set result at seed 11, the candidates of every round,
    bad ones included)."""
    X = variety(name)
    P = parse_poly(ptext, nvars=X.r)
    rounds = []
    search = hs.ideals_generated_in_degrees

    def recording(*args, **kwargs):
        rounds.append(search(*args, **kwargs))
        return rounds[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hs, "ideals_generated_in_degrees", recording)
        result = hs.degree_set(X, P, seed=11)
    return X, P, result, rounds


# (variety, P, verdict of supportive_check at seed 11)
SUPPORT_CASES = [
    ("P(2)", "4", True), ("P(3)", "3", True), ("Hirzebruch(1)", "2", True),
    ("Hirzebruch(2)", "2", True), ("PxP(1,1)", "2", True), ("PxP(2,1)", "2", True),
    ("PxP(2,1)", "t1+1", False), ("DP7", "1", False), ("DP7", "2", True)]


@pytest.mark.parametrize("name, ptext, verdict", SUPPORT_CASES)
def test_supportive_check_matches_saturating_oracle(name, ptext, verdict):
    X, P, result, _ = degset_rounds(name, ptext)
    assert hs.supportive_check(X, result, P) is verdict
    assert saturating_supportive_oracle(X, result, P) is verdict


def test_exact_clause_rejects_what_the_anchor_cannot():
    # round 0 runs on D = {anchor}, so every candidate of it agrees with P
    # at the anchor; with box_level=0 that is the whole grid, and only the
    # polynomial clause tells the bad ones apart
    X, P, result, rounds = degset_rounds("P(2)", "4")
    verdicts = []
    for I in rounds[0]:
        alone = hs.DegreeSetResult(points=(result.anchor,), anchor=result.anchor,
                                   ideals=[I], seed=11)
        verdict = hs.supportive_check(X, alone, P, box_level=0)
        assert verdict == saturating_supportive_oracle(X, alone, P, box_level=0)
        verdicts.append(verdict)
    assert (len(verdicts), verdicts.count(False)) == (210, 174)


def test_saturation_bridging():
    # P_{S/I^sat} = P_{S/I} on every candidate of every round, so on every
    # final candidate, where it is P; a B-torsion S/I has both sides 0
    unit_saturations = 0
    for name, ptext, _ in SUPPORT_CASES:
        X, P, result, rounds = degset_rounds(name, ptext)
        for I in result.ideals:
            assert rational_polynomial(X, I) == P
        for I in {I for ideals in rounds for I in ideals}:
            sat = I if I.is_unit() else mi.b_saturate(I, X)
            unit_saturations += sat.is_unit()
            assert rational_polynomial(X, sat) == rational_polynomial(X, I), (name, ptext, I)
    assert unit_saturations == 59


def test_integer_check_matches_rational_polynomials():
    # D * P_{S/I} == D * Q in integers agrees with P_{S/I} == Q as Fraction
    # polynomials: for Q = P, for Q = 0 and for Q = P + 1/(D + 1), whose
    # D * Q is not integral, on every round's candidates and the unit ideal
    for name, ptext, _ in SUPPORT_CASES:
        X, P, _, rounds = degset_rounds(name, ptext)
        denom = hb._ring_expansion(X)[1]
        off = P + MultiPoly.constant(X.r, Fraction(1, denom + 1))
        assert hb._scaled_target(X, off) is None
        ideals = {I for ideals in rounds for I in ideals} | {mi.MonomialIdeal.unit(X.n)}
        for Q in (P, MultiPoly.zero(X.r), off):
            target = hb._scaled_target(X, Q)
            for I in ideals:
                got = hb.shift_numerators(X, coarse_k_polynomial(X, I)) == target
                assert got == (rational_polynomial(X, I) == Q), (name, ptext, I, Q)


@pytest.mark.parametrize("name, ptext, candidates", [("PxP(2,1)", "t1+1", 6), ("DP7", "1", 5)])
def test_grid_clause_fails_on_candidates_with_polynomial_p(tmp_path, capsys, name, ptext, candidates):
    # recorded finding: every final candidate has polynomial P and so does
    # its saturation, but each one's Hilbert function differs from P on the
    # sampled grid of anchor + K, so degset prints FAIL and exits 1
    X, P, result, _ = degset_rounds(name, ptext)
    assert len(result.ideals) == candidates
    for I in result.ideals:
        assert rational_polynomial(X, mi.b_saturate(I, X)) == P
        assert any(mi.hilbert_function(X, I, t) != P.evaluate(t)
                   for t in hs._cone_points(X, result.anchor, 6))
    source = name
    if name == "DP7":
        source = tmp_path / "dp7.json"
        source.write_text(json.dumps(tv.variety_to_dict(DP7)), encoding="utf-8")
    from toricreg import cli
    assert cli.main(["degset", "--variety", str(source), "--poly", ptext, "--seed", "11"]) == 1
    assert capsys.readouterr().out.endswith("supportive check: FAIL\n")


@pytest.mark.parametrize("name, ptext", [
    ("P(2)", "3*t+1"), ("P(2)", "4"), ("P(2)", "2*t+1"), ("P(3)", "3"), ("P(3)", "2*t+1"),
    ("Hirzebruch(1)", "2"), ("PxP(1,1)", "2"), ("PxP(1,1)", "t1+1"), ("PxP(1,1)", "t1+t2+1"),
    ("Hirzebruch(2)", "2"), ("PxP(2,1)", "2"), ("DP7", "2")])
def test_degset_saturations_are_the_enumerated_ideals(name, ptext):
    # two independent routes to the B-saturated ideals with polynomial P:
    # saturating degset's candidates, and the peel-off enumeration
    X, P, result, _ = degset_rounds(name, ptext)
    saturated = sorted(mi.b_saturate(I, X) for I in result.ideals if not I.is_unit())
    assert saturated == sorted(I for I, _ in run_enumeration(X, P).ideals)
    assert len(set(saturated)) == len(saturated)


def test_degset_enumerates_each_fiber_key_once(monkeypatch, capsys):
    # every fiber is cached by its degree: no degree is enumerated twice
    from toricreg import cli

    keys = []
    enumerate_fiber = mi._enumerate_fiber

    def counting(X, t, cap):
        keys.append(t)
        return enumerate_fiber(X, t, cap)

    monkeypatch.setattr(mi, "_enumerate_fiber", counting)
    assert cli.main(["degset", "--variety", "P(2)", "--poly", "4", "--seed", "11"]) == 0
    assert "supportive check: pass" in capsys.readouterr().out
    assert keys
    assert len(keys) == len(set(keys))


def test_degset_saturates_nothing(monkeypatch, capsys):
    # candidates are decided from their K-polynomials and the regularity
    # bound's frame orders the faces on integer vectors: no B-saturation
    # and no Hilbert polynomial at all
    from toricreg import cli

    saturated = []
    polynomials = []
    b_saturate = mi.b_saturate
    quotient = hb.quotient_hilbert_polynomial

    def saturating(I, X):
        saturated.append(I)
        return b_saturate(I, X)

    def polynomial(X, I):
        polynomials.append(I)
        return quotient(X, I)

    monkeypatch.setattr(mi, "b_saturate", saturating)
    monkeypatch.setattr(hb, "quotient_hilbert_polynomial", polynomial)
    assert not hasattr(hs, "b_saturate") and not hasattr(hs, "quotient_hilbert_polynomial")
    assert cli.main(["degset", "--variety", "P(2)", "--poly", "4", "--seed", "11"]) == 0
    assert "supportive check: pass" in capsys.readouterr().out
    assert saturated == []
    assert polynomials == []


ORACLE_SEARCHES = [
    (P1, [(1,), (2,), (4,)], "2"),
    (P2, [(4,)], "3*t+1"),
    (P2, [(2,), (3,), (4,)], "4"),
    (P2, [(3,), (4,), (10,), (11,), (12,)], "4"),  # degset P(2) 4, seed 11
    (P3, [(2,), (3,)], "3"),
    (P3, [(1,), (2,), (5,)], "t+1"),
    (tv.product_projective(1, 1), [(1, 1), (1, 2), (2, 1), (2, 2)], "2"),
    (tv.product_projective(1, 1), [(0, 1), (1, 1), (3, 1)], "t1+1"),
    (tv.hirzebruch(1), [(1, 1), (2, 1), (1, 2), (3, 3)], "2"),
    (tv.hirzebruch(2), [(1, 1), (3, 1), (1, 2), (2, 2)], "2"),
    (DP7, [(2, 3, 2), (2, 4, 3), (3, 4, 2), (3, 4, 3)], "2"),
    # an empty fiber at (-1, 2), where P is 0; (2, 1) and (1, 2) have
    # equal weight under w = X.positive_w = (1, 1)
    (tv.product_projective(1, 1), [(-1, 2), (1, 1), (2, 1), (1, 2)], "t1+1"),
    # (2, 1) and (0, 2) have equal weight under w = (1, 2)
    (tv.hirzebruch(1), [(0, 2), (2, 1), (1, 1)], "2"),
]


@pytest.mark.parametrize("X, degrees, ptext", ORACLE_SEARCHES)
def test_bitset_search_matches_divides_oracle(X, degrees, ptext):
    P = parse_poly(ptext, nvars=X.r)
    got = hs.ideals_generated_in_degrees(X, degrees, P)
    assert got  # every case has a candidate
    assert [I.gens for I in got] == [I.gens for I in divides_oracle(X, degrees, P)]


SEARCH_VARIETIES = [P1, P2, P3, tv.product_projective(1, 1), tv.hirzebruch(1),
                    tv.hirzebruch(2), DP7]


@gen.composite
def degree_searches(draw):
    """A variety, one to three degrees near its nef cone (some with
    empty fibers) and a constant or linear polynomial with small
    coefficients."""
    X = draw(gen.sampled_from(SEARCH_VARIETIES))
    point = gen.tuples(*[gen.integers(-1, 3)] * X.r)
    degrees = draw(gen.lists(point, min_size=1, max_size=3))
    P = MultiPoly.constant(X.r, draw(gen.integers(0, 3)))
    if draw(gen.booleans()):
        k = draw(gen.integers(0, X.r - 1))
        P = P + MultiPoly.variable(X.r, k) * draw(gen.integers(-1, 2))
    return X, degrees, P


@given(degree_searches())
def test_bitset_search_matches_divides_oracle_on_drawn_searches(case):
    X, degrees, P = case
    got = search_outcome(hs.ideals_generated_in_degrees, X, degrees, P, 3000)
    want = search_outcome(divides_oracle, X, degrees, P, 3000)
    if isinstance(want, list):
        assert isinstance(got, list)
        assert [I.gens for I in got] == [I.gens for I in want]
    else:
        assert got == want


@pytest.mark.parametrize("X, degrees, ptext, budget, count", [
    (P2, [(2,), (3,), (4,)], "4", 148, 81),
    (P3, [(2,), (3,)], "3", 185, 64),
])
def test_node_count_is_pinned(X, degrees, ptext, budget, count):
    P = parse_poly(ptext, nvars=1)
    assert len(hs.ideals_generated_in_degrees(X, degrees, P, node_budget=budget)) == count
    with pytest.raises(BudgetExceeded):
        hs.ideals_generated_in_degrees(X, degrees, P, node_budget=budget - 1)


@pytest.mark.parametrize("X, degrees, ptext", ORACLE_SEARCHES)
def test_search_enumerates_only_the_given_fibers(monkeypatch, X, degrees, ptext):
    X = tv.variety_from_dict(tv.variety_to_dict(X))  # an empty fiber cache
    keys = []
    enumerate_fiber = mi._enumerate_fiber

    def recording(X, t, cap):
        keys.append(t)
        return enumerate_fiber(X, t, cap)

    monkeypatch.setattr(mi, "_enumerate_fiber", recording)
    hs.ideals_generated_in_degrees(X, degrees, parse_poly(ptext, nvars=X.r))
    assert sorted(keys) == sorted(set(map(tuple, degrees)))
