"""Acceptance suite: one test per criterion, each printing a pass line
with its runtime and asserting the stated budget."""

import random
import time
from itertools import combinations, product
from math import comb

from toricreg import enumeration as en
from toricreg import gotzmann as gz
from toricreg import hilbert as hb
from toricreg import hilbscheme as hs
from toricreg import ideals as mi
from toricreg import intlinalg as il
from toricreg import regularity as rg
from toricreg import stanley as st
from toricreg import variety as tv
from toricreg.multipoly import binomial_in_t, parse_poly

DPP_IDEAL = mi.MonomialIdeal(4, [(1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 1, 2)])


class Budget:
    def __init__(self, number, seconds):
        self.number = number
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None and elapsed < self.seconds:
            print(f"criterion {self.number}: PASS ({elapsed:.2f}s)")
        else:
            print(f"criterion {self.number}: FAIL ({elapsed:.2f}s)")
            assert elapsed < self.seconds, f"criterion {self.number} over budget"
        return False


def test_criterion_1_gale_and_grading_fixtures():
    with Budget(1, 1.0):
        for d in range(1, 5):
            assert tv.projective_space(d).grading == ((1,) * (d + 1),)
        F2 = tv.hirzebruch(2)
        raw = tv.build_variety(F2.fan)
        H_raw = il.row_hermite_normal_form(il.as_int_matrix(raw.grading))
        H_paper = il.row_hermite_normal_form(il.as_int_matrix(F2.grading))
        assert H_raw == H_paper  # same grading up to unimodular rows
        for row in il.matmul(il.as_int_matrix(F2.grading), il.as_int_matrix(F2.fan.rays)):
            assert not any(row)
        for v in product(range(-3, 4), repeat=2):
            assert F2.nef_member(v) == (v[0] >= 0 and v[1] >= 0)  # K = N^2


def test_criterion_2_hilbert_polynomials():
    with Budget(2, 5.0):
        for d in range(1, 5):
            X = tv.projective_space(d)
            assert hb.ring_hilbert_polynomial(X) == binomial_in_t(1, 0, d, d)
        F2 = tv.hirzebruch(2)
        assert hb.ring_hilbert_polynomial(F2) == parse_poly(
            "t1*t2 + t2^2 + t1 + 2*t2 + 1")
        for X in (tv.projective_space(3), F2):
            P = hb.ring_hilbert_polynomial(X)
            t0 = tv.find_point_dominating(
                X, [X.variable_degree(i) for i in range(X.n)])
            samples = []
            for combo in product(range(20), repeat=X.r):
                samples.append(tuple(
                    t0[j] + sum(combo[k] * X.nef_rays[k][j] for k in range(X.r))
                    for j in range(X.r)))
                if len(samples) == 20:
                    break
            assert len(samples) == 20
            for t in samples:
                assert P.evaluate(t) == mi.hilbert_function(
                    X, mi.MonomialIdeal.zero(X.n), t)


def test_criterion_3_doubled_plane_fixtures():
    with Budget(3, 1.0):
        P3 = tv.projective_space(3)
        first = (st.StanleyPair((0, 0, 0, 0), frozenset({0, 1, 2})),
                 st.StanleyPair((0, 0, 0, 1), frozenset({0, 1, 2})),
                 st.StanleyPair((0, 0, 0, 2), frozenset({3})))
        second = (st.StanleyPair((0, 0, 0, 0), frozenset({3})),
                  st.StanleyPair((0, 0, 1, 0), frozenset({2})),
                  st.StanleyPair((0, 0, 1, 1), frozenset({2})),
                  st.StanleyPair((0, 1, 0, 0), frozenset({1, 2})),
                  st.StanleyPair((0, 1, 0, 1), frozenset({1, 2})),
                  st.StanleyPair((1, 0, 0, 0), frozenset({0, 1, 2})),
                  st.StanleyPair((1, 0, 0, 1), frozenset({0, 1, 2})))
        assert st.verify_stanley(DPP_IDEAL, first, mode="filtration")
        assert st.verify_stanley(DPP_IDEAL, second, mode="filtration")
        three_terms = (binomial_in_t(1, 0, 2, 2) + binomial_in_t(1, 0, 1, 2)
                       + binomial_in_t(1, 0, -2, 0))
        seven_terms = (binomial_in_t(1, 0, 0, 0) + binomial_in_t(1, 0, -1, 0)
                       + binomial_in_t(1, 0, -2, 0) + binomial_in_t(1, 0, 0, 1)
                       + binomial_in_t(1, 0, -1, 1) + binomial_in_t(1, 0, 1, 2)
                       + binomial_in_t(1, 0, 0, 2))
        assert three_terms == seven_terms
        assert hb.quotient_hilbert_polynomial(P3, DPP_IDEAL) == three_terms
        bound = rg.reg_bound_from_filtration(P3, DPP_IDEAL, first)
        assert bound.generators == ((2,),)


def test_criterion_4_binary_tree_replay():
    with Budget(4, 1.0):
        I = mi.MonomialIdeal(4, [(2, 1, 0, 0), (1, 1, 1, 0), (0, 2, 1, 0),
                                 (2, 0, 0, 1), (1, 1, 0, 1), (0, 2, 0, 1)])
        pairs = st.filtration(st.stanley_decompose(I, st.replay_strategy([0, 1, 1, 0, 1])))
        assert pairs == (
            st.StanleyPair((0, 0, 0, 0), frozenset({2, 3})),
            st.StanleyPair((0, 1, 0, 0), frozenset({2, 3})),
            st.StanleyPair((0, 2, 0, 0), frozenset({1})),
            st.StanleyPair((1, 0, 0, 0), frozenset({2, 3})),
            st.StanleyPair((1, 1, 0, 0), frozenset({1})),
            st.StanleyPair((2, 0, 0, 0), frozenset({0, 2})))
        assert st.verify_stanley(I, pairs, mode="filtration")


def test_criterion_5_p2_enumeration_with_oracle():
    with Budget(5, 60.0):
        P2 = tv.projective_space(2)
        target = parse_poly("3*t+1")
        result = en.run_enumeration(P2, target)
        assert len(result.ideals) == 30
        assert result.gotzmann_number == 4
        fiber = mi.fiber_monomials(P2, (4,))
        assert len(fiber) == 15
        oracle = set()
        for pair in combinations(fiber, 2):
            sat = mi.b_saturate(mi.MonomialIdeal(3, pair), P2)
            if not sat.is_unit() and hb.quotient_hilbert_polynomial(P2, sat) == target:
                oracle.add(sat)
        assert {ideal for ideal, _ in result.ideals} == oracle


def test_criterion_6_product_fixtures():
    with Budget(6, 120.0):
        PP = tv.product_projective(2, 1)
        assert en.gotzmann_number(PP, parse_poly("3*t1+1", nvars=2)) == 4
        assert en.gotzmann_number(PP, parse_poly("2*t1+t2+1", nvars=2)) == 3
        assert en.gotzmann_number(PP, parse_poly("t1+2*t2+1", nvars=2)) == 3
        assert en.enumerate_saturated_ideals(PP, parse_poly("3*t2+1", nvars=2)) == []
        bound = rg.reg_bound_from_polynomial(PP, parse_poly("3*t1+1", nvars=2))
        assert bound.generators == ((3, 3),)


def test_criterion_7_standard_graded_suite():
    with Budget(7, 30.0):
        rep = gz.gotzmann_representation(parse_poly("3*t+1"))
        assert rep.length == 4
        ideal, _ = gz.lex_ideal(parse_poly("3*t+1"), 3)
        assert ideal == mi.MonomialIdeal(3, [(4, 0, 0), (3, 1, 0)])
        assert max(sum(g) for g in ideal.gens) == 4  # sharpness
        fixtures = ["3*t+1", "2*t+2", "t+1", "t+2", "1", "2", "5",
                    "1/2*t^2 + 3/2*t + 1", "t^2+2*t+1", "1/2*t^2 + 3/2*t + 2"]
        assert len(fixtures) == 10
        for text in fixtures:
            P = parse_poly(text, nvars=1)
            m = gz.gotzmann_representation(P).length
            reps = gz.enumerate_binomial_representations(P, max_m=m + 2)
            maximizers = [(q, u) for q, u in reps if len(q) == max(len(q) for q, _ in reps)]
            assert maximizers == [(gz.gotzmann_representation(P).q,
                                   tuple(range(m)))], text


def test_criterion_8_property_suites():
    with Budget(8, 120.0):
        rng = random.Random(2026)
        P2 = tv.projective_space(2)
        F2 = tv.hirzebruch(2)

        def random_ideal(X):
            gens = [tuple(rng.randint(0, 2) for _ in range(X.n))
                    for _ in range(rng.randint(1, 3))]
            return mi.MonomialIdeal(X.n, gens)

        # colon/add exactness of the Hilbert function (sequence on fibers)
        for case in range(200):
            X = P2 if case % 2 else F2
            I = random_ideal(X)
            m = tuple(rng.randint(0, 2) for _ in range(X.n))
            t = tuple(rng.randint(0, 3) for _ in range(X.r))
            dm = X.degree(m)
            assert mi.hilbert_function(X, I, t) == (
                mi.hilbert_function(X, I.plus(m), t)
                + mi.hilbert_function(X, I.colon(m),
                                      tuple(a - b for a, b in zip(t, dm))))

        # decomposition partition property
        for case in range(200):
            X = P2 if case % 2 else F2
            I = random_ideal(X)
            if I.is_unit():
                continue
            pairs = st.stanley_filtration(I)
            assert st.verify_stanley(I, pairs, mode="decomposition")

        # round trip through decomposition_to_ideal
        for case in range(200):
            X = P2 if case % 2 else F2
            I = random_ideal(X)
            if I.is_unit():
                continue
            pairs = st.stanley_filtration(I)
            assert st.decomposition_to_ideal(pairs, X.n) == I

        # b-saturation idempotence
        for case in range(200):
            X = P2 if case % 2 else F2
            I = random_ideal(X)
            if I.is_unit():
                continue
            sat = mi.b_saturate(I, X)
            if not sat.is_unit():
                assert mi.b_saturate(sat, X) == sat

        # H = P on the bound region for all 30 fixture ideals
        target = parse_poly("3*t+1")
        for ideal, witness in en.enumerate_saturated_ideals(P2, target):
            bound = rg.reg_bound_from_filtration(P2, ideal, witness)
            (k,) = bound.generators
            for step in range(1, 11):
                t = (k[0] + step,)
                assert mi.hilbert_function(P2, ideal, t) == target.evaluate(t)


def test_criterion_9_degree_sets():
    with Budget(9, 120.0):
        P1 = tv.projective_space(1)
        P2 = tv.projective_space(2)
        for X in (P1, P2):
            for text in ("1", "2", "t+1"):
                P = parse_poly(text, nvars=1)
                result = hs.degree_set(X, P, seed=11)
                assert result.converged
                assert hs.supportive_check(X, result, P)


def test_criterion_10_scope_statement():
    # Local cohomology is not computed anywhere in this package: the
    # regularity baselines are explicit assumptions, and the testable
    # consequences of regularity are covered by criteria 3 and 8
    # (Hilbert function equals Hilbert polynomial past the bound).
    with Budget(10, 1.0):
        import toricreg
        assert not hasattr(toricreg, "local_cohomology")
        assert rg.RegularityAssumption().label == "default-K"
