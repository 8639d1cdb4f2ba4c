"""Binomial representations, the maximal-length lemma, and lex ideals."""

import pytest

from toricreg import gotzmann as gz
from toricreg import ideals as mi
from toricreg import variety as tv
from toricreg.enumeration import gotzmann_number
from toricreg.errors import NotAHilbertPolynomial, NotRealizable
from toricreg.hilbert import quotient_hilbert_polynomial
from toricreg.multipoly import MultiPoly, parse_poly
from toricreg.stanley import verify_stanley

FIXTURES = [
    ("3*t+1", (1, 1, 1, 0)),
    ("2*t+2", (1, 1, 0)),
    ("t+1", (1,)),
    ("t+2", (1, 0)),
    ("1", (0,)),
    ("2", (0, 0)),
    ("5", (0, 0, 0, 0, 0)),
    ("1/2*t^2 + 3/2*t + 1", (2,)),
    ("t^2+2*t+1", (2, 2)),
    ("1/2*t^2 + 3/2*t + 2", (2, 0)),
]


def rep_polynomial(rep):
    """Re-sum P = sum_i binom(t + q_i - i, q_i) from a representation."""
    total = MultiPoly.zero(1)
    for i, qi in enumerate(rep.q):
        total = total + gz.binomial_piece(qi, i)
    return total


def test_representation_fixtures():
    for text, q in FIXTURES:
        P = parse_poly(text, nvars=1)
        rep = gz.gotzmann_representation(P)
        assert rep.q == q, text
        assert rep_polynomial(rep) == P  # greedy validity: re-summing reproduces P


def test_representation_rejections():
    for bad in ["t^2+1", "-t", "1/2*t", "2*t^2 - 10*t"]:
        with pytest.raises(NotAHilbertPolynomial):
            gz.gotzmann_representation(parse_poly(bad, nvars=1))
    with pytest.raises(NotAHilbertPolynomial):
        gz.gotzmann_representation(parse_poly("t1+t2", nvars=2))


def test_maximal_length_lemma_oracle():
    # the unique maximal-length expression has u_i = i-1
    for text, q in FIXTURES:
        P = parse_poly(text, nvars=1)
        reps = gz.enumerate_binomial_representations(P, max_m=len(q) + 2)
        best = max(len(qs) for qs, us in reps)
        assert best == len(q), text
        maximizers = [(qs, us) for qs, us in reps if len(qs) == best]
        assert maximizers == [(q, tuple(range(len(q))))], text


def test_specific_representation_lists():
    reps = gz.enumerate_binomial_representations(parse_poly("3*t+1"), 6)
    assert ((1, 1, 1), (0, 1, 1)) in reps  # (t+1) + t + t
    reps = gz.enumerate_binomial_representations(parse_poly("2*t+2"), 6)
    assert ((1, 1), (0, 0)) in reps        # (t+1) + (t+1)
    assert gz.enumerate_binomial_representations(parse_poly("1", nvars=1), 5) == [
        ((0,), (0,))]


def test_lex_ideal_fixtures():
    I, pairs = gz.lex_ideal(parse_poly("3*t+1"), 3)
    assert I == mi.MonomialIdeal(3, [(4, 0, 0), (3, 1, 0)])
    assert [(p.shift, sorted(p.face)) for p in pairs] == [
        ((0, 0, 0), [1, 2]), ((1, 0, 0), [1, 2]),
        ((2, 0, 0), [1, 2]), ((3, 0, 0), [2])]
    I, _ = gz.lex_ideal(parse_poly("2*t+2"), 3)
    assert I == mi.MonomialIdeal(3, [(3, 0, 0), (2, 1, 0)])
    I, pairs = gz.lex_ideal(parse_poly("1", nvars=1), 2)
    assert I == mi.MonomialIdeal(2, [(1, 0)])
    assert [(p.shift, sorted(p.face)) for p in pairs] == [((0, 0), [1])]
    # a plane plus a point in P^3, and a double plane
    I, _ = gz.lex_ideal(parse_poly("1/2*t^2 + 3/2*t + 2"), 4)
    assert I == mi.MonomialIdeal(4, [(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0)])
    I, _ = gz.lex_ideal(parse_poly("t^2+2*t+1"), 4)
    assert I == mi.MonomialIdeal(4, [(2, 0, 0, 0)])


def test_lex_ideal_validates():
    for text, n in [("3*t+1", 3), ("2*t+2", 3), ("2", 2), ("t^2+2*t+1", 4)]:
        P = parse_poly(text, nvars=1)
        I, pairs = gz.lex_ideal(P, n)
        X = tv.projective_space(n - 1)
        assert verify_stanley(I, pairs, mode="filtration")
        assert quotient_hilbert_polynomial(X, I) == P


def test_lex_ideal_not_realizable():
    with pytest.raises(NotRealizable):
        gz.lex_ideal(parse_poly("1/2*t^2 + 3/2*t + 1"), 3)


def test_sharpness_max_generator_degree_is_m():
    for text, n in [("3*t+1", 3), ("2*t+2", 3), ("t^2+2*t+1", 4),
                    ("1/2*t^2 + 3/2*t + 2", 4), ("5", 3)]:
        P = parse_poly(text, nvars=1)
        rep = gz.gotzmann_representation(P)
        I, pairs = gz.lex_ideal(P, n)
        assert max(sum(g) for g in I.gens) == rep.length
        assert len(pairs) == rep.length


def test_shift_degrees_bounded_by_m_minus_one():
    # end-to-end on the plane: every graded-order filtration of the 30
    # fixture ideals has maximal total shift degree m - 1 = 3
    from toricreg.enumeration import enumerate_saturated_ideals, graded_total_order
    from toricreg.stanley import nice_strategy, stanley_filtration
    P2 = tv.projective_space(2)
    P = parse_poly("3*t+1")
    m = gz.gotzmann_representation(P).length
    order = graded_total_order(P2)
    strategy = nice_strategy(order)
    ideals = enumerate_saturated_ideals(P2, P)
    assert len(ideals) == 30
    for ideal, witness in ideals:
        for pairs in (witness, stanley_filtration(ideal, strategy)):
            assert max(sum(p.shift) for p in pairs) <= m - 1, (ideal, pairs)


def test_specialization_consistency_with_enumeration():
    # on projective space the enumeration's Gotzmann number equals the
    # representation length
    cases = [("3*t+1", 2, 4), ("t+1", 2, 1), ("2*t+2", 2, 3), ("1", 2, 1), ("3", 2, 3),
             ("2", 1, 2), ("t+1", 3, 1), ("t^2+2*t+1", 3, 2)]
    for text, d, m in cases:
        P = parse_poly(text, nvars=1)
        X = tv.projective_space(d)
        assert gotzmann_number(X, P) == gz.gotzmann_representation(P).length == m, text
