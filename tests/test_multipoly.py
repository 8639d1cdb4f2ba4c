"""Exact polynomial arithmetic, orders, parsing and printing."""

import random
from fractions import Fraction

import pytest

from toricreg.errors import ParseError, ZeroPolynomial
from toricreg.multipoly import (
    MultiPoly,
    binomial_in_t,
    format_poly,
    parse_poly,
)


def test_parse_and_format_round_trip():
    fixtures = [
        "3*t + 1",
        "t1*t2 + t2^2 + t1 + 2*t2 + 1",
        "3*t1*t2 + 1/2*t2^2 - t1 + 1",
        "1/2*t^2 + 3/2*t + 1",
        "-t1 + 1",
        "0",
        "7",
    ]
    for text in fixtures:
        P = parse_poly(text) if text != "0" else MultiPoly.zero(2)
        assert parse_poly(format_poly(P)) == P or P.is_zero()
        assert format_poly(parse_poly(format_poly(P))) == format_poly(P)


def test_parse_errors():
    for bad in ["", "x1+1", "t1^^2", "t1^(1/2)", "t0+1", "t00", "t + t2", "t+1/0"]:
        with pytest.raises(ParseError):
            parse_poly(bad)
    # t0 would alias the last variable, a bare t the first
    for bad in ["t0+1", "3*t+1", "t1*t + 1"]:
        with pytest.raises(ParseError):
            parse_poly(bad, nvars=2)
    assert parse_poly("3*t+1", nvars=1) == parse_poly("3*t1+1", nvars=1)


@pytest.mark.parametrize("text", ["(t+1)", "2*(t)", "(t)", "(t+1", "t+1)"])
def test_parentheses_are_rejected_by_the_tokenizer(text):
    # the grammar is a sum of products with no grouping: every
    # parenthesis, balanced or not, is one error before any parsing
    with pytest.raises(ParseError, match="parentheses are not supported"):
        parse_poly(text)


def test_random_round_trip():
    rng = random.Random(4)
    for _ in range(150):
        r = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, 3) for _ in range(r))
            terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        P = MultiPoly(r, terms)
        if P.is_zero():
            continue
        assert parse_poly(format_poly(P), nvars=r) == P


def test_leading_terms_under_orders():
    # glex with t1 > t2; the other order is glex on the swapped variables,
    # whose leading term is the swap of the one t2 > t1 picks
    Q = parse_poly("t1*t2 + t2^2 + t1 + 2*t2 + 1")
    assert Q.leading_term() == ((1, 1), 1)
    assert Q.compose_linear(((0, 1), (1, 0))).leading_term() == ((2, 0), 1)
    P = parse_poly("3*t + 1")
    assert P.leading_term() == ((1,), 3)
    assert P.leading_coeff() > 0
    with pytest.raises(ZeroPolynomial):
        MultiPoly.zero(1).leading_term()


def test_shift_and_compose():
    P = parse_poly("3*t + 1")
    assert format_poly(P.shift((2,))) == "3*t - 5"
    # shifting is evaluation-compatible
    rng = random.Random(5)
    for _ in range(100):
        r = rng.randint(1, 3)
        terms = {tuple(rng.randint(0, 2) for _ in range(r)): rng.randint(-4, 4)
                 for _ in range(3)}
        P = MultiPoly(r, terms)
        v = tuple(rng.randint(-3, 3) for _ in range(r))
        p = tuple(rng.randint(-4, 4) for _ in range(r))
        assert P.shift(v).evaluate(p) == P.evaluate(tuple(a - b for a, b in zip(p, v)))
        M = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
        Mp = tuple(sum(M[i][j] * p[j] for j in range(r)) for i in range(r))
        assert P.compose_linear(M).evaluate(p) == P.evaluate(Mp)


def test_binomial_in_t():
    B = binomial_in_t(1, 0, 2, 2)
    assert B == parse_poly("1/2*t^2 + 3/2*t + 1")
    from math import comb
    for t in range(10):
        assert B.evaluate((t,)) == comb(t + 2, 2)
    assert binomial_in_t(1, 0, 0, 0) == parse_poly("1", nvars=1)


def test_integer_valued():
    assert parse_poly("1/2*t^2 + 3/2*t + 1").integer_valued()
    assert not parse_poly("1/2*t").integer_valued()
    assert parse_poly("1/2*t1*t2 + 1/2*t1", nvars=2).integer_valued() is False


def test_total_degree_and_arith():
    P = parse_poly("t1^2*t2 - t1", nvars=2)
    assert P.total_degree() == 3
    assert (P - P).is_zero()
    assert (P * 0).is_zero()
    assert (P + 1).evaluate((1, 1)) == 1
    assert (P * P).total_degree() == 6
