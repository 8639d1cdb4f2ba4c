"""Exact polynomial arithmetic, orders, parsing and printing."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as gen

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


# -- the parser against MultiPoly arithmetic ----------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>t\d*)|(?P<op>\*\*|[-+*^]))")


def _parse_by_arithmetic(text, nvars=None):
    """parse_poly as it stood when each factor was a MultiPoly: products
    and sums by MultiPoly arithmetic, the same tokens and errors."""
    if "(" in text or ")" in text:
        raise ParseError("parentheses are not supported; write the polynomial expanded")
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"cannot parse polynomial near {text[pos:]!r}")
            break
        pos = m.end()
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
    if not tokens:
        raise ParseError("empty polynomial")

    names = {val for kind, val in tokens if kind == "var"}
    indices = {int(val[1:]) for val in names - {"t"}}
    if 0 in indices:
        raise ParseError("variables are numbered from t1")
    max_index = max(indices, default=1)
    if nvars is None:
        nvars = max_index
    if max_index > nvars:
        raise ParseError(f"variable t{max_index} exceeds {nvars} variables")
    if "t" in names and nvars != 1:
        raise ParseError(f"'t' is ambiguous with {nvars} variables; write t1..t{nvars}")

    chunks = []
    sign = 1
    current = []
    for kind, val in tokens:
        if kind == "op" and val in "+-" and not current:
            sign = sign * (-1 if val == "-" else 1)
        elif kind == "op" and val in "+-":
            chunks.append((sign, current))
            sign = -1 if val == "-" else 1
            current = []
        else:
            current.append((kind, val))
    if current:
        chunks.append((sign, current))

    poly = MultiPoly.zero(nvars)
    for sign, chunk in chunks:
        poly = poly + _product_by_arithmetic(chunk, nvars) * sign
    return poly


def _product_by_arithmetic(tokens, nvars):
    factors = []
    i = 0
    while i < len(tokens):
        kind, val = tokens[i]
        if kind == "op" and val == "*":
            i += 1
            continue
        if kind == "num":
            try:
                coeff = Fraction(val)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {val!r}") from None
            factor = MultiPoly.constant(nvars, coeff)
        elif kind == "var":
            factor = MultiPoly.variable(nvars, 0 if val == "t" else int(val[1:]) - 1)
        else:
            raise ParseError(f"unexpected token {val!r} in term")
        i += 1
        if i + 1 < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in ("^", "**"):
            if tokens[i + 1][0] != "num" or "/" in tokens[i + 1][1]:
                raise ParseError("exponent must be an integer")
            factor = factor ** int(tokens[i + 1][1])
            i += 2
        factors.append(factor)
    if not factors:
        raise ParseError("empty term")
    out = MultiPoly.constant(nvars, 1)
    for f in factors:
        out = out * f
    return out


def _parse_outcome(parse, text, nvars):
    """The variable count and terms, in order, or the error text."""
    try:
        P = parse(text, nvars=nvars)
    except ParseError as exc:
        return str(exc)
    return P.nvars, list(P.terms.items())


_NUMBERS = ("0", "1", "2", "3", "12", "1/2", "3/4", "2/6", "1/0", "0/3")
_VARIABLES = ("t", "t1", "t2", "t3", "t0", "t10")
_OPS = ("+", "-", "*", "^", "**")


@gen.composite
def poly_texts(draw):
    """Sums of signed products of numbers and variables with powers, or
    loose token strings, with stray spaces and the odd bad character."""
    space = gen.sampled_from(("", "", " ", "  "))
    if draw(gen.booleans()):
        parts = []
        for _ in range(draw(gen.integers(1, 5))):
            parts.append(draw(gen.sampled_from(("+", "-", "", "- -", "+-"))))
            for k in range(draw(gen.integers(1, 4))):
                if k:
                    parts.append(draw(gen.sampled_from(("*", "*", "", "**"))))
                parts.append(draw(gen.sampled_from(_NUMBERS + _VARIABLES)))
                if draw(gen.integers(0, 3)) == 0:
                    parts.append(draw(gen.sampled_from(("^", "**"))))
                    parts.append(draw(gen.sampled_from(("0", "1", "2", "3", "1/2", "t"))))
    else:
        pool = _NUMBERS + _VARIABLES + _OPS + ("x", "(", ")", "")
        parts = draw(gen.lists(gen.sampled_from(pool), max_size=10))
    return "".join(draw(space) + part for part in parts) + draw(space)


@given(poly_texts(), gen.sampled_from((None, 1, 2, 3)))
def test_parse_matches_multipoly_arithmetic(text, nvars):
    assert _parse_outcome(parse_poly, text, nvars) == \
        _parse_outcome(_parse_by_arithmetic, text, nvars), text


def test_parse_keeps_the_order_of_cancelled_terms():
    # a term that cancels leaves the sum, so it comes back last
    for text in ("t - t + 1 + t", "t^2 + 0*t + t - t + 1", "2*t1*t2 - t2*t1 - t1*t2 + t2 + t1*t2"):
        P = parse_poly(text)
        assert list(P.terms.items()) == list(_parse_by_arithmetic(text).terms.items())
    assert list(parse_poly("t - t + 1 + t").terms) == [(0,), (1,)]
