"""Standard-graded specialization: binomial representations of Hilbert
polynomials, Gotzmann numbers, and saturated lexicographic ideals in
Reeves-Stillman form together with their Stanley filtrations.

Univariate polynomials here reuse MultiPoly with one variable; binomial
coefficients binom(t + q - s, q) expand exactly over the rationals.
"""

from typing import NamedTuple

from .errors import NotAHilbertPolynomial, NotRealizable
from .hilbert import quotient_hilbert_polynomial
from .multipoly import binomial_in_t
from .stanley import StanleyPair, _step_chain
from .variety import projective_space


def binomial_piece(q, shift):
    """binom(t + q - shift, q) as a univariate polynomial."""
    return binomial_in_t(1, 0, q - shift, q)


class GotzmannRep(NamedTuple):
    """P = sum_i binom(t + q_i - (i-1), q_i) with q weakly decreasing.

    The length of q is the Gotzmann number of P in the standard graded
    case.
    """

    q: tuple

    @property
    def length(self):
        return len(self.q)


def _check_univariate(P):
    if P.nvars != 1:
        raise NotAHilbertPolynomial("expected a univariate polynomial")
    if P.is_zero():
        raise NotAHilbertPolynomial("the zero polynomial has no representation")
    if P.leading_coeff() <= 0:
        raise NotAHilbertPolynomial("leading coefficient must be positive")
    if not P.integer_valued():
        raise NotAHilbertPolynomial("polynomial is not integer-valued")


def gotzmann_representation(P):
    """Greedy peeling: q_i is the degree of the residual at step i.

    Fails (NotAHilbertPolynomial) when a residual acquires a negative
    leading coefficient or the degrees stop decreasing weakly.
    """
    _check_univariate(P)
    residual = P
    qs = []
    while not residual.is_zero():
        if residual.leading_coeff() <= 0:
            raise NotAHilbertPolynomial(
                "residual with nonpositive leading coefficient")
        q = residual.total_degree()
        if qs and q > qs[-1]:
            raise NotAHilbertPolynomial("degree sequence is not weakly decreasing")
        residual = residual - binomial_piece(q, len(qs))
        qs.append(q)
    return GotzmannRep(tuple(qs))


def enumerate_binomial_representations(P, max_m):
    """All expressions P = sum binom(t + q_i - u_i, q_i) with q weakly
    decreasing and 0 <= u_i <= i-1, up to max_m summands.

    Brute-force oracle: the next q is forced to be the residual degree,
    so only the shifts u_i branch.  A piece with q_i = 0 equals 1 for
    every shift, so those u_i are normalized to their maximum i-1;
    distinct results are genuinely distinct as sums of polynomials.
    Returns (q, u) tuples.
    """
    _check_univariate(P)
    results = []

    def rec(residual, index, qs, us):
        if residual.is_zero():
            results.append((tuple(qs), tuple(us)))
            return
        if index > max_m:
            return
        if residual.leading_coeff() <= 0:
            return
        q = residual.total_degree()
        if qs and q > qs[-1]:
            return
        shifts = range(index) if q > 0 else (index - 1,)
        for u in shifts:
            rec(residual - binomial_piece(q, u), index + 1, qs + [q], us + [u])

    rec(P, 1, [], [])
    del rec  # rec refers to itself: break the reference cycle
    return results


def lex_ideal(P, n):
    """The saturated lexicographic ideal with Hilbert polynomial P in n
    variables, plus the Stanley filtration its Reeves-Stillman shape
    carries.

    The level data (ell, b_1..b_ell) is read off the multiplicities of
    the values in the q-sequence.  The ideal is the one the pairs filter,
    from the forward chain of filtration steps, which fails unless they
    are a Stanley filtration; the result is verified against P rather
    than trusted.
    """
    rep = gotzmann_representation(P)
    q = rep.q
    ell = q[0] + 1
    if q[0] > n - 2:
        raise NotRealizable(
            f"needs q1 <= {n - 2} for a proper subscheme of P^{n - 1}")
    multiplicity = [sum(1 for x in q if x == ell - j) for j in range(1, ell + 1)]

    pairs = []
    prefix = [0] * n
    for j in range(1, ell + 1):
        face = frozenset(range(n - ell + j - 1, n))
        spin = n - ell + j - 2
        for i in range(multiplicity[j - 1]):
            shift = list(prefix)
            shift[spin] += i
            pairs.append(StanleyPair(tuple(shift), face))
        prefix[spin] += multiplicity[j - 1]
    pairs = tuple(pairs)

    failed, ideal = _step_chain(pairs, n)  # pairs built above: no validation
    if failed is not None:
        raise NotRealizable("constructed pairs are not a Stanley filtration")
    if quotient_hilbert_polynomial(projective_space(n - 1), ideal) != P:
        raise NotRealizable("constructed ideal has the wrong Hilbert polynomial")
    return ideal, pairs
