"""Polynomials in t1..tr with exact rational coefficients.

Terms are stored sparsely as {exponent tuple: Fraction}.  Every Hilbert
polynomial in this package lives here, so all arithmetic is exact; floats
never appear.
"""

import re
from fractions import Fraction
from itertools import product
from math import factorial
from operator import index

from .errors import ParseError, ZeroPolynomial


def glex_key(expo):
    """The sort key of the graded lexicographic order t1 > t2 > ... > tr:
    total degree first, then the exponents from t1 on.  A reordered
    grading (variety.with_grading) gives the order with the variables
    reordered."""
    return (sum(expo),) + tuple(expo)


class MultiPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        for expo, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff != 0:
                expo = tuple(map(index, expo))
                if len(expo) != nvars or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent {expo} for {nvars} variables")
                clean[expo] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars, i):
        expo = [0] * nvars
        expo[i] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, Fraction(0)) + coeff
        return MultiPoly(self.nvars, terms)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = MultiPoly.constant(self.nvars, 1)
        for _ in range(int(k)):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.constant(self.nvars, other)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def evaluate(self, point):
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            val = coeff
            for p, e in zip(point, expo):
                if e:
                    val *= Fraction(p) ** e
            total += val
        return total

    def shift(self, v):
        """Return P(t - v) for an integer vector v."""
        n = self.nvars
        return self._substitute([MultiPoly.variable(n, i) - v[i] for i in range(n)])

    def compose_linear(self, matrix):
        """Return P(M t): substitute t_i <- sum_j M[i][j] * t_j."""
        n = self.nvars
        return self._substitute([
            sum((MultiPoly.variable(n, j) * int(matrix[i][j]) for j in range(n)), MultiPoly.zero(n))
            for i in range(n)])

    def _substitute(self, forms):
        """P with each t_i replaced by the polynomial forms[i], expanded."""
        out = MultiPoly.zero(self.nvars)
        for expo, coeff in self.terms.items():
            term = MultiPoly.constant(self.nvars, coeff)
            for form, e in zip(forms, expo):
                if e:
                    term = term * form ** e
            out = out + term
        return out

    def leading_term(self):
        """The glex-largest (exponent, coefficient); raises on the zero polynomial."""
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        expo = max(self.terms, key=glex_key)
        return expo, self.terms[expo]

    def leading_coeff(self):
        return self.leading_term()[1]

    def integer_valued(self):
        """Whether P takes integer values on integer points (checked exactly).

        A polynomial of total degree D is integer-valued iff it is integer
        on the box grid {0..D}^r, which is what we test.
        """
        d = max(self.total_degree(), 0)
        return all(self.evaluate(p).denominator == 1
                   for p in product(range(d + 1), repeat=self.nvars))

    def __repr__(self):
        return f"MultiPoly({format_poly(self)!r})"


def binomial_in_t(nvars, index, top_shift, q):
    """The polynomial binom(t_index + top_shift, q) as a MultiPoly."""
    t = MultiPoly.variable(nvars, index)
    out = MultiPoly.constant(nvars, 1)
    for k in range(q):
        out = out * (t + (top_shift - k))
    return out * Fraction(1, factorial(q))


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>t\d*)|(?P<op>\*\*|[-+*^]))")


def parse_poly(text, nvars=None):
    """Parse text like '3*t1*t2 + 1/2*t2^2 - t1 + 1' into a MultiPoly.

    For one variable the name 't' is accepted; 't3' means the third
    variable.  nvars is inferred from the largest index when omitted.
    A bare 't' with several variables, the index 0 and parentheses raise
    ParseError: the text is a sum of products, written out.
    """
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

    # Split into signed additive chunks, then parse each chunk as a product.
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

    terms = {}
    for sign, chunk in chunks:
        expo, coeff = _parse_product(chunk, nvars)
        total = terms.get(expo, 0) + sign * coeff
        if total:
            terms[expo] = total
        else:  # a term that cancels leaves the sum, as in MultiPoly addition
            terms.pop(expo, None)
    return MultiPoly(nvars, terms)


def _parse_product(tokens, nvars):
    """One product of numbers and variables, each with an optional
    integer power, as its (exponent tuple, Fraction coefficient)."""
    expo = [0] * nvars
    coeff = Fraction(1)
    empty = True
    i = 0
    while i < len(tokens):
        kind, val = tokens[i]
        if kind == "op" and val == "*":
            i += 1
            continue
        if kind == "num":
            try:
                base = Fraction(val)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {val!r}") from None
        elif kind != "var":
            raise ParseError(f"unexpected token {val!r} in term")
        i += 1
        power = 1
        if i + 1 < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in ("^", "**"):
            if tokens[i + 1][0] != "num" or "/" in tokens[i + 1][1]:
                raise ParseError("exponent must be an integer")
            power = int(tokens[i + 1][1])
            i += 2
        if kind == "num":
            coeff *= base ** power
        else:
            expo[0 if val == "t" else int(val[1:]) - 1] += power
        empty = False
    if empty:
        raise ParseError("empty term")
    return tuple(expo), coeff


def format_poly(P):
    """Canonical text form, terms in decreasing graded lex order."""
    if P.is_zero():
        return "0"
    names = ["t"] if P.nvars == 1 else [f"t{i+1}" for i in range(P.nvars)]
    parts = []
    for expo in sorted(P.terms, key=glex_key, reverse=True):
        coeff = P.terms[expo]
        mono = "*".join(
            names[i] if e == 1 else f"{names[i]}^{e}"
            for i, e in enumerate(expo) if e
        )
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        parts.append(("-" if coeff < 0 else "+", body))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text
