"""Exact monomial-ideal arithmetic in the Cox ring.

Monomials are exponent tuples in N^n.  Ideals keep their minimal
generating set at all times, so equality is tuple comparison and the
colon/add recursion elsewhere can rely on strict growth.
"""

from operator import index

from .errors import FiberTooLarge, UnitIdeal


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def total_degree(m):
    return sum(m)


def minimalize(gens):
    """Drop generators divisible by another generator; sorted, deduped.

    A proper divisor is lex-smaller than its multiples, so one pass in
    lex order keeps exactly the generators no kept one divides.
    Exponents must be integers (int, bool or numpy integers): anything
    else, such as 1.5, raises ValueError rather than being truncated.
    """
    try:
        gens = sorted(set(tuple(map(index, g)) for g in gens))
    except TypeError as exc:
        raise ValueError(f"exponents must be integers: {exc}") from None
    out = []
    for g in gens:
        if not any(divides(h, g) for h in out):
            out.append(g)
    return tuple(out)


class MonomialIdeal:
    """A monomial ideal given by its minimal generators."""

    __slots__ = ("n", "gens")

    def __init__(self, n, generators=()):
        self.n = n
        self.gens = minimalize(generators)
        for g in self.gens:
            if len(g) != n or any(e < 0 for e in g):
                raise ValueError(f"bad exponent vector {g}")

    @classmethod
    def zero(cls, n):
        return cls(n, ())

    @classmethod
    def unit(cls, n):
        return cls(n, ((0,) * n,))

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return self.gens == ((0,) * self.n,)

    def is_prime(self):
        """Prime monomial ideals are generated by a subset of the variables."""
        return all(total_degree(g) == 1 for g in self.gens)

    def support_variables(self):
        """Indices of variables generating the ideal, when prime."""
        return frozenset(i for g in self.gens for i in range(self.n) if g[i])

    def contains(self, m):
        return any(divides(g, m) for g in self.gens)

    def colon(self, m):
        """(I : x^m), again minimally generated."""
        return MonomialIdeal(
            self.n, [tuple(max(g[i] - m[i], 0) for i in range(self.n)) for g in self.gens])

    def plus(self, m):
        """I + <x^m>."""
        return MonomialIdeal(self.n, self.gens + (tuple(m),))

    def intersect(self, other):
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.n)
        return MonomialIdeal(
            self.n, [monomial_lcm(g, h) for g in self.gens for h in other.gens])

    def saturate_variable(self, i):
        """(I : x_i^infinity): zero out the i-th exponent everywhere."""
        return MonomialIdeal(
            self.n, [tuple(0 if j == i else e for j, e in enumerate(g)) for g in self.gens])

    def saturate_monomial(self, m):
        """(I : (x^m)^infinity): zero out all exponents in supp(m)."""
        supp = {i for i, e in enumerate(m) if e}
        return MonomialIdeal(
            self.n, [tuple(0 if j in supp else e for j, e in enumerate(g)) for g in self.gens])

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and self.gens == other.gens

    def __hash__(self):
        return hash((self.n, self.gens))

    def __lt__(self, other):
        return self.gens < other.gens

    def __repr__(self):
        return f"MonomialIdeal({format_ideal(self)})"


def colon_by_monomial(I, m):
    return I.colon(m)


def add_monomial(I, m):
    return I.plus(m)


class IrreducibleComponent:
    """<x_i^{e_i} : i in support>, stored as the partial map i -> e_i >= 1."""

    __slots__ = ("n", "exponents")

    def __init__(self, n, exponents):
        self.n = n
        self.exponents = dict(sorted((int(i), int(e)) for i, e in exponents.items()))
        if not all(e >= 1 for e in self.exponents.values()):
            raise ValueError(f"irreducible component exponents must be >= 1: {exponents}")

    @property
    def support(self):
        """The set sigma^ of the associated prime P_sigma."""
        return frozenset(self.exponents)

    def as_ideal(self):
        gens = []
        for i, e in self.exponents.items():
            g = [0] * self.n
            g[i] = e
            gens.append(tuple(g))
        return MonomialIdeal(self.n, gens)

    def __eq__(self, other):
        return self.n == other.n and self.exponents == other.exponents

    def __hash__(self):
        return hash((self.n, tuple(self.exponents.items())))

    def __repr__(self):
        return f"IrreducibleComponent({self.exponents})"


def irreducible_decomposition(I):
    """Irredundant irreducible components of a proper monomial ideal.

    Splits any generator with two or more variables in its support
    (standard Alexander-duality style recursion), then discards
    components containing the intersection of the others.
    """
    if I.is_unit():
        raise UnitIdeal("the unit ideal has no decomposition")

    def split(J):
        target = next((g for g in J.gens if sum(1 for e in g if e) >= 2), None)
        if target is None:
            # every generator is a pure power x_i^{e_i}
            exps = {}
            for g in J.gens:
                i = next(j for j, e in enumerate(g) if e)
                exps[i] = g[i]
            return {IrreducibleComponent(J.n, exps)}
        i = next(j for j, e in enumerate(target) if e)
        pure = tuple(target[j] if j == i else 0 for j in range(J.n))
        rest = tuple(0 if j == i else target[j] for j in range(J.n))
        return split(J.plus(pure)) | split(J.plus(rest))

    return _irredundant(I, split(I))


def _irredundant(I, components):
    comps = sorted(components, key=lambda c: sorted(c.exponents.items()))
    keep = list(comps)
    changed = True
    while changed:
        changed = False
        for c in list(keep):
            others = [k for k in keep if k is not c]
            if not others:
                continue
            inter = others[0].as_ideal()
            for o in others[1:]:
                inter = inter.intersect(o.as_ideal())
            if all(c.as_ideal().contains(g) for g in inter.gens):
                keep = others
                changed = True
                break
    return tuple(keep)


def b_saturate(I, X):
    """(I : B^infinity): keep components supported on faces of the fan.

    Returns the unit ideal when no component survives, which says S/I is
    B-torsion.
    """
    if I.is_unit():
        raise UnitIdeal("cannot saturate the unit ideal")
    if I.is_zero():
        return I
    kept = [c for c in irreducible_decomposition(I) if c.support in X.delta]
    if not kept:
        return MonomialIdeal.unit(I.n)
    out = kept[0].as_ideal()
    for c in kept[1:]:
        out = out.intersect(c.as_ideal())
    return out


def is_b_saturated(I, X):
    return b_saturate(I, X) == I


def b_saturate_classical(I, X):
    """Independent route: intersect (I : m^infinity) over the minimal
    generators m of the irrelevant ideal."""
    if I.is_unit():
        raise UnitIdeal("cannot saturate the unit ideal")
    out = None
    for m in X.irrelevant_generators():
        part = I.saturate_monomial(m)
        out = part if out is None else out.intersect(part)
    return out


# -- degree fibers and Hilbert functions --------------------------------


def fiber_monomials(X, t, support=None, cap=10_000_000):
    """All u in N^n with A.u == t (restricted to the given variable set).

    The fiber is finite because some functional w has w . a_i > 0 for
    every i; the per-variable bound u_i <= (w.t)/(w.a_i) prunes the
    search.  Raises FiberTooLarge past the cap.
    """
    t = tuple(int(x) for x in t)
    indices = sorted(support) if support is not None else list(range(X.n))
    w = X.positive_w
    wt = sum(a * b for a, b in zip(w, t))
    if wt < 0:
        return []
    degs = {i: X.variable_degree(i) for i in indices}
    wdeg = {i: sum(a * b for a, b in zip(w, degs[i])) for i in indices}
    out = []

    def rec(pos, residual, wres, acc):
        if pos == len(indices):
            if all(x == 0 for x in residual):
                out.append(tuple(acc))
                if len(out) > cap:
                    raise FiberTooLarge(f"degree fiber exceeds {cap} monomials")
            return
        i = indices[pos]
        d = degs[i]
        for k in range(wres // wdeg[i] + 1):
            acc[i] = k
            rec(pos + 1,
                tuple(residual[j] - k * d[j] for j in range(X.r)),
                wres - k * wdeg[i], acc)
        acc[i] = 0

    rec(0, t, wt, [0] * X.n)
    return sorted(out)


def hilbert_function(X, I, t, cap=10_000_000):
    """dim_k (S/I)_t: count fiber monomials outside I."""
    fiber = fiber_monomials(X, t, cap=cap)
    return sum(1 for u in fiber if not I.contains(u))


def degree_of(X, m):
    return X.degree(m)


# -- text rendering ------------------------------------------------------


def format_monomial(m):
    if not any(m):
        return "1"
    return "*".join(
        f"x{i+1}" if e == 1 else f"x{i+1}^{e}" for i, e in enumerate(m) if e)


def format_ideal(I):
    if I.is_zero():
        return "<0>"
    return "<" + ", ".join(format_monomial(g) for g in I.gens) + ">"


def parse_monomial(text, n):
    """Parse 'x1^2*x2' (or '1') into an exponent tuple of length n."""
    from .errors import ParseError
    import re
    text = text.strip()
    if text in ("1", ""):
        return (0,) * n
    expo = [0] * n
    for factor in text.split("*"):
        m = re.fullmatch(r"\s*x(\d+)(?:\^(\d+))?\s*", factor)
        if not m:
            raise ParseError(f"cannot parse monomial factor {factor!r}")
        i = int(m.group(1)) - 1
        if not 0 <= i < n:
            raise ParseError(f"variable x{i+1} out of range for {n} variables")
        expo[i] += int(m.group(2) or 1)
    return tuple(expo)


def parse_ideal(text, n):
    """Comma-separated monomials, e.g. 'x1^2*x2, x2*x3'."""
    text = text.strip()
    if text in ("0", "<0>"):
        return MonomialIdeal.zero(n)
    text = text.strip("<>")
    gens = [parse_monomial(part, n) for part in text.split(",") if part.strip()]
    return MonomialIdeal(n, gens)
