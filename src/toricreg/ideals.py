"""Exact monomial-ideal arithmetic in the Cox ring.

Monomials are exponent tuples in N^n.  Ideals keep their minimal
generating set at all times, so equality is tuple comparison and the
colon/add recursion elsewhere can rely on strict growth.  An
irreducible monomial ideal m^a = <x_i^{a_i} : a_i > 0> is its exponent
tuple a in N^n (Miller-Sturmfels, ch. 5); the all-zero tuple is the
zero ideal.  Decompositions meet the generators one at a time, and
B-saturation drops off-fan components at each step (proofs there).
"""

import re
from bisect import insort
from operator import index, le, sub

from . import intlinalg as il
from .errors import FiberTooLarge, ParseError, UnitIdeal


def divides(a, b):
    return all(map(le, a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def minimalize(gens):
    """Drop generators divisible by another generator; sorted, deduped.

    A proper divisor is lex-smaller than its multiples, so one pass in
    lex order keeps exactly the generators no kept one divides.
    Exponents must be integers (int, bool or any type that defines
    __index__): anything else, such as 1.5, raises ValueError rather
    than being truncated.
    """
    try:
        gens = set(tuple(map(index, g)) for g in gens)
    except TypeError as exc:
        raise ValueError(f"exponents must be integers: {exc}") from None
    return minimal_generators(gens)


def minimal_generators(gens):
    """The lex-sorted minimal elements of a set of integer exponent tuples."""
    out = []
    for g in sorted(gens):
        if not any(all(map(le, h, g)) for h in out):  # no kept h divides g
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
    def from_minimal(cls, n, gens):
        """The ideal of generators already known to be minimal, given as
        sorted tuples of n nonnegative ints: no re-validation."""
        out = object.__new__(cls)
        out.n = n
        out.gens = tuple(gens)
        return out

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
        return all(sum(g) == 1 for g in self.gens)

    def support_variables(self):
        """Indices of variables generating the ideal, when prime."""
        return frozenset(i for g in self.gens for i in range(self.n) if g[i])

    def contains(self, m):
        return any(divides(g, m) for g in self.gens)

    def colon(self, m):
        """(I : x^m), again minimally generated.

        Lowered by a tuple of ints, the generators stay int tuples and
        only their minimal ones are kept; any other m goes through the
        constructor, which converts the lowered tuples or raises
        ValueError."""
        n = self.n
        lowered = [tuple(max(g[i] - m[i], 0) for i in range(n)) for g in self.gens]
        if not all(type(e) is int for e in m):
            return MonomialIdeal(n, lowered)
        return MonomialIdeal.from_minimal(n, minimal_generators(set(lowered)))

    def plus(self, m):
        """I + <x^m>: I itself when x^m lies in I, else x^m and the
        generators it does not divide.  No generator divides x^m then,
        so these are minimal.  Anything but n nonnegative ints goes
        through the constructor, which converts it or raises ValueError."""
        m = tuple(m)
        if len(m) != self.n or not all(type(e) is int and e >= 0 for e in m):
            return MonomialIdeal(self.n, self.gens + (m,))
        kept = []
        for g in self.gens:
            if all(map(le, g, m)):  # g divides m: x^m lies in I
                return self
            if not all(map(le, m, g)):
                kept.append(g)
        insort(kept, m)
        return MonomialIdeal.from_minimal(self.n, kept)

    def intersect_irreducible(self, a):
        """I meet C = <x_i^{a_i} : a_i > 0>, the irreducible ideal with
        exponent tuple a; the all-zero tuple is the zero ideal.

        A generator g already in C (g_i >= a_i for some i with a_i > 0)
        stays; any other gives g with g_i raised to a_i, for each such i.
        No raised monomial h divides a kept generator k: g | h | k with
        g != k would make g redundant in I.  So the kept generators stay
        minimal, and only the raised ones are minimalized, among
        themselves and against the kept ones.
        """
        support = [(i, e) for i, e in enumerate(a) if e]
        kept, raised = [], set()
        for g in self.gens:
            if any(g[i] >= e for i, e in support):
                kept.append(g)
            else:
                raised.update(g[:i] + (e,) + g[i + 1:] for i, e in support)
        fresh = [h for h in minimal_generators(raised)
                 if not any(divides(k, h) for k in kept)]
        return MonomialIdeal.from_minimal(self.n, sorted(kept + fresh))

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


def component_contains(a, b):
    """Whether m^a contains m^b: 0 < a_i <= b_i wherever b_i > 0, so
    supp b lies in supp a.  Every m^a contains the zero ideal b = 0."""
    return all(0 < x <= y for x, y in zip(a, b) if y)


def on_fan(a, delta):
    """Whether supp a is a face of delta (ToricVariety.delta)."""
    return frozenset(i for i, e in enumerate(a) if e) in delta


def reduce_components(components):
    """The sorted components that contain no other one.  An irreducible Q
    is meet-prime among monomial ideals (m in J, m' in K, neither in Q:
    lcm(m, m') is in J meet K, not in Q), so Q contains the meet of the
    others exactly when it contains one of them."""
    comps = set(components)
    return tuple(sorted(a for a in comps
                        if not any(b != a and component_contains(a, b) for b in comps)))


def irreducible_decomposition(I):
    """Irredundant irreducible components of a proper monomial ideal, as
    the sorted tuple of their exponent tuples.

    The generators are met one at a time, from the zero ideal (the one
    component 0).  Monomial ideals form a distributive lattice, so
    (meet of the C) + <x^g> is the meet of the C + <x^g>, and each of
    these the meet over i in supp g of C + <x_i^{g_i}>.  A C containing
    x^g (some 0 < C_i <= g_i) stays; any other has C_i = 0 or C_i > g_i
    on supp g, so C + <x_i^{g_i}> is C with exponent g_i at i.  A kept
    component containing that would contain C, against irredundancy, so
    only the new ones need reducing.  Each step consumes one generator,
    so the loop ends after len(I.gens) steps.
    """
    if I.is_unit():
        raise UnitIdeal("the unit ideal has no decomposition")
    comps = [(0,) * I.n]
    for g in I.gens:
        support = [(i, e) for i, e in enumerate(g) if e]
        kept, fresh = [], []
        for a in comps:
            if any(0 < a[i] <= e for i, e in support):
                kept.append(a)
                continue
            fresh.extend(a[:i] + (e,) + a[i + 1:] for i, e in support)
        comps = kept + [b for b in reduce_components(fresh)
                        if not any(component_contains(b, k) for k in kept)]
    return tuple(sorted(comps))


def b_saturate(I, X):
    """(I : B^infinity): the meet of the components of I on the fan, the
    unit ideal when there is none (S/I is B-torsion), and I itself when
    every component is on the fan.  UnitIdeal on the unit ideal."""
    comps = irreducible_decomposition(I)
    kept = [a for a in comps if on_fan(a, X.delta)]
    if len(kept) == len(comps):
        return I
    out = MonomialIdeal.unit(I.n)
    for a in kept:
        out = out.intersect_irreducible(a)
    return out


def is_b_saturated(I, X):
    """Whether I = (I : B^infinity): whether every component is on the
    fan.  If so, the saturation, their meet, is I.  If not, let C be one
    off it and J the meet of the others (S if none): C contains I but not J
    (irredundancy), so I is not J, nor the saturation, which contains J.
    True on the zero ideal (the empty face); UnitIdeal on the unit."""
    return all(on_fan(a, X.delta) for a in irreducible_decomposition(I))


# -- degree fibers and Hilbert functions --------------------------------

FIBER_CAP = 10_000_000  # the default bound on the monomials of one fiber


def fiber_monomials(X, t, cap=FIBER_CAP):
    """All u in N^n with A.u == t, the monomials of S in degree t, as a
    sorted list.

    Each fiber is enumerated once per variety: the sorted result is kept
    in X._fiber_cache, keyed by t, and every call returns a fresh list
    of it.

    The fiber is finite because some functional w has w . a_i > 0 for
    every i, which bounds u_i <= (w.t)/(w.a_i).  Only the d variables
    outside the complement sigma^ of the first maximal cone are free;
    the r coordinates on sigma^ are solved from the residual: they are
    M_sigma^^-1 (t - sum of a_i u_i over the free variables), where
    M_sigma^ holds the degrees of the variables of sigma^.  The solve is
    exact because build_variety checks that M_sigma^ is unimodular, so
    the solution is integral; a point is in the fiber exactly when every
    solved coordinate is >= 0.

    The walk fixes the first d - 1 free exponents under the w-bound
    (each against the w-degree the earlier ones left) and solves the
    last one, k, as an interval.  Let i be the last free variable, s the
    solved block with u_i = 0 and step = M_sigma^^-1 a_i.  The solved
    block at u_i = k is s - k*step, affine in k, so k is admissible
    exactly when s_j - k*step_j >= 0 for every j.  That reads
    k <= floor(s_j/step_j) when step_j > 0, k >= ceil(-s_j/-step_j) when
    step_j < 0, and s_j >= 0 when step_j = 0: together with k >= 0, one
    interval lo..hi, whose points are emitted as one run.  It is empty
    when lo > hi (as when s_j < 0 with step_j > 0) and when some
    step_j = 0 has s_j < 0.  Writing c_j for the w-degree of the j-th
    variable of sigma^, w.a_i = sum_j c_j step_j > 0, so some step_j is
    positive and hi is finite; and the w-degree left at u_i = k is
    sum_j c_j (s_j - k*step_j), so the w-bound on k holds on the
    interval and only seeds hi.  Every point the walk emits is in the
    fiber: no point is built and then dropped.

    Raises ValueError when t does not have r entries, and FiberTooLarge
    when the fiber has more than cap monomials (also when it comes from
    the cache).
    """
    return list(_fiber(X, t, cap))


def _fiber(X, t, cap):
    """The cached sorted tuple behind fiber_monomials, for callers that
    only read it."""
    t = tuple(map(index, t))
    if len(t) != X.r:
        raise ValueError(f"degree {t} has {len(t)} entries, the grading has {X.r}")
    fiber = X._fiber_cache.get(t)
    if fiber is None:
        fiber = X._fiber_cache[t] = _enumerate_fiber(X, t, cap)
    if len(fiber) > cap:
        raise FiberTooLarge(f"degree fiber exceeds {cap} monomials")
    return fiber


def _enumerate_fiber(X, t, cap):
    """The fiber of fiber_monomials as a sorted tuple, enumerated afresh."""
    out = []
    _walk_fiber(X, t, cap, out)
    out.sort()
    return tuple(out)


def _walk_fiber(X, t, cap, out=None):
    """The number of monomials in the fiber of fiber_monomials, by the walk
    its docstring describes, summing the sizes hi - lo + 1 of the final
    intervals; when out is a list, each point is appended to it, unsorted.
    FiberTooLarge once the count passes cap."""
    w = X.positive_w
    wt = sum(a * b for a, b in zip(w, t))
    if wt < 0:
        return 0
    hat, minv = X._facet_data[0]
    free = [i for i in range(X.n) if i not in hat]
    degs = [X.variable_degree(i) for i in free]
    wdeg = [sum(a * b for a, b in zip(w, d)) for d in degs]

    # s is the solved sigma^ block M_sigma^^-1 (t - A.u)
    steps = [il.matvec(minv, d) for d in degs]
    last = len(free) - 1  # d >= 1 free variables
    acc = [0] * X.n
    total = 0

    def rec(pos, s, wres):
        nonlocal total
        i, step, wi = free[pos], steps[pos], wdeg[pos]
        if pos == last:
            # the k with s - k*step >= 0, an interval (fiber_monomials)
            lo, hi = 0, wres // wi
            for x, y in zip(s, step):
                if y > 0:
                    if x // y < hi:
                        hi = x // y
                elif y < 0:
                    if -(x // -y) > lo:
                        lo = -(x // -y)
                elif x < 0:
                    return
            if lo > hi:
                return
            total += hi - lo + 1
            if total > cap:  # the run would pass cap
                raise FiberTooLarge(f"degree fiber exceeds {cap} monomials")
            if out is None:
                return
            for k in range(lo, hi + 1):
                acc[i] = k
                for h, x, y in zip(hat, s, step):
                    acc[h] = x - k * y
                out.append(tuple(acc))
            acc[i] = 0
            return
        for k in range(wres // wi + 1):
            acc[i] = k
            rec(pos + 1, s, wres - k * wi)
            s = tuple(x - y for x, y in zip(s, step))
        acc[i] = 0

    rec(0, il.matvec(minv, t), wt)
    del rec  # rec refers to itself: a reference cycle holding out
    return total


def hilbert_function(X, I, t, cap=FIBER_CAP):
    """dim_k (S/I)_t by hilbert_value, from cached fibers.

    Every d of the K-polynomial is the degree of a monomial, so
    fiber(t - d) embeds in fiber(t) and cap bounds them all.
    """
    from .hilbert import coarse_k_polynomial
    t = tuple(map(index, t))
    _fiber(X, t, cap)  # checks the entries of t and the cap on fiber(t)
    return hilbert_value(coarse_k_polynomial(X, I), t, fiber_sizes(X, cap))


def hilbert_value(kpoly, t, size):
    """dim_k (S/I)_t = sum_d c_d |fiber(t - d)| over the coarse
    K-polynomial kpoly = ((d, c_d), ...) of S/I (see hilbert.py), for a
    tuple t of r ints and size = fiber_sizes(X, cap)."""
    return sum(c * size(tuple(map(sub, t, d))) for d, c in kpoly)


def fiber_sizes(X, cap=FIBER_CAP):
    """The lookup u -> |fiber(u)| for tuples u of r ints, raising
    FiberTooLarge past cap, memoized in a dict owned by the lookup alone:
    a caller that reads many values builds one and drops it when done.
    A fiber already in X._fiber_cache gives its length; any other is
    counted by the walk (_walk_fiber), which lists no point and caches
    nothing."""
    sizes = {}

    def size(u):
        count = sizes.get(u)
        if count is None:
            fiber = X._fiber_cache.get(u)
            count = _walk_fiber(X, u, cap) if fiber is None else len(fiber)
            if count > cap:
                raise FiberTooLarge(f"degree fiber exceeds {cap} monomials")
            sizes[u] = count
        return count

    return size


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


_FACTOR = re.compile(r"\s*x(\d+)(?:\^(\d+))?\s*")


def parse_monomial(text, n):
    """Parse 'x1^2*x2' (or '1') into an exponent tuple of length n."""
    text = text.strip()
    if text in ("1", ""):
        return (0,) * n
    expo = [0] * n
    for factor in text.split("*"):
        m = _FACTOR.fullmatch(factor)
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
