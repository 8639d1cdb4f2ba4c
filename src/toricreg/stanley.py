"""Stanley decompositions and filtrations via the comma-colon recursion.

The recursion on a monomial ideal I splits along a variable x_l that
properly divides a minimal generator: the left child is I + <x_l>, the
right child is (I : x_l).  Leaves are prime ideals; reading the leaves
off in depth-first order (left children first) yields not just a
Stanley decomposition but a Stanley filtration of S/I.  verify_stanley
certifies a filtration by a forward chain of steps over the
intersections of the pairs' irreducible components (_filtration_step,
the check realize runs too) and a decomposition by an identity of fine
K-polynomials; both checks are exact.
"""

from itertools import combinations
from operator import index
from typing import NamedTuple

from . import intlinalg as il
from .errors import OverlappingPairs, StrategyInvalid, UnitIdeal
from .hilbert import _k_polynomial, pairs_k_polynomial
from .ideals import MonomialIdeal, divides, format_monomial, monomial_lcm, total_degree


class StanleyPair(NamedTuple):
    """(x^shift, face): the monomials x^(shift+v) with supp(v) inside face."""

    shift: tuple
    face: frozenset

    def contains(self, m):
        return all(a >= b for a, b in zip(m, self.shift)) and all(
            i in self.face for i, (a, b) in enumerate(zip(m, self.shift)) if a > b)

    def sort_key(self):
        return (self.shift, tuple(sorted(self.face)))

    def __repr__(self):
        return f"({format_monomial(self.shift)}, {{{','.join(str(i+1) for i in sorted(self.face))}}})"


class StanleyTree:
    """Binary tree of the recursion: left = ideal + <x_l>, right = (ideal : x_l)."""

    __slots__ = ("ideal", "variable", "left", "right")

    def __init__(self, ideal, variable=None, left=None, right=None):
        self.ideal = ideal
        self.variable = variable
        self.left = left
        self.right = right

    def is_leaf(self):
        return self.variable is None

    def leaf_count(self):
        if self.is_leaf():
            return 1
        return self.left.leaf_count() + self.right.leaf_count()

    def depth(self):
        if self.is_leaf():
            return 0
        return 1 + max(self.left.depth(), self.right.depth())


def properly_divides(i, g):
    """Whether x_i properly divides the monomial x^g."""
    return g[i] >= 1 and total_degree(g) >= 2


def default_strategy(I):
    """Largest variable index dividing the lex-largest minimal generator
    that admits a proper variable divisor."""
    candidates = [g for g in I.gens if total_degree(g) >= 2]
    target = max(candidates)
    return max(i for i in range(I.n) if target[i] >= 1)


def replay_strategy(choices):
    """Strategy that plays back a recorded list of variable indices
    (0-based) in pre-order: node, then left subtree, then right subtree."""
    state = {"pos": 0}

    def choose(I):
        if state["pos"] >= len(choices):
            raise StrategyInvalid("choice script exhausted")
        var = choices[state["pos"]]
        state["pos"] += 1
        return var

    return choose


def nice_strategy(face_order):
    """Variable choice of the graded-order refinement (Step 2').

    When the ideal sits inside some P_sigma with sigma^ a face, pick the
    order-smallest such face and split along its smallest variable that
    properly divides a generator; otherwise any proper divisor variable.
    """

    def choose(I):
        best = None
        for sigma_hat in face_order.faces:
            if sigma_hat and all(any(g[i] for i in sigma_hat) for g in I.gens):
                best = sigma_hat
                break
        if best is not None:
            for i in sorted(best):
                if any(properly_divides(i, g) for g in I.gens):
                    return i
        for i in range(I.n):
            if any(properly_divides(i, g) for g in I.gens):
                return i
        raise StrategyInvalid("no variable properly divides a generator")

    return choose


def stanley_decompose(I, strategy=None):
    """Build the full recursion tree for S/I.

    strategy maps a non-prime ideal to a variable index; it must return
    a proper divisor of some minimal generator (checked).
    """
    if I.is_unit():
        raise UnitIdeal("S/I is zero")
    if strategy is None:
        strategy = default_strategy

    units = il.identity(I.n)

    def build(J):
        if J.is_prime():
            return StanleyTree(J)
        var = strategy(J)
        if not (0 <= var < J.n) or not any(properly_divides(var, g) for g in J.gens):
            raise StrategyInvalid(
                f"x{var+1} does not properly divide a minimal generator of {J}")
        e = units[var]
        return StanleyTree(J, var, build(J.plus(e)), build(J.colon(e)))

    tree = build(I)
    del build  # build refers to itself: break the reference cycle
    return tree


def filtration(tree):
    """Leaves in depth-first order (left first), as StanleyPairs.

    This ordering is guaranteed to be a Stanley filtration, not just a
    decomposition.
    """
    n = tree.ideal.n
    pairs = []

    def walk(node, shift):
        if node.is_leaf():
            face = frozenset(range(n)) - node.ideal.support_variables()
            pairs.append(StanleyPair(tuple(shift), face))
            return
        walk(node.left, shift)
        shift = list(shift)
        shift[node.variable] += 1
        walk(node.right, shift)

    walk(tree, [0] * n)
    del walk  # walk refers to itself: break the reference cycle
    return tuple(pairs)


def stanley_filtration(I, strategy=None):
    return filtration(stanley_decompose(I, strategy))


# -- verification --------------------------------------------------------


class VerifyResult(NamedTuple):
    ok: bool
    counterexample: tuple = None
    reason: str = ""

    def __bool__(self):
        return self.ok


def verify_stanley(I, pairs, mode="decomposition"):
    """Check the partition property of Definition 3.1 exactly.

    decomposition: every monomial outside I lies in exactly one pair,
    and no pair meets I.  filtration: each prefix must additionally be a
    decomposition of S over the ideal enlarged by the later shifts.
    Returns a falsy VerifyResult with a counterexample monomial on
    failure.  Malformed pairs (a shift that is not n nonnegative
    integers, a face index that is not an integer in 0..n-1) raise
    ValueError.

    Filtration mode runs the forward chain of _filtration_step: the pairs
    form a Stanley filtration exactly when every step passes and the
    chain ends at I (_filtration_counterexample).

    Decomposition mode is an identity of fine K-polynomials
    (Miller-Sturmfels, ch. 8) in the grading deg u = u:
    N = sum_pairs x^u K(S/P_s) - K(S/I), each K(S/P_s) the Koszul
    numerator of the face prime and K(S/I) from the recursion of
    hilbert.py.  Divided
    by prod_j (1 - x_j), N has coefficient #{pairs containing m} -
    [m not in I] at each monomial m, so N = 0 exactly when the pairs
    form a decomposition, none meeting I.  Otherwise the lex-least
    monomial m of N is the lex-least failing one: its proper divisors
    sort lex-before it, so the series coefficient at m is N_m != 0, and
    a failing monomial has a divisor in N, which sorts at or after m.
    """
    pairs = tuple(pairs)
    for p in pairs:
        try:
            ok = (len(p.shift) == I.n and all(index(e) >= 0 for e in p.shift)
                  and all(0 <= index(i) < I.n for i in p.face))
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"bad Stanley pair ({p.shift!r}, {p.face!r}) for {I.n} variables")
    if mode == "filtration":
        return _filtration_counterexample(I, pairs)
    if mode != "decomposition":
        raise ValueError(f"unknown mode {mode!r}")
    zero = (0,) * I.n  # the fine grading: deg u = u
    numerator = pairs_k_polynomial(tuple, zero, pairs)
    for m, c in _k_polynomial(tuple, zero, {}, I.gens, None):
        numerator[m] = numerator.get(m, 0) - c
    m = min((m for m, c in numerator.items() if c), default=None)
    if m is None:
        return VerifyResult(True)
    if I.contains(m):
        return VerifyResult(False, m, "monomial of the ideal lies in a pair")
    return VerifyResult(False, m, f"covered {sum(p.contains(m) for p in pairs)} times")


def _filtration_step(ideal, pair, component):
    """Whether pair i = (u, sigma), with component C = m^component
    (pair_component), passes its step on the prefix ideal J = J_{i-1}:
    x^u lies in J, and J <= C + <x^u> (_step_escape).

    With J_0 = S and J_i = J_{i-1} meet C_i, the pairs p_1 ... p_k are a
    Stanley filtration of S/I exactly when every step passes and J_k = I.
    Definition 3.1 asks that pairs 1..i decompose S/J'_i for every i,
    J'_i = I + <x^{u_{i+1}}, ..., x^{u_k}>; the standard monomials of C_j
    are the divisors of the monomials of pair j.
    - If so, the standard monomials of J'_i, the monomials of pairs 1..i,
      are closed under division, so they are those of J_i: J'_i = J_i and
      I = J_k.  So x^{u_i} lies in J'_{i-1} = J_{i-1} = J_i + <x^{u_i}>,
      which lies in C_i + <x^{u_i}>.
    - If every step passes, J_{i-1} = J_{i-1} meet (C_i + <x^{u_i}>) =
      J_i + <x^{u_i}> (monomial ideals form a distributive lattice), so
      J_{i-1} minus J_i is x^{u_i} times the standard monomials of
      (J_i : x^{u_i}) = (C_i : x^{u_i}) = P_{sigma_i}, as x^{u_i} lies in
      J_{i-1}: the monomials of pair i.  By induction from J_0 = S, pairs
      1..i decompose S/J_i, and J'_i = J_i by downward induction from
      J_k = I."""
    return ideal.contains(pair.shift) and _step_escape(ideal, pair.shift, component) is None


def _step_escape(ideal, u, component):
    """The first generator of ideal outside C + <x^u>, C = m^component, or
    None: a monomial lies in C + <x^u> exactly when x^u or a generator
    x_l^{c_l} of C divides it."""
    support = [(l, e) for l, e in enumerate(component) if e]
    return next((g for g in ideal.gens
                 if not divides(u, g) and all(g[l] < e for l, e in support)), None)


def _step_chain(pairs, n):
    """The forward chain of _filtration_step over pairs in n variables:
    (i, J_{i-1}) at the first failing step i, else (None, J_k)."""
    ideal = MonomialIdeal.unit(n)
    for i, pair in enumerate(pairs, 1):
        component = pair_component(pair)
        if not _filtration_step(ideal, pair, component):
            return i, ideal
        ideal = ideal.intersect_irreducible(component)
    return None, ideal


def _filtration_counterexample(I, pairs):
    """Filtration mode of verify_stanley, with a failing monomial m.

    At the first failing step i, with J = J_{i-1}, pairs 1..i-1 decompose
    S/J (_filtration_step).  If x^{u_i} is outside J, m = u_i lies in one
    of them, but shift i divides it.  Otherwise a generator g of J lies
    outside C_i + <x^{u_i}>: u_i does not divide g, and g_l <= u_{i,l}
    off sigma_i, so v = lcm(g, u_i) lies in pair i.  If v lies in I, or a
    later shift divides v, m = v.  Otherwise m = g: it lies in J, so in
    none of pairs 1..i-1, not in pair i, and in no later pair, whose
    shift would divide v; and outside I, which would contain v.  When
    every step passes, the pairs decompose S/J_k: a generator of I
    outside J_k lies in I and in a pair, one of J_k outside I in none."""
    failed, J = _step_chain(pairs, I.n)
    if failed is None:
        if J == I:
            return VerifyResult(True)
        m = ([g for g in I.gens if not J.contains(g)]
             or [g for g in J.gens if not I.contains(g)])[0]
    else:
        u = pairs[failed - 1].shift
        if not J.contains(u):
            m = u
        else:
            g = _step_escape(J, u, pair_component(pairs[failed - 1]))
            v = monomial_lcm(g, u)
            later = any(divides(p.shift, v) for p in pairs[failed:])
            m = v if later or I.contains(v) else g
    # Definition 3.1 puts m in no pair when it lies in I, else in pair
    # prefix alone, the last pair whose shift divides m
    prefix = max((j for j, q in enumerate(pairs, 1) if divides(q.shift, m)), default=0)
    j = next((j for j, q in enumerate(pairs, 1) if q.contains(m)), None)
    where = ("lies outside I and in no pair" if j is None
             else f"lies in pair {j} and in I" if I.contains(m)
             else f"lies in pair {j} but shift {prefix} divides it")
    return VerifyResult(False, m, f"prefix {prefix}: {format_monomial(m)} {where}")


# -- back to ideals ------------------------------------------------------


def pairs_overlap(p, q):
    """Exact emptiness test for the intersection of two pair monomial sets."""
    for i, (u, v) in enumerate(zip(p.shift, q.shift)):
        in_p, in_q = i in p.face, i in q.face
        if not in_p and not in_q:
            if u != v:
                return False
        elif not in_p:
            if u < v:
                return False
        elif not in_q:
            if v < u:
                return False
    return True


def pair_component(pair):
    """The irreducible ideal <x_i^{u_i + 1} : i not in face>, as its
    exponent tuple (u_i + 1 off the face, 0 on it)."""
    return tuple(0 if i in pair.face else u + 1 for i, u in enumerate(pair.shift))


def decomposition_to_ideal(pairs, n):
    """Intersect the irreducible ideals attached to the pairs.

    For an actual Stanley decomposition this recovers the ideal it
    decomposes.  Overlapping pair sets raise OverlappingPairs.
    """
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    for p, q in combinations(pairs, 2):
        if pairs_overlap(p, q):
            raise OverlappingPairs(f"pairs {p} and {q} share a monomial")
    out = MonomialIdeal.unit(n)
    for pair in pairs:
        out = out.intersect_irreducible(pair_component(pair))
    return out
