"""Stanley decompositions and filtrations via the comma-colon recursion.

The recursion on a monomial ideal I splits along a variable x_l that
properly divides a minimal generator: the left child is I + <x_l>, the
right child is (I : x_l).  Leaves are prime ideals; reading the leaves
off in depth-first order (left children first) yields not just a
Stanley decomposition but a Stanley filtration of S/I.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .errors import OverlappingPairs, StrategyInvalid, UnitIdeal
from .ideals import MonomialIdeal, divides, format_monomial, monomial_lcm, total_degree


@dataclass(frozen=True)
class StanleyPair:
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


def nice_strategy(X, face_order):
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

    def build(J):
        if J.is_prime():
            return StanleyTree(J)
        var = strategy(J)
        if not (0 <= var < J.n) or not any(properly_divides(var, g) for g in J.gens):
            raise StrategyInvalid(
                f"x{var+1} does not properly divide a minimal generator of {J}")
        e = tuple(1 if i == var else 0 for i in range(J.n))
        return StanleyTree(J, var, build(J.plus(e)), build(J.colon(e)))

    return build(I)


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
    return tuple(pairs)


def stanley_filtration(I, strategy=None):
    return filtration(stanley_decompose(I, strategy))


# -- verification --------------------------------------------------------


@dataclass
class VerifyResult:
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
    failure.

    Filtration mode is the colon chain.  With J_k = I and
    J_{i-1} = J_i + <x^{u_i}>, the pairs (u_1, s_1) ... (u_k, s_k) form a
    Stanley filtration exactly when (J_i : x^{u_i}) = P_{s_i} =
    <x_j : j not in s_i> for every i and J_0 is the unit ideal: the
    monomials of J_{i-1} outside J_i are x^{u_i} times the standard
    monomials of (J_i : x^{u_i}), and these are the monomials of pair i
    exactly when the colon is the face prime.  So the prefixes partition
    the complement of I exactly when every colon is its face prime and
    J_0 contains 1.

    Decomposition mode evaluates the per-monomial predicate on the grid
    of exponent vectors whose i-th coordinate is 0, some g_i for a
    generator g of I, or u_i or u_i + 1 for a pair shift u.  The
    predicate only compares each m_i with these thresholds, so lowering
    m_i to the largest grid value at most m_i changes no comparison:
    some monomial fails exactly when some grid point does.
    """
    pairs = tuple(pairs)
    if mode == "filtration":
        return _colon_chain(I, pairs)
    if mode != "decomposition":
        raise ValueError(f"unknown mode {mode!r}")
    grid = [sorted({0}.union(g[i] for g in I.gens)
                   .union(p.shift[i] + d for p in pairs for d in (0, 1)))
            for i in range(I.n)]
    for m in product(*grid):
        reason = _monomial_failure(I, pairs, m, mode)
        if reason:
            return VerifyResult(False, m, reason)
    return VerifyResult(True)


def _colon_chain(I, pairs):
    """The colon-chain certificate for filtration mode.

    J_i is kept as a (not necessarily minimal) generator list.  The
    colon is inside P_s exactly when every generator g of J_i exceeds
    u_i at some variable outside s; otherwise lcm(u_i, g) lies both in
    pair i and in J_i.  P_s is inside the colon exactly when every
    x^{u_i + e_j}, j outside s, lies in J_i; otherwise that monomial is
    left uncovered.
    """
    n = I.n
    gens = list(I.gens)
    for i in range(len(pairs), 0, -1):
        u, face = pairs[i - 1].shift, pairs[i - 1].face
        outside = [j for j in range(n) if j not in face]
        for g in gens:
            if all(g[j] <= u[j] for j in outside):
                m = monomial_lcm(u, g)
                return VerifyResult(
                    False, m,
                    f"prefix {i}: {format_monomial(m)} lies in pair {i} "
                    f"and in I + <later shifts>")
        for j in outside:
            m = tuple(e + (k == j) for k, e in enumerate(u))
            if not any(divides(g, m) for g in gens):
                return VerifyResult(
                    False, m,
                    f"prefix {i}: {format_monomial(m)} lies outside "
                    f"I + <later shifts> but not in pair {i}")
        gens.append(u)
    if all(any(g) for g in gens):
        return VerifyResult(
            False, (0,) * n,
            "prefix 0: I + <all shifts> is not the unit ideal, so 1 is uncovered")
    return VerifyResult(True)


def _monomial_failure(I, pairs, m, mode):
    """Why the monomial m breaks the partition property, or "" if not.

    The prefix conditions of filtration mode are checked in one pass:
    writing D(m) for the pair indices whose shift divides m and C(m)
    for the pairs containing m, a monomial outside I passes every
    prefix test exactly when C(m) = {max D(m)} (or {first pair} when
    D(m) is empty), and a monomial of I passes when C(m) is empty.
    Filtration mode of verify_stanley uses the colon chain instead; the
    tests compare it against this predicate.
    """
    containing = [k for k, p in enumerate(pairs) if p.contains(m)]
    if I.contains(m):
        return "monomial of the ideal lies in a pair" if containing else ""
    if mode == "decomposition":
        return f"covered {len(containing)} times" if len(containing) != 1 else ""
    dividing = [k for k, p in enumerate(pairs) if divides(p.shift, m)]
    expected = dividing[-1] if dividing else 0
    if containing != [expected]:
        return f"prefix {expected + 1}: covered by pairs {containing}"
    return ""


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
