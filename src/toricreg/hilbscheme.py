"""Support computations for multigraded Hilbert schemes: the finite
degree set D over which the Hilbert functor embeds, and the auxiliary
enumeration of monomial ideals generated in prescribed degrees.

The degree-set loop starts from the uniform regularity bound point and
keeps adding degrees until every monomial ideal generated in D with the
right Hilbert function on D has the right Hilbert polynomial.  The
"sufficiently general" bulk points are drawn from a seeded generator so
runs are reproducible.  The ideals generated in D are listed by a
search over the degrees of D in weight order that strikes out the
multiples of earlier generators with per-fiber bitmasks, built once per
call from the fibers of D alone.
"""

import random
from typing import NamedTuple
from itertools import combinations, compress
from math import comb
from operator import index

from .errors import BudgetExceeded, InfeasibleHilbertValue, SearchExhausted
from .hilbert import _scaled_target, coarse_k_polynomial, shift_numerators
from .ideals import (
    FIBER_CAP, MonomialIdeal, _fiber, fiber_monomials, fiber_sizes, hilbert_value)
from .regularity import RegularityAssumption, reg_bound_from_polynomial
from .variety import find_c


_CLEAR_BITS = bytes.maketrans(b"01", b"\1\0")  # clear bit -> keep the monomial


def _degree_sort_key(X, t):
    phi = X.positive_w
    return (sum(a * b for a, b in zip(phi, t)), t)


def ideals_generated_in_degrees(X, degrees, P, node_budget=1_000_000):
    """All monomial ideals generated in the given degrees whose Hilbert
    function matches P there.

    Degrees are processed so that divisibility points forward; at each
    degree the generators forced by earlier choices are struck out and
    every subset of the right size of the remaining fiber is tried.
    Exponential, so a node budget guards the recursion.

    Divisibility is read off bitmasks over each fiber, built once per
    call: bit j of at_least[level][i][e] is set when the j-th monomial m
    of the fiber at that level has m_i >= e.  A generator g divides m
    exactly when m_i >= g_i on the support of g, so the multiples of g
    in the fiber are the AND of at_least[level][i][g_i] over that
    support (the full mask when g = 1).  At a node, covered is the OR of
    these masks over the chosen generators, and the free monomials are
    its clear bits, read in fiber order.  The masks of each (g, level)
    are memoized for the call only; no fiber outside the given degrees
    is enumerated.

    The chosen generators are always an antichain, so each result ideal
    is built from their sorted tuple without minimalizing, as
    MonomialIdeal.intersect_irreducible does.  If g properly divides h,
    then h = g x^v with v != 0, and w . deg g < w . deg h for
    w = X.positive_w, since w . a_i > 0 for every variable.  Levels are
    sorted by that weight, so g lies at an earlier level than h.  But a
    monomial of a later level is chosen only when it is free, outside
    the multiples of every earlier generator.  So no chosen generator
    divides another, and none is chosen twice.
    """
    degrees = sorted({tuple(map(index, t)) for t in degrees},
                     key=lambda t: _degree_sort_key(X, t))
    fibers = []
    targets = []
    for t in degrees:
        fiber = fiber_monomials(X, t)
        value = P.evaluate(t)
        if value.denominator != 1 or value < 0 or value > len(fiber):
            raise InfeasibleHilbertValue(
                f"P{t} = {value} impossible for a fiber of size {len(fiber)}")
        fibers.append(fiber)
        targets.append(len(fiber) - int(value))
    at_least = [_at_least_masks(fiber, X.n) for fiber in fibers]
    masks = {}

    def multiples(g, level):
        """Bitmask of the multiples of g in the fiber at level, memoized."""
        mask = (1 << len(fibers[level])) - 1
        for column, e in zip(at_least[level], g):
            if e:
                mask &= column[e] if e < len(column) else 0
        masks[g, level] = mask
        return mask

    results = []
    nodes = 0

    def rec(level, chosen):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded(f"more than {node_budget} search nodes")
        if level == len(degrees):
            results.append(MonomialIdeal.from_minimal(X.n, sorted(chosen)))
            return
        covered = 0
        for g in chosen:
            mask = masks.get((g, level))
            covered |= multiples(g, level) if mask is None else mask
        need = targets[level] - covered.bit_count()
        if need < 0:
            return
        free = fibers[level]
        if covered:  # bit j of covered is character j of the reversed binary string
            bits = f"{covered:0{len(free)}b}"[::-1].encode()
            free = compress(free, bits.translate(_CLEAR_BITS))
        for subset in combinations(free, need):
            rec(level + 1, chosen + list(subset))

    rec(0, [])
    del rec  # rec refers to itself: a reference cycle holding the fibers
    return results


def _at_least_masks(fiber, n):
    """Per variable i, the list whose entry e is the bitmask of the
    positions j with fiber[j][i] >= e, for e up to the largest such
    exponent (the mask is 0 beyond it)."""
    out = []
    for i in range(n):
        column = [0] * (max((m[i] for m in fiber), default=0) + 1)
        for j, m in enumerate(fiber):
            column[m[i]] |= 1 << j
        for e in range(len(column) - 2, -1, -1):
            column[e] |= column[e + 1]
        out.append(column)
    return out


class DegreeSetResult(NamedTuple):
    points: tuple               # the set D, sorted
    anchor: tuple               # the uniform regularity bound point k
    ideals: list                # candidates surviving on the final D
    seed: int
    trace: list = ()            # one row per round (the empty tuple when none is given)

    @property
    def converged(self):
        return bool(self.trace) and self.trace[-1]["bad"] == 0


def _find_disagreement(X, kpoly, P, anchor, size, cap=2000):
    """First point of anchor + K where the Hilbert function of the
    quotient with coarse K-polynomial kpoly differs from P (hilbert_value,
    reading fiber sizes through size)."""
    for t in _cone_points(X, anchor, cap):
        if hilbert_value(kpoly, t, size) != P.evaluate(t):
            return t
    raise SearchExhausted("found no disagreement point in the bound region")


def _cone_points(X, anchor, max_level):
    """The points anchor + sum_k c_k ray_k over the nef rays, level by
    level in sum_k c_k = 0..max_level (repeats when rays are dependent)."""
    rays = X.nef_rays
    for level in range(max_level + 1):
        for combo in _compositions(level, len(rays)):
            yield tuple(
                anchor[j] + sum(c * ray[j] for c, ray in zip(combo, rays))
                for j in range(X.r))


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def degree_set(X, P, seed=0, assume=None, max_rounds=12, node_budget=1_000_000):
    """Iterate the degree-set algorithm to its fixpoint.

    Starts with D = {k}, the uniform regularity bound point for P, and
    on each round adds (a) a disagreement degree for every candidate
    ideal with the wrong Hilbert polynomial, (b) the regularity bound
    for ideals generated in D, and (c) binom(n, d) seeded points above
    that bound.

    A candidate I is wrong unless P_{S/I} = P, compared in integers
    (_scaled_target) from its coarse K-polynomial, fetched once per
    round; the same K-polynomial gives its Hilbert function in the
    search for (a), through one fiber-size lookup per call.
    """
    assume = assume or RegularityAssumption()
    bound = reg_bound_from_polynomial(X, P, assume)
    if len(bound.generators) != 1:
        raise SearchExhausted("bound region has no single anchor point")
    anchor = bound.generators[0]
    rng = random.Random(seed)
    rays = X.nef_rays
    c = find_c(X)
    target = _scaled_target(X, P)
    size = fiber_sizes(X)
    D = {anchor}
    trace = []
    ideals = []
    for round_index in range(max_rounds):
        ideals = ideals_generated_in_degrees(X, D, P, node_budget=node_budget)
        kpolys = (coarse_k_polynomial(X, I) for I in ideals)
        bad = [k for k in kpolys if shift_numerators(X, k) != target]
        trace.append({"round": round_index, "size": len(D),
                      "candidates": len(ideals), "bad": len(bad)})
        if not bad:
            return DegreeSetResult(
                points=tuple(sorted(D, key=lambda t: _degree_sort_key(X, t))),
                anchor=anchor, ideals=ideals, seed=seed, trace=trace)
        new_points = set()
        for kpoly in bad:
            new_points.add(_find_disagreement(X, kpoly, P, anchor, size))
        max_total = max(
            (sum(u) for t in D for u in _fiber(X, t, FIBER_CAP)), default=0)
        c_new = tuple(max_total * x for x in c)
        new_points.add(c_new)
        want = comb(X.n, X.d)
        draws = 0
        attempts = 0
        while draws < want:
            attempts += 1
            if attempts > 10_000:
                raise SearchExhausted("could not draw distinct general points")
            span = max_total + X.d + 2 + want + len(D) + attempts // 50
            lam = [rng.randrange(0, span) for _ in rays]
            t = tuple(
                c_new[j] + sum(l * ray[j] for l, ray in zip(lam, rays))
                for j in range(X.r))
            if t not in D and t not in new_points:
                new_points.add(t)
                draws += 1
        D |= new_points
    raise BudgetExceeded(f"no fixpoint after {max_rounds} rounds")


def supportive_check(X, result, P, box_level=6):
    """Verification of the supporting property of D: whether every
    candidate ideal I surviving on the final D has Hilbert polynomial P
    (exact), and Hilbert function P at every sampled point of anchor + K
    (a sample, not a proof).

    The polynomial clause is decided in integers from I's coarse
    K-polynomial (_scaled_target).  It also settles the saturation:
    P_{S/I^sat} = P_{S/I}, so no I^sat is built.  In the exact sequence
    0 -> I^sat/I -> S/I -> S/I^sat -> 0 the Hilbert functions add, so
    P_{S/I} = P_{S/I^sat} + P_M for M = I^sat/I.  M is finitely generated
    (S is Noetherian) and B-torsion (B^k I^sat lies in I for some k), so
    its sheaf on X is zero, and for t deep in K the Hilbert function of
    a finitely generated module is the Euler characteristic of its sheaf
    twisted by O(t) (Maclagan-Smith, Multigraded Castelnuovo-Mumford
    regularity, 2004): P_M = 0.  When I^sat is the unit ideal, S/I is
    itself B-torsion and both sides are 0.

    The grid is the points of anchor + sum_k c_k ray_k over the nef rays
    with sum_k c_k <= box_level, listed once; P is evaluated once per
    point, each candidate's K-polynomial is fetched once, and fiber
    sizes are read through one lookup for the call (hilbert_value).
    Agreement there is sampled, up to box_level: it does not certify
    H_{S/I} = P on all of anchor + K.
    """
    target = _scaled_target(X, P)
    grid = [(t, P.evaluate(t)) for t in dict.fromkeys(_cone_points(X, result.anchor, box_level))]
    size = fiber_sizes(X)
    for I in result.ideals:
        kpoly = coarse_k_polynomial(X, I)
        if shift_numerators(X, kpoly) != target:
            return False
        if any(hilbert_value(kpoly, t, size) != value for t, value in grid):
            return False
    return True
