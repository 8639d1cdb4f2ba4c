"""Support computations for multigraded Hilbert schemes: the finite
degree set D over which the Hilbert functor embeds, and the auxiliary
enumeration of monomial ideals generated in prescribed degrees.

The degree-set loop starts from the uniform regularity bound point and
keeps adding degrees until every monomial ideal generated in D with the
right Hilbert function on D has the right Hilbert polynomial.  The
"sufficiently general" bulk points are drawn from a seeded generator so
runs are reproducible.
"""

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from operator import index

from .errors import BudgetExceeded, InfeasibleHilbertValue, SearchExhausted
from .hilbert import quotient_hilbert_polynomial
from .ideals import MonomialIdeal, b_saturate, divides, fiber_monomials, hilbert_function
from .multipoly import MultiPoly
from .regularity import RegularityAssumption, reg_bound_from_polynomial
from .variety import find_c


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

    results = []
    nodes = 0

    def rec(level, chosen):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded(f"more than {node_budget} search nodes")
        if level == len(degrees):
            results.append(MonomialIdeal(X.n, chosen))
            return
        fiber = fibers[level]
        free = [m for m in fiber if not any(divides(g, m) for g in chosen)]
        need = targets[level] - (len(fiber) - len(free))
        if need < 0:
            return
        for subset in combinations(free, need):
            rec(level + 1, chosen + list(subset))

    rec(0, [])
    return results


@dataclass
class DegreeSetResult:
    points: tuple               # the set D, sorted
    anchor: tuple               # the uniform regularity bound point k
    ideals: list                # candidates surviving on the final D
    seed: int
    trace: list = field(default_factory=list)

    @property
    def converged(self):
        return bool(self.trace) and self.trace[-1]["bad"] == 0


def _quotient_poly(X, I):
    if I.is_unit():
        return MultiPoly.zero(X.r)
    return quotient_hilbert_polynomial(X, I)


def _find_disagreement(X, I, P, anchor, cap=2000):
    """First point of anchor + K where the Hilbert function differs from P."""
    for t in _cone_points(X, anchor, cap):
        if hilbert_function(X, I, t) != P.evaluate(t):
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
    """
    assume = assume or RegularityAssumption()
    bound = reg_bound_from_polynomial(X, P, assume)
    if len(bound.generators) != 1:
        raise SearchExhausted("bound region has no single anchor point")
    anchor = bound.generators[0]
    rng = random.Random(seed)
    rays = X.nef_rays
    c = find_c(X)
    D = {anchor}
    trace = []
    ideals = []
    for round_index in range(max_rounds):
        ideals = ideals_generated_in_degrees(X, D, P, node_budget=node_budget)
        bad = [I for I in ideals if _quotient_poly(X, I) != P]
        trace.append({"round": round_index, "size": len(D),
                      "candidates": len(ideals), "bad": len(bad)})
        if not bad:
            return DegreeSetResult(
                points=tuple(sorted(D, key=lambda t: _degree_sort_key(X, t))),
                anchor=anchor, ideals=ideals, seed=seed, trace=trace)
        new_points = set()
        for I in bad:
            new_points.add(_find_disagreement(X, I, P, anchor))
        max_total = max(
            (sum(u) for t in D for u in fiber_monomials(X, t)), default=0)
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
    """Desk-scale verification of the supporting property of D.

    Every candidate ideal surviving on the final D must agree with P at
    every sampled point of anchor + K (a triangular grid of nef-ray
    combinations up to box_level), and its saturation must have Hilbert
    polynomial P.
    """
    for I in result.ideals:
        if any(hilbert_function(X, I, t) != P.evaluate(t)
               for t in _cone_points(X, result.anchor, box_level)):
            return False
        saturated = b_saturate(I, X) if not I.is_unit() else I
        if _quotient_poly(X, saturated) != P:
            return False
    return True
