"""Enumeration of all B-saturated monomial ideals with a given Hilbert
polynomial, by peeling face-ring polynomials off the target.

Three stages; each caller runs only those it needs.  The working frame
moves to coordinates where the positive orthant sits inside K, so every
residual has a positive leading coefficient, and orders the faces.  The
search is one peel-off loop in which each accepted branch strictly
decreases the (leading monomial, leading coefficient) pair: the
termination proof, checked at runtime.  Realize turns representations
into ideals and keeps those passing the exact Hilbert-polynomial check,
since candidates are over-generated (every admissible anchor is tried).
The search yields representations depth first, so realize builds each
ideal incrementally along one path of prefix intersections.  The search
takes every shifted face polynomial from one cache on the variety, and
the exact check sums shifts of P_S over the coarse K-polynomial of each
candidate (hilbert.py).  The Gotzmann number needs only the search;
only run_enumeration also chooses witness filtrations.
"""

from dataclasses import dataclass
from itertools import chain

from . import intlinalg as il
from .errors import NoRepresentation, SearchExhausted
from .hilbert import (
    face_hilbert_polynomial,
    quotient_hilbert_polynomial,
    shifted_face_polynomial,
)
from .ideals import MonomialIdeal
from .multipoly import GradedOrder
from .stanley import (
    StanleyPair,
    nice_strategy,
    pair_component,
    stanley_filtration,
    verify_stanley,
)
from .variety import positive_orthant_change, with_grading


@dataclass
class FaceOrder:
    """A graded total order on the faces sigma^ of the fan."""

    faces: tuple
    index: dict

    def leq(self, a, b):
        return self.index[frozenset(a)] <= self.index[frozenset(b)]

    def __repr__(self):
        from .variety import _show_face
        return " < ".join(_show_face(f) for f in self.faces)


def graded_total_order(X, order=None):
    """List the faces so that larger glex-initial terms of P_{S_sigma}
    come first; ties break by size then by sorted indices."""
    if order is None:
        order = GradedOrder(X.r)
    everything = frozenset(range(X.n))

    def key(face):
        poly = face_hilbert_polynomial(X, everything - face)
        init = poly.leading_monomial(order)
        return (
            tuple(-x for x in order.key(init)),
            -len(face),
            tuple(sorted(face)),
        )

    faces = tuple(sorted(X.faces(), key=key))
    return FaceOrder(faces, {f: i for i, f in enumerate(faces)})


@dataclass
class _Frame:
    X: object      # the variety regraded so that N^r sits inside K
    P: object      # the target in the same coordinates
    order: GradedOrder
    face_order: FaceOrder
    sigmas: list   # the complement sigma of each face sigma^, by face index
    inits: list    # the leading monomials of their P_{S_sigma}


def _working_frame(X, P, order):
    if order is None:
        order = GradedOrder(X.r)
    change = positive_orthant_change(X)
    if not change.is_identity():
        X = with_grading(X, il.matmul(change.inverse, X.grading))
        P = P.compose_linear(change.matrix)
    face_order = graded_total_order(X, order)
    everything = frozenset(range(X.n))
    sigmas = [everything - f for f in face_order.faces]
    return _Frame(X, P, order, face_order, sigmas,
                  [face_hilbert_polynomial(X, s).leading_monomial(order) for s in sigmas])


def _peel_off(frame, relaxed=False):
    """Yield the complete representations of frame.P as tuples of
    (face index, shift) pairs.  A new pair chains off an earlier pair j
    whose face is no later in the face order, along a variable x_l of
    face j: v + e_l on monomials (a set of pairs), or q + deg x_l on
    degrees when relaxed (a multiset).  A state is deduplicated by its
    pair multiset, which determines the residual."""
    if frame.P.is_zero():
        return
    X, order, faces = frame.X, frame.order, frame.face_order.faces
    if relaxed:
        steps = [X.variable_degree(ell) for ell in range(X.n)]
    else:
        steps = [tuple(int(i == ell) for i in range(X.n)) for ell in range(X.n)]
    seen = set()
    stack = [((), frame.P)]
    while stack:
        pairs, Q = stack.pop()
        q_init, q_coeff = Q.leading_term(order)
        for ti, init in enumerate(frame.inits):
            if init != q_init:
                continue
            if pairs:
                shifts = sorted({
                    tuple(a + b for a, b in zip(shift, steps[ell]))
                    for fj, shift in pairs if fj <= ti for ell in faces[fj]})
            else:
                shifts = [(0,) * len(steps[0])]
            for shift in shifts:
                new_pair = (ti, shift)
                if not relaxed and new_pair in pairs:
                    continue
                state = pairs + (new_pair,)
                key = tuple(sorted(state))
                if key in seen:
                    continue
                seen.add(key)
                residual = Q - shifted_face_polynomial(
                    X, frame.sigmas[ti], shift if relaxed else X.degree(shift))
                if residual.is_zero():
                    yield state
                    continue
                r_init, r_coeff = residual.leading_term(order)
                if r_coeff <= 0:
                    continue
                if (order.key(r_init), r_coeff) >= (order.key(q_init), q_coeff):
                    raise SearchExhausted("peel-off measure did not drop")
                stack.append((state, residual))


def _stanley_reps(frame):
    """The monomial search's representations as tuples of StanleyPairs."""
    pairs = {}  # one StanleyPair object per distinct pair, shared across reps
    return [tuple(pairs.setdefault(pair, StanleyPair(pair[1], frame.sigmas[pair[0]]))
                  for pair in rep)
            for rep in _peel_off(frame)]


def _realize(frame, reps):
    """Group the representations by ideal; keep the ideals whose quotient
    has Hilbert polynomial frame.P, each with its representations.

    A rep's ideal is the intersection of its pairs' irreducible
    components.  The reps come in depth-first order, so consecutive reps
    share long prefixes: path holds (pair, intersection up to that pair,
    from the unit ideal) for the previous rep, and each rep intersects
    only past the longest prefix it shares with it."""
    unit = MonomialIdeal.unit(frame.X.n)
    grouped = {}
    path = []
    for rep in reps:
        k = 0
        while k < len(path) and k < len(rep) and path[k][0] == rep[k]:
            k += 1
        del path[k:]
        for pair in rep[k:]:
            ideal = path[-1][1] if path else unit
            path.append((pair, ideal.intersect_irreducible(pair_component(pair))))
        grouped.setdefault(path[-1][1], []).append(rep)
    return {
        ideal: cands for ideal, cands in grouped.items()
        if quotient_hilbert_polynomial(frame.X, ideal) == frame.P
    }


@dataclass
class EnumerationResult:
    ideals: list            # [(MonomialIdeal, witness Stanley filtration)]
    reps: list              # complete representations, one per pair set
    gotzmann_number: int    # max pairs over reps (0 when none)
    gotzmann_realized: int  # max pairs over reps whose ideal survived


def run_enumeration(X, P, order=None):
    """Steps 1-5 of the peel-off search; see enumerate_saturated_ideals."""
    frame = _working_frame(X, P, order)
    reps = _stanley_reps(frame)
    by_ideal = _realize(frame, reps)

    # Witnesses: a constructed representation is only guaranteed to be a
    # full Stanley filtration when every one of its pairs is supported on
    # the fan (always true on projective space).  In general it is a
    # partial filtration whose fan-supported components already cut out
    # the saturated ideal, so the graded-order recursion supplies a true
    # filtration instead.
    ideals = []
    for ideal in sorted(by_ideal):
        candidates = sorted(by_ideal[ideal],
                            key=lambda rep: tuple(p.sort_key() for p in rep))
        witness = next(
            (rep for rep in candidates
             if verify_stanley(ideal, rep, mode="filtration")), None)
        if witness is None:
            witness = stanley_filtration(ideal, nice_strategy(frame.X, frame.face_order))
        ideals.append((ideal, witness))

    return EnumerationResult(
        ideals=ideals,
        reps=reps,
        gotzmann_number=max(map(len, reps), default=0),
        gotzmann_realized=max(map(len, chain.from_iterable(by_ideal.values())), default=0),
    )


def enumerate_saturated_ideals(X, P, order=None):
    """All B-saturated monomial ideals with Hilbert polynomial P,
    each with a witness Stanley filtration, canonically sorted."""
    return run_enumeration(X, P, order).ideals


def gotzmann_number(X, P, order=None):
    """Largest pair count over the representations the search constructs."""
    m = max(map(len, _peel_off(_working_frame(X, P, order))), default=0)
    if not m:
        raise NoRepresentation("the search produced no representation of P")
    return m


def gotzmann_upper_bound(X, P, order=None):
    """Largest pair count over the relaxed peel-off search.

    Same frame and loop as the monomial search, but a pair keeps only
    its face and degree: shifts live in Z^r and chain by
    q_i = q_j + deg x_l for an earlier compatible pair.  Distinct
    monomials can share a degree, so the pairs of a state form a
    multiset rather than a set.  Forgetting the monomials only adds
    representations, so this is always at least the Gotzmann number,
    and equal to it in the standard graded case.
    """
    frame = _working_frame(X, P, order)
    if frame.P.is_zero():
        raise NoRepresentation("the zero polynomial has no representation")
    best = max(map(len, _peel_off(frame, relaxed=True)), default=0)
    if not best:
        raise NoRepresentation("the relaxed search produced no representation of P")
    return best
