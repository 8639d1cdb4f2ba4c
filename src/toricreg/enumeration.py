"""Enumeration of all B-saturated monomial ideals with a given Hilbert
polynomial, by peeling face-ring polynomials off the target.

Three stages; each caller runs only those it needs.  The working frame
moves to coordinates where the positive orthant sits inside K, so every
residual has a positive leading coefficient, and orders the faces by
the leading terms of their integer face vectors.  The search is one
peel-off loop in which each accepted branch strictly decreases the
(leading monomial, leading coefficient) pair: the termination proof,
checked at runtime.  Realize turns representations
into ideals and keeps those passing the exact Hilbert-polynomial check,
since candidates are over-generated (every admissible anchor is tried).
Realize runs on the search's own states: every state the search pushes
carries a payload (_prefix) made from its parent's, which holds the
state's pair tuple, the one copy of its path, and the search hands over
the reps that complete at a popped state in one batch (payload, leaves),
whose payload's parents are the payloads of the state's prefixes.
A rep's ideal is the intersection of its pairs' irreducible components,
and realize decides the exact check from those components alone, by
inclusion-exclusion (Mayer-Vietoris) over the components of each prefix
(see _meet).  A state gets its component set once, when a batch below it
first needs it, and only the sets above passing reps get their ideals,
one per set.  A rep whose parent state's ideal already overshoots P is not
realized, by a proved test, not a heuristic: the rep's ideal lies
inside it (see _realize).  The Gotzmann number needs only the lengths
of the search's reps, so it runs the search alone, in a count-only mode
that lists no rep (see _peel_off); only run_enumeration also chooses
witness filtrations.

A witness is chosen from the prefix ideals realize builds anyway: a rep
p_1 ... p_k is a Stanley filtration of its ideal exactly when each p_i
passes stanley._filtration_step, the step verify_stanley chains, on the
meet J_{i-1} of the components of p_1 ... p_{i-1}.  Realize keeps per
ideal the least such rep by StanleyPair.sort_key, the first of its
sorted reps that verify_stanley accepts; an ideal with none falls back
to the graded-order recursion.

The monomial order is glex with t1 > ... > tr (multipoly.glex_key); a
caller who wants another variable order reorders the grading rows
(variety.with_grading) and the variables of P to match.

The frame, the search and the check run on integers.  A residual
Q = P - sum P_{S_sigma}(t - delta) has total degree at most
max(d, deg P), so it is a coefficient vector on the fixed basis of
exponents of that degree, listed from the glex-largest down.  Every
vector is scaled by D > 0, the denominator of P_S
(hilbert._ring_expansion).  Each D * P_{S_sigma}(t - delta) =
D * sum_e c_e P_S(t - e - delta), a sum over the Koszul numerator c of
S_sigma, is integral: the moment kernel (hilbert.shift_numerators)
yields it in integers.  A complete representation sums such terms to
D * P, so when D * P is not integral (frame.target is None) there is no
representation, in the monomial search or the relaxed one, and neither
runs; otherwise every residual is integral.  Multiplying by D > 0 is
linear and keeps signs, so the residual is zero exactly when its vector
is, the leading term is the first nonzero entry, and the measure
(leading monomial, leading coefficient) compares as before: no float or
modular step enters, and the search makes the same choices as one over
rational polynomials.  The frame ranks the faces on the same vectors:
the leading monomial of P_{S_sigma} sits at the first nonzero entry of
D * P_{S_sigma} (see _order_faces), so no face polynomial is built.
The exact check likewise compares the integer D * P_{S/I} with D * P,
and inclusion-exclusion only adds and subtracts such integer vectors
(see _realize).

Each vector is held as one Python int, its entries packed into fields
of W bits, the first entry in the highest field (Kronecker
substitution, see _frame).  W is derived by the frame from the target
and the face vectors it builds first, with a fixed headroom; it is no
option.  Then equality is int ==, a residual is Q - F, the sign of a
leading coefficient is the sign of an int, and the leading term is
read off the bit length and one rounding shift (_leading): each is one
integer operation, not a loop over entries.  The arithmetic stays
exact by a range invariant, proved in _frame: every stored vector has
its entries in [-2^(W-3), 2^(W-3)), so any +-combination of up to three
stored vectors determines its entries and has the sign of its first
nonzero one.  Base vectors are certified when built, and each residual
and component-set vector passes a range guard (_checked) before it is
stored; a vector that would leave the range raises FieldOverflow and
never wraps.

Both stages redo small computations on a few distinct inputs, so each
is done once per distinct input and looked up after.  Every memo is
exact, not an approximation: it stores the value of a pure function of
its key.  The search numbers each distinct pair once and builds its
successor shifts, face vector and, when listing, StanleyPair then; it
builds each (face, degree) vector once, keeps the vector of each
unnumbered leaf candidate by (face, shift) when counting, and each state
carries its pairs' successor shifts as a pool, so a popped state sorts
its candidate shifts once (see _peel_off).
Realize takes each pair's irreducible component once and
encodes it as one integer (_encode), so that containment, sums and
fan support of components are a few integer operations each, builds
the vector of each reduced component set once and each step from one
set to the next once (_meet), and intersects each prefix ideal once
per distinct component set.  Every integer polynomial is
sum_d c_d N(d), N(d) = D * P_S(t - d) on the basis, by linearity of
the moment kernel, with N(d) built once per distinct degree, from the
face order on.  Every memo lives and dies with one frame, that is one
call: nothing is cached across requests.
"""

from itertools import chain, product
from operator import add
from typing import NamedTuple

from . import intlinalg as il
from .errors import FieldOverflow, NoRepresentation, SearchExhausted, ZeroPolynomial
from .hilbert import _scaled_target, face_k_polynomial, koszul_numerator, shift_numerators
from .ideals import MonomialIdeal
from .multipoly import glex_key
from .stanley import (
    StanleyPair,
    _filtration_step,
    nice_strategy,
    pair_component,
    stanley_filtration,
)
from .variety import positive_orthant_change, with_grading


class FaceOrder(NamedTuple):
    """A graded total order on the faces sigma^ of the fan."""

    faces: tuple
    index: dict

    def __repr__(self):
        from .variety import _show_face
        return " < ".join(_show_face(f) for f in self.faces)


def graded_total_order(X):
    """List the faces so that larger glex-initial terms of P_{S_sigma}
    come first; ties break by size then by sorted indices.  Every
    P_{S_sigma} has total degree at most d, so the faces are ranked on
    the basis of that degree, in a frame with no target (see
    _order_faces)."""
    return _frame(X, X.d).face_order


# The bits a field keeps free above the largest entry of the frame's
# base vectors, for the vectors built after it (see _frame).
_HEADROOM = 32


class _Frame:
    def __init__(self, X, basis, width, masks, shifted, P=None, target=None,
                 face_supports=frozenset()):
        self.X = X              # the variety regraded so that N^r sits inside K
        self.basis = basis      # every exponent of total degree <= max(d, deg P), glex-largest first
        self.width = width      # W: the bits of one field of a packed vector (see _frame)
        self.masks = masks      # (offset, spill) of the range guard on packed vectors (_range_masks)
        self.shifted = shifted  # degree d -> (N(d) = D * P_S(t - d) packed, its largest entry size)
        self.P = P              # the target in the same coordinates
        self.target = target    # D * P packed, None when it is not integral
        self.face_supports = face_supports  # the support mask of every face of the fan (see _meet)
        self.face_order = None  # filled in by _order_faces, as are the next three
        self.sigmas = None      # the complement sigma of each face sigma^, by face index
        self.kpolys = None      # the K-polynomials of their S_sigma
        self.inits = None       # the basis index of the leading monomial of each P_{S_sigma}
        self.component_sets = {}  # reduced components -> their _ComponentSet
        self.depth = 0          # E: the largest exponent encoded so far (see _encode)
        self.column = 0         # R = sum over e < E of 2^(e n): S * R is the column mask of a support S


def _basis(r, top):
    """Every exponent in N^r of total degree <= top, glex-largest first."""
    return tuple(sorted((e for e in product(range(top + 1), repeat=r) if sum(e) <= top),
                        key=glex_key, reverse=True))


def _pack(entries, width):
    """The packed vector of the entries v_0, ..., v_{L-1}: the integer
    sum_k v_k 2^(width (L - 1 - k)), entry v_k in the field at place
    L - 1 - k (see _frame)."""
    vector = 0
    for v in entries:
        vector = (vector << width) + v
    return vector


def _leading(vector, width):
    """(place, coefficient) of the first nonzero entry v_k of a nonzero
    packed vector, a +-combination of at most three vectors in range:
    p = L - 1 - k and v_k, the field of the highest bit and the vector
    rounded at that field (see _frame)."""
    place = vector.bit_length() // width
    shift = place * width
    return place, (vector + (1 << shift >> 1)) >> shift


def _range_masks(width, length):
    """(offset, spill) of the range guard on packed vectors of length
    entries: offset holds 2^(width - 3) in every field, spill the top two
    bits of every field (see _checked)."""
    ones = ((1 << width * length) - 1) // ((1 << width) - 1)
    return ones << width - 3, ones * (3 << width - 2)


def _checked(vector, masks):
    """vector, a +-combination of at most three vectors in range, once
    its entries are checked to lie in [-2^(W-3), 2^(W-3)), by
    (vector + offset) & spill == 0 (see _frame); FieldOverflow if not."""
    offset, spill = masks
    if (vector + offset) & spill:
        raise FieldOverflow("a packed vector entry left the range of its field")
    return vector


def _frame(X, top, P=None):
    """The frame of X on the basis of degree top, its faces ordered, with
    target D * P (_scaled_target) when P is given and that is integral.

    Every vector on the basis, L = len(basis) entries v_0 (the
    glex-largest monomial) to v_{L-1}, is one packed integer
    V = sum_k v_k 2^(W (L - 1 - k)) (_pack): entry v_k fills the field of
    W bits at place L - 1 - k.  So V + V' and V - V' are the packed sum
    and difference, and c V the packed multiple, whatever the entries.
    The width W is 3 + _HEADROOM plus the bit length of the largest
    entry the frame must hold first: the target's, and for each face the
    bound sum_d |c_d| max|N(d)| of its kernel vector (_kernel_vector).

    Invariant: every stored vector is in range, every entry in
    [-2^(W-3), 2^(W-3)).  By induction over the places a vector is stored:
    - the target: its entries are below 2^(W-3) by the choice of W;
    - a kernel vector sum_d c_d N(d), which is every face vector, face
      order vector and Koszul vector: its entries are at most
      B = sum_d |c_d| max|N(d)| in size, and it is stored only when
      B < 2^(W-3) (FieldOverflow otherwise);
    - the unit ideal's vector 0;
    - a pushed residual Q - F (_peel_off) and a new component set's
      vector v(J) + v(C) - v(J + C) (_meet): +-combinations of two or
      three stored vectors, stored only when the range guard (_checked)
      passes (FieldOverflow otherwise).
    Nothing else is stored.  So a +-combination V of at most three
    stored vectors has every entry at most 3 * 2^(W-3) < 2^(W-1) in size,
    and:
    - V determines its entries (balanced digits in base 2^W are unique),
      so V = 0 exactly when every entry is, and == on stored vectors is
      vector equality;
    - when V != 0, with first nonzero entry v_k at place p, the fields
      below add up to less than 3 * 2^(W-3) * 2^(W p) / (2^W - 1)
      < 2^(W p) / 2 in size.  So V has the sign of v_k, so the sign of
      an integer decides the sign of a leading coefficient;
      2^(W p - 1) < |V| < 2^(W (p + 1) - 1), so p = V.bit_length() // W;
      and V / 2^(W p) lies within 1/2 of v_k, so v_k is V rounded at
      place p (_leading);
    - the guard: V + O, O = 2^(W-3) in every field, has the digits
      d_k = v_k + 2^(W-3) in [-2^(W-2), 2^(W-1)].  If V is in range, the
      d_k lie in [0, 2^(W-2)) and are the base-2^W digits of V + O, so
      (V + O) & spill = 0, spill the top two bits of every field.
      Conversely, suppose (V + O) & spill = 0.  V + O > -2^(W L - 1),
      since the d_k are at least -2^(W-2); a negative integer above that
      has bit W L - 1, a spill bit, set, so V + O >= 0, and it is below
      2^(W L), so it has L base-2^W digits e_k, all below 2^(W-2).  Each
      d_k - e_k is at most 2^(W-1) in size, and the d_k and the e_k
      weighted by 2^(W (L - 1 - k)) have the same sum, so the lowest
      place where they differ would hold a nonzero multiple of 2^W: there
      is none.  Hence every v_k = e_k - 2^(W-3) is in range.
    No float and no modular reduction enters: a vector that would leave
    its range raises, it never wraps."""
    basis = _basis(X.r, top)
    everything = frozenset(range(X.n))
    kpolys = {face: face_k_polynomial(X, everything - face) for face in X.faces()}
    numerators = {}
    for kpoly in kpolys.values():
        for d, _ in kpoly:
            if d not in numerators:
                numerators[d] = _numerator(X, basis, d)
    scaled = None if P is None else _scaled_target(X, P)
    target = None if scaled is None else [scaled.get(e, 0) for e in basis]
    peak = max([sum(abs(c) * numerators[d][1] for d, c in kpoly) for kpoly in kpolys.values()]
               + [abs(c) for c in target or ()])
    width = peak.bit_length() + 3 + _HEADROOM
    frame = _Frame(X, basis, width, _range_masks(width, len(basis)),
                   {d: (_pack(entries, width), size) for d, (entries, size) in numerators.items()},
                   P, None if target is None else _pack(target, width),
                   frozenset(sum(1 << i for i in face) for face in X.delta))
    return _order_faces(frame, kpolys)


def _order_faces(frame, kpolys):
    """Fill in frame.face_order and, by face index, frame.sigmas,
    frame.kpolys and frame.inits, from kpolys = {face: K(S_sigma)};
    return frame.

    Each face's init is the basis index of the first nonzero entry of
    D * P_{S_sigma}, L - 1 less the leading place of its kernel vector
    (_kernel_vector, _leading), and the faces are sorted by
    (init, -len(face), sorted(face)).  That is the key on leading
    monomials that graded_total_order states: D > 0, so the first
    nonzero entry is the leading term of P_{S_sigma}, and the basis lists
    exponents glex-largest first, so index k < k' exactly when basis[k]
    is the larger monomial.  Ranking by init is therefore ranking by
    -glex_key of the leading monomial, ties included."""
    everything = frozenset(range(frame.X.n))
    last = len(frame.basis) - 1
    ranked = []
    for face, kpoly in kpolys.items():
        vector = _kernel_vector(frame, kpoly)
        if not vector:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        init = last - _leading(vector, frame.width)[0]
        ranked.append(((init, -len(face), tuple(sorted(face))), face, kpoly))
    ranked.sort(key=lambda entry: entry[0])
    faces = tuple(face for _, face, _ in ranked)
    frame.face_order = FaceOrder(faces, {f: i for i, f in enumerate(faces)})
    frame.sigmas = [everything - f for f in faces]
    frame.kpolys = [kpoly for _, _, kpoly in ranked]
    frame.inits = [key[0] for key, _, _ in ranked]
    return frame


def _working_frame(X, P):
    if P.nvars != X.r:
        raise ValueError(f"the polynomial has {P.nvars} variables, the grading has {X.r}")
    change = positive_orthant_change(X)
    if not change.is_identity():
        X = with_grading(X, il.matmul(change.inverse, X.grading))
        P = P.compose_linear(change.matrix)
    return _frame(X, max(X.d, P.total_degree()), P)


def _numerator(X, basis, d):
    """N(d) = D * P_S(t - d) read on basis, from shift_numerators: its
    entries and the size of the largest."""
    numerators = shift_numerators(X, ((d, 1),))
    entries = [numerators.get(e, 0) for e in basis]
    return entries, max(map(abs, entries))


def _kernel_vector(frame, kpoly):
    """D * sum_d c_d P_S(t - d) on frame.basis for kpoly = ((d, c_d), ...),
    packed, as sum_d c_d N(d).  The moment kernel is linear in kpoly, so
    this is shift_numerators(X, kpoly) read on the basis; N(d) is built
    once per distinct degree d, from shift_numerators(X, ((d, 1),)), in
    frame.shifted, with the size of its largest entry.  The vector is
    certified in range by sum_d |c_d| max|N(d)| < 2^(W-3) (see _frame)."""
    vector = bound = 0
    for d, c in kpoly:
        entry = frame.shifted.get(d)
        if entry is None:
            entries, size = _numerator(frame.X, frame.basis, d)
            entry = frame.shifted[d] = (_pack(entries, frame.width), size)
        vector += c * entry[0]
        bound += abs(c) * entry[1]
    if bound >> frame.width - 3:
        raise FieldOverflow("a kernel vector entry may leave the range of its field")
    return vector


def _face_vector(frame, ti, degree):
    """D * P_{S_sigma}(t - degree) on frame.basis, packed, sigma =
    frame.sigmas[ti], from the moment kernel over y^degree K(S_sigma; y):
    sum_d c_d N(d + degree) over K(S_sigma) = sum_d c_d y^d."""
    return _kernel_vector(frame, [(tuple(map(add, d, degree)), c) for d, c in frame.kpolys[ti]])


def _peel_off(frame, relaxed=False, count=False):
    """Yield the complete representations of frame.P in batches, one per
    popped state that completes any: (payload, leaves), whose reps are
    held + (leaf,) for each leaf in order, held the state's pairs (the
    pair tuple of its payload, () at the root) and each leaf a pair whose
    face vector equals the state's residual.  A
    new pair chains off an earlier pair j whose face is no later in the
    face order, along a variable x_l of face j: v + e_l on monomials (a
    set of pairs), or q + deg x_l on degrees when relaxed (a multiset).
    A state is deduplicated by its pair multiset, which determines the
    residual.  Nothing is yielded when frame.target is None: D * P is not
    integral, so no representation exists (see the module docstring).

    Residuals are packed integer vectors D * Q on frame.basis (see
    _frame), so the leading term is the first nonzero entry, at the
    highest place (_leading), and its coefficient is negative exactly
    when the residual is less than 0.  Only the faces whose leading
    place is the residual's can take a step, so faces are looked up by
    leading place.  A residual is kept only once the range guard passes
    (_checked), so every vector the search compares is in range.  Each
    distinct pair gets a number when the search first meets it (counting, when it
    is first met as other than a leaf, see below).  A state is
    deduplicated by a key that stands for its pair multiset, since
    numbering is one to one: on monomials a state is a set, and its key
    is the bitmask of its numbers, so "already in the state" is one bit;
    relaxed, it is the sorted tuple of its numbers.  Besides its key, a
    stack entry holds its depth and its payload, and no other copy of
    its path.  The pair's successor shifts (its shift
    plus each step of its face) and its StanleyPair (shift, sigma) depend
    on the pair alone, so they are built then, once, and every rep
    holding the pair shares that StanleyPair; relaxed, its shift is the
    pair's degree.  Each (face, degree) vector is built once per search,
    and each shift's degree once.

    Each state also carries its successor pool: every successor shift of
    its pairs, mapped to the least face index among the pairs it
    succeeds.  A pair on face ti chains off exactly the pool's shifts
    mapped to ti or less, the union of the successors of the state's
    pairs whose face is no later than ti, so one sort of the pool per
    popped state serves every face.  A child's pool is its parent's with
    the new pair's successors merged in.

    Each pushed state carries the payload _prefix(parent's payload, pair),
    None at the root, and a batch carries its state's payload.  A state
    is pushed at most once, so its payload belongs to one pair sequence,
    the pair tuple it holds, and the payloads on a batch's parent chain
    are those of held's prefixes.

    With count=True the search reads depths only, for the Gotzmann
    number: it yields depth + 1 for each popped state with a valid
    leaf candidate, one whose (face, degree) vector equals the residual
    and whose pair is not already in the state (any leaf candidate, when
    relaxed).  A leaf candidate is not numbered (a pair met before as
    other than a leaf keeps its number) and gets no key in seen, but its
    face vector is kept by (face, shift), so meeting it again is one
    lookup.  No StanleyPair or payload is built for any pair.  The
    lengths are the listing search's rep lengths, some repeated.  Proof:
    the residual is a function of the pair multiset; a leaf's multiset
    has zero residual and every pushed state's a nonzero one, so a leaf
    key and a state key are never equal, and dropping the leaf keys from
    seen changes no seen test on a non-leaf candidate, hence no push: the
    same states are popped in the same order.  At each, a valid leaf
    candidate that the listing search accepts is a rep of length
    depth + 1, and one it rejects as seen has the multiset, hence
    the length, of a rep it yielded before.  So the maximum is the
    listing search's, and the search yields nothing (NoRepresentation)
    exactly when the listing search does; the argument is the same for
    the relaxed search, on multisets."""
    target = frame.target
    if not target:
        return
    X, faces, sigmas = frame.X, frame.face_order.faces, frame.sigmas
    width, masks, last = frame.width, frame.masks, len(frame.basis) - 1
    if relaxed:
        steps = [X.variable_degree(ell) for ell in range(X.n)]
    else:
        steps = il.identity(X.n)
    by_place = {}  # leading place -> the faces with that leading place, in order
    for ti, init in enumerate(frame.inits):
        by_place.setdefault(last - init, []).append(ti)
    vectors = {}
    degrees = {}
    numbers = [{} for _ in faces]  # by face index: shift -> the pair's number
    leaf_vectors = [{} for _ in faces]  # counting, by face index: shift -> an unnumbered leaf's vector
    nodes = []     # by number: (StanleyPair or None when counting, successor shifts, face vector)

    def face_vector(ti, shift):
        if relaxed:
            degree = shift
        else:
            degree = degrees.get(shift)
            if degree is None:
                degree = degrees[shift] = X.degree(shift)
        face = vectors.get((ti, degree))
        if face is None:
            face = vectors[ti, degree] = _face_vector(frame, ti, degree)
        return face

    def node(ti, shift, face):
        successors = tuple(tuple(map(add, shift, steps[ell])) for ell in faces[ti])
        numbers[ti][shift] = len(nodes)
        nodes.append((None if count else StanleyPair(shift, sigmas[ti]), successors, face))
        return len(nodes) - 1

    seen = set()
    origin = [(0,) * len(steps[0])]
    stack = [(0, () if relaxed else 0, target, *_leading(target, width), None, {})]
    while stack:
        depth, key, Q, q_place, q_coeff, payload, pool = stack.pop()
        leaves = []
        complete = False  # a valid leaf candidate met, when counting
        ordered = sorted(pool)
        for ti in by_place.get(q_place, ()):
            shifts = [s for s in ordered if pool[s] <= ti] if depth else origin
            numbered, unnumbered = numbers[ti], leaf_vectors[ti]
            for shift in shifts:
                k = numbered.get(shift)
                if k is None:
                    face = unnumbered.get(shift)
                    if face is None:
                        face = face_vector(ti, shift)
                    if count and Q == face:  # unnumbered, so not in the state
                        unnumbered[shift] = face
                        complete = True
                        continue
                    k = node(ti, shift, face)
                if relaxed:
                    new_key = tuple(sorted(key + (k,)))
                else:
                    new_key = key | 1 << k
                    if new_key == key:
                        continue
                if count and Q == nodes[k][2]:
                    complete = True
                    continue
                if new_key in seen:
                    continue
                seen.add(new_key)
                pair, successors, face = nodes[k]
                if Q == face:
                    leaves.append(pair)
                    continue
                residual = Q - face
                if residual < 0:
                    continue
                r_place, r_coeff = _leading(residual, width)
                if r_place > q_place or (r_place == q_place and r_coeff >= q_coeff):
                    raise SearchExhausted("peel-off measure did not drop")
                _checked(residual, masks)
                child = dict(pool)
                for s in successors:
                    if child.get(s, ti) >= ti:
                        child[s] = ti
                stack.append((depth + 1, new_key, residual, r_place, r_coeff,
                              None if count else _prefix(payload, pair), child))
        if complete:
            yield depth + 1
        elif leaves:
            yield payload, leaves


def _encode(frame, a):
    """mask(a), the irreducible component m^a as one integer (see _meet):
    bit e * n + i for every i with a_i > 0 and every e < a_i.  When a has
    an exponent past frame.depth, frame.column grows to its rows first; a
    mask encoded before has no bit past the old rows, so it stays valid."""
    n = len(a)
    low = (1 << n) - 1
    top = max(a)
    if top > frame.depth:
        frame.depth = top
        frame.column = ((1 << top * n) - 1) // low
    return sum(((1 << e * n) - 1) // low << i for i, e in enumerate(a) if e)


def _koszul_vector(frame, c):
    """D * P_{S/C} on frame.basis, packed, for the irreducible C = m^a, c = mask(a):
    the moment kernel over K(S/C) = prod_{a_i > 0} (1 - y^{a_i deg x_i}),
    the Koszul numerator of the regular sequence x_i^{a_i}.  Column i of
    c holds a_i bits."""
    X = frame.X
    exponents = ((c >> i & frame.column).bit_count() for i in range(X.n))
    kpoly = koszul_numerator(
        (tuple(e * x for x in X.variable_degree(i)) for i, e in enumerate(exponents) if e),
        (0,) * X.r)
    return _kernel_vector(frame, kpoly.items())


class _ComponentSet:
    """A reduced tuple of component masks (see _meet), the packed integer
    vector D * P of its intersection on frame.basis, and the sets reached from it
    by meeting one more component (mask -> _ComponentSet); _realize fills
    in its verdict on frame.P and its ideal on demand."""

    __slots__ = ("components", "vector", "steps", "sign", "ideal")

    def __init__(self, components, vector):
        self.components = components
        self.vector = vector
        self.steps = {}
        self.sign = self.ideal = None


def _component_set(frame, components):
    """The _ComponentSet of a reduced tuple of component masks, built once
    per frame, in frame.component_sets (see _meet)."""
    node = frame.component_sets.get(components)
    if node is None:
        if len(components) > 1:
            return _meet(frame, _component_set(frame, components[:-1]), components[-1])
        # the unit ideal (S/S = 0), or C = m^c with its Koszul numerator
        vector = _koszul_vector(frame, components[0]) if components else 0
        node = frame.component_sets[components] = _ComponentSet(components, vector)
    return node


_UNSEEN = object()
_EXCESS = object()  # a state's component set at or under a state that overshoots P


def _meet(frame, node, c):
    """The _ComponentSet of J meet C, for J the ideal of node and C = m^c
    irreducible, given as its mask (_encode), memoized in node.steps.

    For monomial ideals 0 -> S/(J meet C) -> S/J + S/C -> S/(J + C) -> 0
    is exact, so v(J meet C) = v(J) + v(C) - v(J + C) for v = D * P.
    Monomial ideals form a distributive lattice, so J + C is the
    intersection of the D + C over J's components D, and a sum of
    irreducible ideals is irreducible.  A component that _meet drops
    changes no v: one supported off the fan has v(C) = 0, and so has
    every sum with it, so by the same sequence it leaves v unchanged; a
    redundant one leaves the ideal unchanged.  Hence v is a function of
    the reduced tuple (the components that contain no other, sorted),
    and so is the tuple of J meet C: C joins it unless C is dropped, and
    the components that contain C leave.

    Every component test is a few integer operations on masks.  On n
    variables, mask(a) has bit e * n + i for each i with a_i > 0 and each
    e < a_i: the pure powers x_i^e outside m^a on the support of a, laid
    out exponent-major.  Let low = 2^n - 1 and R = frame.column, the sum
    of 2^(e * n) over e < E for E at least every exponent encoded.  Row 0,
    A & low for A = mask(a), is supp a; column i, the bits i, n + i,
    2n + i, ..., holds exactly its first a_i bits; and for a support mask
    S, S * R is every bit of the columns in S that any mask can hold.
    With B = mask(b), Sa = A & low and Sb = B & low:
    - m^a contains m^b exactly when 0 < a_i <= b_i for every i in supp b
      (ideals.component_contains).  M = A & Sb * R is A on the columns of
      supp b: 0 < a_i there is M & low == Sb, and then a_i <= b_i there,
      column i of A inside column i of B, is M & ~B == 0, since columns
      are initial runs.
    - m^a + m^b is generated by the x_i^{a_i} and the x_i^{b_i}, so it is
      m^s with s_i = min(a_i, b_i) on the common support and the one
      nonzero exponent elsewhere: on the common support column i of the
      sum is the meet of the two columns, the shorter run; elsewhere it
      is the one nonempty column.  So its mask is
      (A & B) | (A & ~(Sb * R)) | (B & ~(Sa * R)).
    - m^a lies on the fan exactly when Sa is the support mask of a face,
      a member of frame.face_supports.
    Masks and exponent tuples correspond one to one, so masks key the
    memos as the tuples would.  A reduced tuple sorts its masks as
    integers; any fixed order gives the same vectors, and the order only
    decides which prefixes _component_set builds on the way.

    Termination: _component_set of a tuple of size k >= 2 calls
    _component_set on its first k - 1 components and _meet on that, and
    _meet on a set of size k - 1 asks _component_set for the singleton C
    and for the reduced sums D + C, at most k - 1 of them.  So every
    recursive call is on a strictly smaller tuple, down to the
    singletons (the Koszul numerator) and the empty tuple."""
    out = node.steps.get(c, _UNSEEN)
    if out is _UNSEEN:
        out = None  # J meet C = J, kept as None: node.steps[c] = node is a cycle
        low, column, faces = (1 << frame.X.n) - 1, frame.column, frame.face_supports
        cs = c & low
        spread = cs * column  # the columns of supp c
        if cs in faces:
            components = node.components
            met = [c]
            for d in components:
                ds = d & low
                m = c & ds * column
                if m & low == ds and not m & ~d:  # C contains D
                    break
                m = d & spread
                if m & low != cs or m & ~c:  # D does not contain C
                    met.append(d)
            else:
                met = tuple(sorted(met))
                out = frame.component_sets.get(met)
                if out is None:
                    sums = set()
                    for d in components:
                        s = (d & c) | (d & ~spread) | (c & ~((d & low) * column))
                        if s & low in faces:
                            sums.add(s)
                    reduced = []
                    for s in sums:
                        for t in sums:
                            ts = t & low
                            m = s & ts * column
                            if t != s and m & low == ts and not m & ~t:  # S contains T
                                break
                        else:
                            reduced.append(s)
                    vector = _checked(node.vector + _component_set(frame, (c,)).vector
                                      - _component_set(frame, tuple(sorted(reduced))).vector,
                                      frame.masks)
                    out = frame.component_sets.setdefault(met, _ComponentSet(met, vector))
        node.steps[c] = out
    return node if out is None else out


def _sort_keys(rep):
    return tuple(pair.sort_key() for pair in rep)


def _prefix(parent, pair):
    """The payload of a pushed search state, the prefix of the reps below
    it: [parent's payload (None at the root), the prefix's pairs (the
    parent's with pair appended), _ComponentSet or _EXCESS, filtered].
    _realize fills the last two on demand."""
    return [parent, (parent[1] if parent else ()) + (pair,), None, None]


class _Realized(NamedTuple):
    reps: list             # every rep the search handed over, in search order
    grouped: dict          # passing ideal -> its reps, in search order
    witnesses: dict        # passing ideal -> its least rep that is a Stanley filtration
    prefix_tests: int      # states given a component set and tested for excess over P
    skipped_reps: int      # reps whose parent state overshoots P
    filtration_steps: int  # states given a _filtration_step
    intersections: int     # component sets given an ideal


def _realize(frame, found):
    """List the representations of found, the (payload, leaves) batches
    of _peel_off(frame), and group them by ideal;
    keep the ideals whose quotient has Hilbert polynomial frame.P, each
    with its representations, and the least of them (by
    StanleyPair.sort_key) that is a Stanley filtration of S/I, when there
    is one.

    The exact check compares D * P_{S/I} on frame.basis with
    frame.target = D * frame.P in integers (hilbert._scaled_target), as
    packed vectors (see _frame); when D * frame.P is not integral the
    search yields no rep.

    A rep's ideal is the intersection of its pairs' irreducible
    components (pair_component, taken once per distinct pair and kept
    with its mask, _encode), and its D * P_{S/I} comes from those
    components alone (_meet), never from the ideal's generators or its
    K-polynomial.  A prefix's reduced component set does not depend on
    the order of its pairs, and the search pushes each state once, so
    each pushed state's payload (_prefix) keeps it, one _meet from its
    parent's, filled in up the chain once per batch, when the first batch
    below the state arrives.  Each leaf's own set is one step from its
    state's set, as a state's is from its parent's: _meet's memo answers
    a step met before.

    The set determines the prefix's ideal J: a pair's component is
    supported on its face sigma^, a face of the fan, so _meet keeps
    exactly the minimal members of the prefix's components, whose meet is
    J, and an irreducible ideal is meet-prime (see
    ideals.reduce_components), so none contains the meet of the others.
    The set is thus the unique irredundant irreducible decomposition of
    J, and keeps J and its verdict, the sign of the leading coefficient
    of D * P - D * P_{S/J}: the verdict when a state or leaf first
    reaches the set, J when a passing rep first needs it for grouping,
    met from the ideal of the state above (the root's set is (), with
    the unit ideal).  Distinct sets have distinct ideals, so
    intersect_irreducible never sees one input twice.  The same walk
    fills in each pushed state's filtration flag, which depends on the
    order of the pairs: that its _filtration_step on its parent's ideal
    and every step above it pass.  It runs once per batch with a passing
    leaf, and a leaf's flag is its state's flag and the leaf's own step
    on its state's ideal, so a passing rep is a Stanley filtration of
    its ideal exactly when its flag holds.  The least such rep per ideal
    is kept, by the tuple of its pairs' sort keys, taken only when a
    second one arrives.

    A rep whose parent state overshoots P is listed but not realized.
    Let I be a rep's ideal and J the ideal of one of its prefixes.  Then
    I is inside J, so H_{S/J} <= H_{S/I} at every degree, and
    P_{S/I} - P_{S/J} >= 0 deep in K.  In the working frame N^r lies in
    K.  Take positive integer weights w that rank the finitely many
    monomials of total degree <= max(d, deg P) as glex does;
    along the curve t(s) = (s^{w_1}, ..., s^{w_r}) in N^r the leading
    term of any polynomial on those monomials dominates.  So if
    D * P - D * P_{S/J} has a negative leading coefficient ("excess"),
    then P - P_{S/I} <= P - P_{S/J} is negative far along that curve,
    and no rep under the prefix has an ideal with polynomial P.  The
    packed vectors decide that sign exactly: it is the sign of the int
    target - vector, a difference of two vectors in range (see _frame),
    so target > vector and target < vector give the verdict.  The same
    argument with I the ideal of a longer prefix shows that every state
    below one with excess has excess too, so it is marked _EXCESS, as
    that state is, and a batch under it is listed whole.  Every rep that
    is not skipped gets the exact check."""
    X, target = frame.X, frame.target
    reps, grouped, witnesses = [], {}, {}
    components = {}  # id(pair) -> its irreducible component: (mask, exponent tuple)
    root = [None, (), _component_set(frame, ()), True]  # above the depth-one states
    root[2].ideal = MonomialIdeal.unit(X.n)
    counts = [0, 0, 0, 0]  # prefix_tests, skipped_reps, filtration_steps, intersections

    def component(pair):
        c = components.get(id(pair))
        if c is None:
            a = pair_component(pair)
            c = components[id(pair)] = (_encode(frame, a), a)
        return c

    def step(node, c):
        """The _ComponentSet of node met with the component of mask c, with its verdict."""
        node = _meet(frame, node, c)
        if node.sign is None:
            node.sign = (target > node.vector) - (target < node.vector)
        return node

    def unfilled(state, slot):
        """The state above those from state up whose slot is empty, and those, top first."""
        chain = []
        while state[slot] is None:
            chain.append(state)
            state = state[0] or root
        return state, reversed(chain)

    def settle(above, pair, node):
        """Give node, the set of above's prefix with pair appended, its
        ideal if it has none; return the flag of that prefix: above's
        flag and pair's _filtration_step on above's ideal."""
        ideal, a = above[2].ideal, component(pair)[1]
        if node.ideal is None:
            counts[3] += 1
            node.ideal = ideal.intersect_irreducible(a)
        counts[2] += above[3]  # no step after a failed one
        return above[3] and _filtration_step(ideal, pair, a)

    for payload, leaves in found:
        parent = payload or root
        batch = [parent[1] + (leaf,) for leaf in leaves]
        reps.extend(batch)
        if parent[2] is None:
            above, chain = unfilled(parent, 2)
            for state in chain:  # the batch's prefixes that have no component set yet
                if above[2] is _EXCESS:
                    state[2] = _EXCESS
                else:
                    counts[0] += 1
                    node = step(above[2], component(state[1][-1])[0])
                    state[2] = node if node.sign >= 0 else _EXCESS
                above = state
        base = parent[2]
        if base is _EXCESS:
            counts[1] += len(leaves)
            continue
        for rep, leaf in zip(batch, leaves):
            node = step(base, component(leaf)[0])
            if node.sign:
                continue
            if parent[3] is None:
                above, chain = unfilled(parent, 3)
                for state in chain:  # the batch's prefixes that have no filtration flag yet
                    state[3] = settle(above, state[1][-1], state[2])
                    above = state
            filtered = settle(parent, leaf, node)
            grouped.setdefault(node.ideal, []).append(rep)
            if filtered:
                current = witnesses.get(node.ideal)
                if current is None or _sort_keys(rep) < _sort_keys(current):
                    witnesses[node.ideal] = rep
    return _Realized(reps, grouped, witnesses, *counts)


class EnumerationResult(NamedTuple):
    ideals: list            # [(MonomialIdeal, witness Stanley filtration)]
    reps: list              # complete representations, one per pair set
    gotzmann_number: int    # max pairs over reps (0 when none)
    gotzmann_realized: int  # max pairs over reps whose ideal survived
    prefix_tests: int       # realize: states given a component set and tested for excess over P
    skipped_reps: int       # realize: reps whose parent state overshoots P, never met or intersected
    intersections: int      # realize: component sets given an ideal, for passing reps
    component_vectors: int  # realize: component sets built, prefixes of one build order included
    witness_fallbacks: int  # ideals whose witness came from the graded-order recursion
    filtration_steps: int   # realize: states of passing reps' prefixes given a filtration step


def run_enumeration(X, P):
    """Steps 1-5 of the peel-off search; see enumerate_saturated_ideals."""
    frame = _working_frame(X, P)
    realized = _realize(frame, _peel_off(frame))
    reps = realized.reps

    # an ideal none of whose reps is a Stanley filtration of it, in the
    # order the search built them, takes its witness from the recursion
    ideals, fallbacks = [], 0
    for ideal in sorted(realized.grouped):
        witness = realized.witnesses.get(ideal)
        if witness is None:
            fallbacks += 1
            witness = stanley_filtration(ideal, nice_strategy(frame.face_order))
        ideals.append((ideal, witness))

    return EnumerationResult(
        ideals=ideals,
        reps=reps,
        gotzmann_number=max(map(len, reps), default=0),
        gotzmann_realized=max(map(len, chain.from_iterable(realized.grouped.values())),
                              default=0),
        prefix_tests=realized.prefix_tests,
        skipped_reps=realized.skipped_reps,
        intersections=realized.intersections,
        component_vectors=len(frame.component_sets),
        witness_fallbacks=fallbacks,
        filtration_steps=realized.filtration_steps,
    )


def enumerate_saturated_ideals(X, P):
    """All B-saturated monomial ideals with Hilbert polynomial P,
    each with a witness Stanley filtration, canonically sorted."""
    return run_enumeration(X, P).ideals


def gotzmann_number(X, P):
    """Largest pair count over the representations the search constructs.

    Reads depths only: the count-only search (_peel_off with count=True)
    yields the length of each completing state's reps, and no rep is
    listed, numbered, keyed or given a StanleyPair.  The maximum is the
    listing search's (see _peel_off), and NoRepresentation is raised
    exactly when that search finds no rep."""
    return _longest(X, P, relaxed=False)


def gotzmann_upper_bound(X, P):
    """Largest pair count over the relaxed peel-off search.

    Same frame and loop as the monomial search, but a pair keeps only
    its face and degree: shifts live in Z^r and chain by
    q_i = q_j + deg x_l for an earlier compatible pair.  Distinct
    monomials can share a degree, so the pairs of a state form a
    multiset rather than a set.  Forgetting the monomials only adds
    representations, so this is always at least the Gotzmann number,
    and equal to it in the standard graded case.  Like gotzmann_number
    it reads depths only (count=True).
    """
    return _longest(X, P, relaxed=True)


def _longest(X, P, relaxed):
    """The largest rep length of the count-only search, relaxed or not;
    NoRepresentation when it yields none."""
    m = max(_peel_off(_working_frame(X, P), relaxed=relaxed, count=True), default=0)
    if not m:
        search = "relaxed search" if relaxed else "search"
        raise NoRepresentation(f"the {search} produced no representation of P")
    return m
