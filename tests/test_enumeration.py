"""The peel-off enumeration of saturated ideals and Gotzmann numbers."""

import tracemalloc
from collections import Counter
from functools import reduce
from itertools import combinations, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as gen

from toricreg import enumeration as en
from toricreg import hilbert as hb
from toricreg import intlinalg as il
from toricreg import ideals as mi
from toricreg import stanley as st
from toricreg import variety as tv
from toricreg.errors import (
    FieldOverflow,
    NoRepresentation,
    NoSaturatedIdeal,
    SearchExhausted,
    ZeroPolynomial,
)
from toricreg.hilbert import (
    coarse_k_polynomial,
    face_hilbert_polynomial,
    quotient_hilbert_polynomial,
    ring_hilbert_polynomial,
    shift_numerators,
)
from toricreg.hilbscheme import degree_set
from toricreg.ideals import b_saturate, is_b_saturated
from toricreg.multipoly import MultiPoly, glex_key, parse_poly
from toricreg.regularity import reg_bound_from_filtration, reg_bound_from_polynomial
from toricreg.stanley import pair_component, verify_stanley

from test_ideals import intersect, intersect_components
from test_stanley import colon_chain

P1 = tv.projective_space(1)
P2 = tv.projective_space(2)
P3 = tv.projective_space(3)
P4 = tv.projective_space(4)
P1xP1 = tv.product_projective(1, 1)
PP = tv.product_projective(2, 1)
P2xP2 = tv.product_projective(2, 2)
F1 = tv.hirzebruch(1)
F2 = tv.hirzebruch(2)
Xc = tv.build_variety(F2.fan)  # canonical grading: a non-identity orthant change
SWAP = ((0, 1), (1, 0))


def swapped(X):
    """X with its two grading rows swapped: glex t1 > t2 on it is the
    order t2 > t1 on X, for P.compose_linear(SWAP) in place of P."""
    return tv.with_grading(X, X.grading[::-1])


def component_ideal(a):
    """The irreducible ideal with exponent tuple a, from its generators."""
    n = len(a)
    return mi.MonomialIdeal(
        n, [tuple(e if j == i else 0 for j in range(n)) for i, e in enumerate(a) if e])


def _decode(frame, c):
    """The exponent tuple a of the component mask c = mask(a) (en._encode):
    column i of c holds a_i bits."""
    return tuple((c >> i & frame.column).bit_count() for i in range(frame.X.n))


def _unpack(vector, width, length):
    """The entries of a packed vector (en._pack) whose entries are below
    2^(width - 1) in size: its balanced base-2^width digits, the highest
    place first."""
    full, half = 1 << width, 1 << width - 1
    entries = []
    for _ in range(length):
        digit = vector & full - 1
        if digit >= half:
            digit -= full
        entries.append(digit)
        vector = (vector - digit) >> width
    assert vector == 0
    return tuple(reversed(entries))


def _unpacked(frame, vector):
    """A packed vector of the frame as its tuple of entries on frame.basis."""
    return _unpack(vector, frame.width, len(frame.basis))


def _on_basis(frame, coefficients):
    """A {exponent: coefficient} dict read on frame.basis."""
    return tuple(coefficients.get(e, 0) for e in frame.basis)


def _held(payload):
    """The pairs of the state a batch's payload belongs to, () at the root."""
    return payload[1] if payload else ()


def _reps(frame):
    """The search's representations, its batches flattened in order: each
    batch (payload, leaves) stands for held + (leaf,) per leaf, held the
    payload's pairs, a tuple of StanleyPairs, one object per distinct
    pair, shared across reps."""
    return [_held(payload) + (leaf,) for payload, leaves in en._peel_off(frame)
            for leaf in leaves]


def _indexed(frame, reps):
    """reps with each StanleyPair as its (face index, shift) tuple, the
    form the search oracles yield."""
    everything = frozenset(range(frame.X.n))
    index = frame.face_order.index
    return [tuple((index[everything - pair.face], pair.shift) for pair in rep) for rep in reps]


def _folded(reps):
    """The (payload, leaves) batches that realize reads, for any rep list:
    consecutive reps that share all but their last pair form one batch,
    and each prefix's payload is folded from the root with en._prefix
    once and shared by every batch below it, as the search shares a
    pushed state's payload among the batches below it."""
    payloads = {(): None}
    batches = []
    for rep in reps:
        held = rep[:-1]
        for i, pair in enumerate(held):
            if held[:i + 1] not in payloads:
                payloads[held[:i + 1]] = en._prefix(payloads[held[:i]], pair)
        if batches and batches[-1][0] is payloads[held]:
            batches[-1][1].append(rep[-1])
        else:
            batches.append((payloads[held], [rep[-1]]))
    return batches


def test_face_order_p2():
    order = en.graded_total_order(P2)
    assert order.faces == (frozenset(), frozenset({0}), frozenset({1}), frozenset({2}),
                           frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))
    assert order.index[frozenset({0})] < order.index[frozenset({1})]


def test_face_order_p1():
    assert en.graded_total_order(P1).faces == (
        frozenset(), frozenset({0}), frozenset({1}))


def test_face_order_refines_partial_order_and_inclusion():
    # glex t1 > t2, and t2 > t1 as glex on the swapped grading
    for X in (PP, F2, swapped(PP), swapped(F2)):
        order = en.graded_total_order(X)
        everything = frozenset(range(X.n))
        # whole-ring face first
        assert order.faces[0] == frozenset()
        inits = {f: face_hilbert_polynomial(X, everything - f).leading_term()[0]
                 for f in order.faces}
        for a in order.faces:
            for b in order.faces:
                # induced partial order: bigger initial comes earlier
                if glex_key(inits[a]) > glex_key(inits[b]):
                    assert order.index[a] < order.index[b]
                # reverse-inclusion refinement
                if a < b:
                    assert order.index[a] < order.index[b]


# P(1)-P(4), the products of projective spaces, Hirzebruch(0)-(3) and
# Hirzebruch(2) with its canonical grading
FACE_ORDER_VARIETIES = {
    "P1": P1, "P2": P2, "P3": P3, "P4": P4, "PxP(1,1)": P1xP1, "PxP(2,1)": PP,
    "PxP(2,2)": P2xP2, "Hirzebruch(0)": tv.hirzebruch(0), "Hirzebruch(1)": F1,
    "Hirzebruch(2)": F2, "Hirzebruch(3)": tv.hirzebruch(3), "Xc": Xc,
}


def _multipoly_face_order(X):
    """graded_total_order as it ranked faces on the leading monomials of
    the face polynomials, kept as the oracle of the integer face order."""
    everything = frozenset(range(X.n))

    def key(face):
        init = face_hilbert_polynomial(X, everything - face).leading_term()[0]
        return tuple(-x for x in glex_key(init)), -len(face), tuple(sorted(face))

    return tuple(sorted(X.faces(), key=key))


@pytest.mark.parametrize("X", FACE_ORDER_VARIETIES.values(), ids=FACE_ORDER_VARIETIES)
def test_integer_face_order_matches_multipoly_leading_monomials(X):
    # the face order and each face's leading index, read off the integer
    # face vectors, on the basis of degree d and on the working frame's
    # larger bases, in the working coordinates, under glex t1 > t2 and,
    # on two parameters, under t2 > t1 as glex on the swapped grading (Xc
    # swapped gets its own orthant change and regraded frame)
    high = MultiPoly(X.r, {(X.d + 2,) + (0,) * (X.r - 1): 1, (0,) * X.r: 1})
    for Y in [X] + ([swapped(X)] if X.r == 2 else []):
        assert en.graded_total_order(Y).faces == _multipoly_face_order(Y)
        for P in (parse_poly("1", nvars=X.r), high):
            frame = en._working_frame(Y, P)
            assert frame.face_order.faces == _multipoly_face_order(frame.X)
            assert frame.sigmas == [frozenset(range(X.n)) - f for f in frame.face_order.faces]
            for ti, sigma in enumerate(frame.sigmas):
                poly = face_hilbert_polynomial(frame.X, sigma)
                assert frame.basis[frame.inits[ti]] == poly.leading_term()[0]


@pytest.mark.parametrize("X", FACE_ORDER_VARIETIES.values(), ids=FACE_ORDER_VARIETIES)
def test_face_k_polynomial_is_the_face_prime_k_polynomial(X):
    # the Koszul numerator over the variables outside sigma, for every
    # subset sigma of the variables, faces of the fan or not; the face
    # polynomial built on it is the prime's quotient polynomial through
    # the recursion, and zero off the fan
    units = il.identity(X.n)
    for size in range(X.n + 1):
        for sigma in combinations(range(X.n), size):
            prime = mi.MonomialIdeal(X.n, [units[i] for i in range(X.n) if i not in sigma])
            assert hb.face_k_polynomial(X, frozenset(sigma)) == coarse_k_polynomial(X, prime)
            poly = face_hilbert_polynomial(X, sigma)
            assert poly == quotient_hilbert_polynomial(X, prime)
            on_fan = frozenset(range(X.n)) - frozenset(sigma) in X.delta
            assert poly.is_zero() != on_fan


def test_no_entry_point_builds_a_face_polynomial(monkeypatch):
    # the frame orders the faces and the search peels them off on integer
    # face vectors: no face or quotient Hilbert polynomial is built, on a
    # frame in the given coordinates or through an orthant change
    def forbidden(*args):
        raise AssertionError("a Hilbert polynomial was built")

    P = quotient_hilbert_polynomial(Xc, mi.MonomialIdeal(4, [(1, 0, 1, 0)]))
    monkeypatch.setattr(hb, "face_hilbert_polynomial", forbidden)
    monkeypatch.setattr(hb, "quotient_hilbert_polynomial", forbidden)
    assert not hasattr(en, "face_hilbert_polynomial")
    assert len(en.run_enumeration(tv.projective_space(2), parse_poly("3*t+1")).ideals) == 30
    assert len(en.run_enumeration(tv.build_variety(F2.fan), P).ideals) == 3
    assert en.gotzmann_number(tv.product_projective(2, 1), parse_poly("3*t1+1", nvars=2)) == 4
    assert en.gotzmann_number(tv.hirzebruch(1), parse_poly("t1+t2+1", nvars=2)) == 2
    assert degree_set(tv.projective_space(2), parse_poly("2"), seed=5).converged


def test_headline_example_thirty_ideals():
    result = en.run_enumeration(P2, parse_poly("3*t+1"))
    assert len(result.ideals) == 30
    assert result.gotzmann_number == 4
    assert result.gotzmann_realized == 4
    lex = mi.MonomialIdeal(3, [(4, 0, 0), (3, 1, 0)])
    assert any(ideal == lex for ideal, _ in result.ideals)
    for ideal, witness in result.ideals:
        assert is_b_saturated(ideal, P2)
        assert quotient_hilbert_polynomial(P2, ideal) == parse_poly("3*t+1")
        assert verify_stanley(ideal, witness, mode="filtration")


BOX_22 = [t for t in product(range(3), repeat=2) if any(t)]  # 0 < t <= (2,2)


@pytest.mark.parametrize("X, text, degrees, size, count", [
    (P2, "3*t+1", [(4,)], 2, 30),
    (tv.product_projective(1, 1), "t1+t2+1", BOX_22, 2, 4),
    (tv.product_projective(1, 1), "t1+2*t2+1", BOX_22, 2, 6),
    (tv.hirzebruch(1), "t1+t2+1", BOX_22, 2, 3),
    (tv.projective_space(3), "2*t+1", [(1,), (2,), (3,)], 3, 24),
], ids=["P2-3t+1", "PxP(1,1)-t1+t2+1", "PxP(1,1)-t1+2t2+1", "Hirzebruch(1)", "P3-2t+1"])
def test_headline_example_against_brute_force(X, text, degrees, size, count):
    # independent oracle: every antichain of at most size monomials of the
    # given degrees, saturated, filtered by Hilbert polynomial.  Each
    # oracle ideal is B-saturated with polynomial P, so it is enumerated
    # whatever degrees its generators need; equality says the degrees
    # here reach every enumerated ideal
    target = parse_poly(text, nvars=X.r)
    monomials = [m for t in degrees for m in mi.fiber_monomials(X, t)]
    expected = set()
    for k in range(1, size + 1):
        for gens in combinations(monomials, k):
            if any(mi.divides(a, b) for a, b in permutations(gens, 2)):
                continue
            sat = b_saturate(mi.MonomialIdeal(X.n, gens), X)
            if not sat.is_unit() and quotient_hilbert_polynomial(X, sat) == target:
                expected.add(sat)
    got = {ideal for ideal, _ in en.enumerate_saturated_ideals(X, target)}
    assert expected <= got
    assert got == expected
    assert len(got) == count


def test_whole_ring_polynomial_gives_zero_ideal():
    for X in (P1, P2, PP, F2):
        out = en.enumerate_saturated_ideals(X, ring_hilbert_polynomial(X))
        assert len(out) == 1
        assert out[0][0].is_zero()


def test_product_fixtures():
    assert en.gotzmann_number(PP, parse_poly("3*t1+1", nvars=2)) == 4
    assert en.gotzmann_number(PP, parse_poly("2*t1+t2+1", nvars=2)) == 3
    assert en.gotzmann_number(PP, parse_poly("t1+2*t2+1", nvars=2)) == 3
    assert en.enumerate_saturated_ideals(PP, parse_poly("3*t2+1", nvars=2)) == []
    with pytest.raises(NoRepresentation):
        en.gotzmann_number(PP, parse_poly("3*t2+1", nvars=2))


@pytest.mark.parametrize("entry", [
    en.run_enumeration, en.gotzmann_number, reg_bound_from_polynomial, degree_set,
], ids=["run_enumeration", "gotzmann_number", "reg_bound_from_polynomial", "degree_set"])
@pytest.mark.parametrize("X, P, message", [
    (PP, parse_poly("3*t1+1"), "1 variables, the grading has 2"),
    (P2, parse_poly("t1+t2+1", nvars=2), "2 variables, the grading has 1"),
], ids=["PxP(2,1)-univariate", "P2-bivariate"])
def test_polynomial_arity_must_match_the_grading(entry, X, P, message):
    # parse_poly infers one variable from "3*t1+1"; read with r variables
    # missing, such a P used to reach the search and fail deep inside it
    with pytest.raises(ValueError, match=message):
        entry(X, P)


def test_product_witnesses_are_true_filtrations():
    # off projective space a constructed representation can be a partial
    # filtration only (its fan-supported components still cut out the
    # ideal); the returned witness must nevertheless be a full filtration
    result = en.run_enumeration(PP, parse_poly("3*t1+1", nvars=2))
    assert len(result.reps) == 2107
    assert len(result.ideals) == 174
    for ideal, witness in result.ideals:
        assert is_b_saturated(ideal, PP)
        assert verify_stanley(ideal, witness, mode="filtration"), ideal
    # some witnesses are longer than the Gotzmann number: those are the
    # graded-order fallbacks for ideals whose representation was partial
    lengths = {len(w) for _, w in result.ideals}
    assert max(lengths) > result.gotzmann_number
    assert min(lengths) <= result.gotzmann_number


def test_points_have_gotzmann_number_equal_to_length():
    assert en.gotzmann_number(P2, parse_poly("1", nvars=1)) == 1
    assert en.gotzmann_number(P2, parse_poly("3", nvars=1)) == 3
    assert en.gotzmann_number(F2, parse_poly("2", nvars=2)) == 2
    assert en.gotzmann_number(PP, parse_poly("2", nvars=2)) == 2


def test_soundness_on_f2():
    # a curve class on the Hirzebruch surface
    P = quotient_hilbert_polynomial(F2, mi.MonomialIdeal(4, [(1, 0, 1, 0)]))
    out = en.enumerate_saturated_ideals(F2, P)
    assert out
    for ideal, witness in out:
        assert is_b_saturated(ideal, F2)
        assert quotient_hilbert_polynomial(F2, ideal) == P
        assert verify_stanley(ideal, witness, mode="filtration")


def test_two_line_families_on_the_quadric():
    # the two rulings of P^1 x P^1: each family's torus-fixed members
    Q = tv.product_projective(1, 1)
    first = en.enumerate_saturated_ideals(Q, parse_poly("t1+1", nvars=2))
    assert {ideal for ideal, _ in first} == {
        mi.MonomialIdeal(4, [(0, 0, 1, 0)]), mi.MonomialIdeal(4, [(0, 0, 0, 1)])}
    second = en.enumerate_saturated_ideals(Q, parse_poly("t2+1", nvars=2))
    assert {ideal for ideal, _ in second} == {
        mi.MonomialIdeal(4, [(1, 0, 0, 0)]), mi.MonomialIdeal(4, [(0, 1, 0, 0)])}


def test_order_independence_on_p1xp1():
    # t2 > t1 is glex on the swapped grading; the variables, and so the
    # ideals, are the same
    Q = tv.product_projective(1, 1)
    P = parse_poly("t1+ t2 + 1", nvars=2)
    a = {ideal for ideal, _ in en.enumerate_saturated_ideals(Q, P)}
    b = {ideal for ideal, _ in en.enumerate_saturated_ideals(swapped(Q), P.compose_linear(SWAP))}
    assert a == b
    assert a  # hyperplane-section-like class is realizable


# name -> (variety, P, (ideals, reps, m, realized m, prefix_tests,
# skipped_reps, intersections, component_vectors, witness_fallbacks,
# filtration_steps)) under glex t2 > t1: the values a
# permuted-order option on run_enumeration gave before it was replaced by
# the swapped grading, which gave the same ideals, witnesses, rep order,
# counters and bounds on each of these
SWAPPED_CASES = {
    "PxP(2,1)-3t1+1": (PP, "3*t1+1", (174, 2107, 4, 4, 74, 1308, 212, 632, 6, 334)),
    "PxP(2,1)-2t1+t2+1": (PP, "2*t1+t2+1", (54, 4860, 4, 4, 165, 3672, 75, 860, 12, 105)),
    "PxP(2,1)-t1+2t2+1": (PP, "t1+2*t2+1", (18, 144, 3, 3, 15, 36, 30, 148, 0, 30)),
    "PxP(1,1)-2t1+2t2": (P1xP1, "2*t1+2*t2", (9, 12, 4, 4, 11, 0, 20, 51, 0, 23)),
    "Hirzebruch(1)-t1+t2+1": (F1, "t1+t2+1", (3, 3, 2, 2, 2, 0, 5, 9, 0, 5)),
    "Hirzebruch(1)-3": (F1, "3", (40, 130, 3, 3, 24, 0, 58, 95, 11, 69)),
    "Hirzebruch(2)-t2+1": (F2, "t2+1", (2, 2, 1, 1, 0, 0, 2, 3, 0, 2)),
    "Hirzebruch(2)-t1+2t2+1": (F2, "t1+2*t2+1", (4, 4, 3, 3, 5, 0, 9, 16, 0, 9)),
    "PxP(2,2)-2": (P2xP2, "2", (72, 180, 2, 2, 9, 0, 81, 172, 18, 99)),
    "PxP(2,2)-t1+1": (P2xP2, "t1+1", (9, 9, 1, 1, 0, 0, 9, 10, 0, 9)),
}


@pytest.mark.parametrize("X, text, counts", SWAPPED_CASES.values(), ids=SWAPPED_CASES)
def test_swapped_grading_is_the_other_variable_order(X, text, counts):
    # the monomial order is glex t1 > t2; t2 > t1 is glex on the swapped
    # grading with P's variables swapped.  The order can move the bound:
    # on PxP(2,1) 2*t1+t2+1, m is 3 under t1 > t2 and 4 under t2 > t1.
    # The ideals are the B-saturated ideals with polynomial P either way
    P = parse_poly(text, nvars=2)
    Y, Q = swapped(X), P.compose_linear(SWAP)
    result = en.run_enumeration(Y, Q)
    assert (len(result.ideals), len(result.reps), result.gotzmann_number,
            result.gotzmann_realized, result.prefix_tests, result.skipped_reps,
            result.intersections, result.component_vectors, result.witness_fallbacks,
            result.filtration_steps) == counts
    assert en.gotzmann_number(Y, Q) == counts[2]
    assert [ideal for ideal, _ in result.ideals] == [
        ideal for ideal, _ in en.enumerate_saturated_ideals(X, P)]
    for ideal, witness in result.ideals:
        assert verify_stanley(ideal, witness, mode="filtration")
    if text == "2*t1+t2+1":
        assert en.gotzmann_number(X, P) == 3


@pytest.mark.parametrize("X, text, integral", [
    (P1xP1, "1/2*t1+1", False),
    (P2, "1/3*t+1", False),
    (P3, "1/4*t+1", False),
    (P3, "1/3*t+1", True),
    (P2, "3/2*t+1", True),
], ids=["PxP(1,1)-1/2t1+1", "P2-1/3t+1", "P3-1/4t+1", "P3-1/3t+1", "P2-3/2t+1"])
def test_non_integral_target_stops_the_search(monkeypatch, X, text, integral):
    # every D * P_{S_sigma}(t - delta) is integral, so a complete
    # representation sums to an integral D * P (D = 1 on PxP(1,1), 2 on
    # P(2), 6 on P(3)): when D * P is not integral the frame has no target
    # and no search builds a face vector.  When it is integral the search
    # runs, and on these targets finds nothing
    P = parse_poly(text, nvars=X.r)
    frame = en._working_frame(X, P)
    assert (frame.target is not None) == integral
    built = []
    original = en._face_vector

    def counting(*args):
        built.append(args[1:])
        return original(*args)

    monkeypatch.setattr(en, "_face_vector", counting)
    result = en.run_enumeration(X, P)
    assert (result.ideals, result.reps, result.gotzmann_number) == ([], [], 0)
    with pytest.raises(NoRepresentation):
        en.gotzmann_number(X, P)
    assert bool(built) == integral
    if not integral:
        assert result.component_vectors == 1  # realize's root set, the unit ideal


def test_enumeration_through_coordinate_change():
    # canonical-grading Hirzebruch forces a nontrivial orthant change
    Xc = tv.build_variety(F2.fan)
    I = mi.MonomialIdeal(4, [(1, 0, 1, 0)])
    P = quotient_hilbert_polynomial(Xc, I)
    out = en.enumerate_saturated_ideals(Xc, P)
    assert any(ideal == b_saturate(I, Xc) for ideal, _ in out)
    for ideal, _ in out:
        assert quotient_hilbert_polynomial(Xc, ideal) == P
    assert P == parse_poly("2*t2+2", nvars=2)
    assert en.gotzmann_number(Xc, P) == 2
    assert en.gotzmann_number(Xc, parse_poly("2*t1 - 2*t2 + 2", nvars=2)) == 5
    # the textbook grading of F2 needs no orthant change and the canonical
    # one does; the enumeration does not depend on the grading basis, but
    # the Gotzmann number does (4 against 5, 5 against 6)
    assert tv.positive_orthant_change(F2).is_identity()
    for gen, realized, numbers in [((0, 1, 0, 1), 4, (4, 5)), ((1, 1, 0, 1), 5, (5, 6))]:
        I = mi.MonomialIdeal(4, [gen])
        ideal_sets = []
        for X, number in zip((F2, Xc), numbers):
            P = quotient_hilbert_polynomial(X, I)
            result = en.run_enumeration(X, P)
            ideal_sets.append({ideal for ideal, _ in result.ideals})
            assert result.gotzmann_realized == realized
            assert en.gotzmann_number(X, P) == number
        assert ideal_sets[0] == ideal_sets[1]


def test_gotzmann_number_runs_only_frame_and_search(monkeypatch):
    # the bound needs only the representations' lengths: realizing ideals
    # and choosing witnesses must not run, and the count-only search
    # builds no pair object or payload
    from toricreg.regularity import reg_bound_from_polynomial

    P = parse_poly("3*t1+1", nvars=2)

    def forbidden(*args, **kwargs):
        raise AssertionError("a later stage ran")

    for name in ("_filtration_step", "stanley_filtration", "pair_component", "StanleyPair",
                 "_prefix"):
        monkeypatch.setattr(en, name, forbidden)
    assert en.gotzmann_number(PP, P) == 4
    assert reg_bound_from_polynomial(PP, P).generators == ((3, 3),)


def test_count_only_search_holds_under_a_third_of_the_listing_memory():
    # the listing search keys each of its 12487 leaves into seen and
    # builds a StanleyPair and a payload with its pair tuple per pushed
    # pair; the count-only search keys only the 1837 pushed states and
    # builds none of those.  The traced peak of each search alone, on its
    # own frame, read 1.39 MB listing and 0.28 MB counting
    P = parse_poly("4*t+1")
    peaks = {}
    for count in (False, True):
        frame = en._working_frame(P2, P)
        tracemalloc.start()
        try:
            if count:
                m = max(en._peel_off(frame, count=True))
            else:
                m = max(len(_held(payload)) + 1 for payload, _ in en._peel_off(frame))
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m == 7
    assert 3 * peaks[True] < peaks[False]


@pytest.mark.parametrize("X, P", [
    (P2, parse_poly("3*t+1")),
    (tv.projective_space(3), parse_poly("2*t+1")),
    (PP, parse_poly("3*t1+1", nvars=2)),
    (tv.product_projective(1, 1), parse_poly("t1+t2+1", nvars=2)),
    (tv.hirzebruch(1), parse_poly("t1+t2+1", nvars=2)),
    (F2, parse_poly("t1+2*t2+1", nvars=2)),
    (Xc, quotient_hilbert_polynomial(Xc, mi.MonomialIdeal(4, [(1, 0, 1, 0)]))),
], ids=["P2", "P3", "PxP(2,1)", "PxP(1,1)", "Hirzebruch(1)", "Hirzebruch(2)", "Xc-curve"])
def test_incremental_realize_matches_per_rep_intersection(X, P):
    # oracle: intersect every rep's components from scratch (reps may
    # overlap, so no disjointness check), group by ideal, then apply the
    # exact Hilbert-polynomial check
    frame = en._working_frame(X, P)
    reps = _reps(frame)
    grouped = {}
    for rep in reps:
        ideal = reduce(intersect,
                       (component_ideal(pair_component(pair)) for pair in rep))
        grouped.setdefault(ideal, []).append(rep)
    expected = {ideal: cands for ideal, cands in grouped.items()
                if quotient_hilbert_polynomial(frame.X, ideal) == frame.P}
    got = en._realize(frame, _folded(reps)).grouped
    assert expected
    assert list(got) == list(expected)
    assert got == expected
    # a component set's ideal, met from a parent set's, is its components' meet
    nodes = [node for node in frame.component_sets.values() if node.ideal is not None]
    assert len(nodes) > 1
    for node in nodes:
        components = [_decode(frame, c) for c in node.components]
        assert node.ideal == intersect_components(X.n, components), components


def _unpruned_realize(frame, reps):
    """Realize without prefix tests, kept as the oracle of the pruned
    stage: every rep is intersected along the shared-prefix path, and
    every distinct ideal gets the exact check."""
    denom = hb._ring_expansion(frame.X)[1]
    target = {e: c * denom for e, c in frame.P.terms.items()}
    if any(c.denominator != 1 for c in target.values()):
        return {}
    unit = mi.MonomialIdeal.unit(frame.X.n)
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
        if shift_numerators(frame.X, coarse_k_polynomial(frame.X, ideal)) == target
    }


@pytest.mark.parametrize("X, P", [
    (P2, parse_poly("3*t+1")),
    (P2, parse_poly("4*t+1")),
    (tv.projective_space(3), parse_poly("3*t+1")),
    (PP, parse_poly("3*t1+1", nvars=2)),
    (tv.product_projective(1, 1), parse_poly("t1+t2+1", nvars=2)),
    (tv.hirzebruch(1), parse_poly("t1+t2+1", nvars=2)),
    (Xc, quotient_hilbert_polynomial(Xc, mi.MonomialIdeal(4, [(1, 0, 1, 0)]))),
    (P2, parse_poly("1/2*t+1")),
    (P2, parse_poly("t^3+1")),
], ids=["P2-3t+1", "P2-4t+1", "P3", "PxP(2,1)", "PxP(1,1)", "Hirzebruch(1)", "Xc-curve",
        "P2-1/2t+1", "P2-t^3+1"])
def test_pruned_realize_matches_unpruned_oracle(X, P):
    # skipping reps under a failed prefix keeps every surviving ideal
    # with all its reps, in the same order
    frame = en._working_frame(X, P)
    reps = _reps(frame)
    expected = _unpruned_realize(frame, reps)
    realized = en._realize(frame, _folded(reps))
    got, skipped = realized.grouped, realized.skipped_reps
    assert list(got) == list(expected)
    assert got == expected
    assert skipped <= len(reps) - sum(map(len, got.values()))
    result = en.run_enumeration(X, P)
    assert result.skipped_reps == skipped
    assert result.gotzmann_realized == max(
        map(len, (rep for cands in expected.values() for rep in cands)), default=0)


def test_realize_intersects_only_past_shared_prefixes(monkeypatch):
    calls = []
    original = mi.MonomialIdeal.intersect_irreducible

    def counting(self, a):
        calls.append((self.gens, tuple(a)))
        return original(self, a)

    monkeypatch.setattr(mi.MonomialIdeal, "intersect_irreducible", counting)
    result = en.run_enumeration(tv.projective_space(2), parse_poly("4*t+1"))
    assert (len(result.reps), len(result.ideals)) == (12487, 330)
    # one intersection per rep and pair would be 74050 + 12487, one per
    # search state 14324, and one per distinct (ideal, component) input
    # 3328; the exact check needs no ideal, so only the prefixes of the
    # 1516 passing reps are intersected, 1103 distinct inputs, and a
    # prefix's component set determines its ideal, so each of their 544
    # distinct sets is intersected once
    assert len(calls) == len(set(calls)) == 544
    assert result.intersections == 544


@pytest.mark.parametrize("X, text, count", [
    (tv.projective_space(3), "3*t+1", 387),
    (PP, "3*t1+1", 212),
], ids=["P3", "PxP(2,1)"])
def test_intersection_count(X, text, count):
    # P(2) 4*t+1 (544) is pinned with its call count above
    result = en.run_enumeration(X, parse_poly(text, nvars=X.r))
    assert result.intersections == count


@pytest.mark.parametrize("X, text, size, reps, m, counters", [
    (P1, "12", 13, 2049, 12, (2058, 0, 91, 90, 145, 0)),
    (P2, "5", 108, 1980, 5, (414, 872, 425, 193, 235, 41)),
], ids=["P1-12", "P2-5"])
def test_large_exponent_counters(X, text, size, reps, m, counters):
    # pair components with exponents up to m, so the frame's column
    # grows during realize to m rows of masks.  The counters are
    # prefix_tests, skipped_reps, component_vectors, intersections,
    # filtration_steps and witness_fallbacks
    P = parse_poly(text)
    result = en.run_enumeration(X, P)
    assert (len(result.ideals), len(result.reps), result.gotzmann_number) == (size, reps, m)
    assert (result.prefix_tests, result.skipped_reps, result.component_vectors,
            result.intersections, result.filtration_steps, result.witness_fallbacks) == counters
    frame = en._working_frame(X, P)
    en._realize(frame, _folded(_reps(frame)))
    assert frame.depth == m


# P(2), P(3), PxP(1,1), PxP(2,1), Hirzebruch(1), Hirzebruch(2), and the
# two-point blowup of P(2) read from a dict with its canonical grading
MEET_VARIETIES = [P2, tv.projective_space(3), tv.product_projective(1, 1), PP,
                  tv.hirzebruch(1), F2,
                  tv.variety_from_dict({
                      "rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]],
                      "max_cones": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]})]


@given(gen.data())
def test_component_vector_matches_k_polynomial(data):
    # D * P of an intersection of irreducible components by inclusion-
    # exclusion over the components, against the moment kernel over the
    # coarse K-polynomial of the intersected ideal, after every component.
    # Components repeat, nest (an earlier one with its exponents raised
    # and part of its support dropped) and are drawn off the fan; each is
    # encoded when it is met, so a raised one grows the frame's column
    # after the sets above it were built.  The set keeps exactly the
    # minimal components on the fan
    X = data.draw(gen.sampled_from(MEET_VARIETIES))
    frame = en._working_frame(X, parse_poly("1", nvars=X.r))
    components = data.draw(gen.lists(gen.tuples(*[gen.integers(0, 3)] * X.n),
                                     min_size=1, max_size=4))
    for _ in range(data.draw(gen.integers(0, 3))):
        a = data.draw(gen.sampled_from(components))
        raise_by = data.draw(gen.tuples(*[gen.integers(0, 5)] * X.n))
        keep = data.draw(gen.tuples(*[gen.booleans()] * X.n))
        components.append(tuple(e + b if e and k else 0 for e, b, k in zip(a, raise_by, keep)))
    components = data.draw(gen.permutations(components))
    def expected(ideal):
        return _on_basis(frame, shift_numerators(frame.X, coarse_k_polynomial(frame.X, ideal)))

    node = en._component_set(frame, ())
    ideal = mi.MonomialIdeal.unit(X.n)
    assert _unpacked(frame, node.vector) == expected(ideal)
    for k, c in enumerate(components):
        node = en._meet(frame, node, en._encode(frame, c))
        ideal = ideal.intersect_irreducible(c)
        assert _unpacked(frame, node.vector) == expected(ideal), (X, components, c)
        assert sorted(_decode(frame, d) for d in node.components) == list(
            mi.reduce_components(d for d in components[:k + 1] if mi.on_fan(d, X.delta)))


@given(gen.data())
def test_packed_arithmetic_matches_tuples(data):
    # pack, unpack, +-, ==, sign, leading term and the range guard on up
    # to three packed vectors in range, against tuple arithmetic, with
    # entries drawn at and next to the edges of the range
    # [-2^(W-3), 2^(W-3)) as well as inside it.  The width is an argument
    # of the helpers, so narrow and wide fields are both drawn
    width = data.draw(gen.integers(4, 80))
    length = data.draw(gen.integers(1, 8))
    low, high = -(1 << width - 3), (1 << width - 3) - 1
    entry = gen.one_of(gen.sampled_from([low, low + 1, -1, 0, 1, high - 1, high]),
                       gen.integers(low, high))
    vectors = data.draw(gen.lists(gen.tuples(*[entry] * length), min_size=1, max_size=3))
    signs = data.draw(gen.tuples(*[gen.sampled_from([1, -1])] * len(vectors)))
    masks = en._range_masks(width, length)
    packed = [en._pack(v, width) for v in vectors]
    for v, p in zip(vectors, packed):
        assert _unpack(p, width, length) == v
        assert en._checked(p, masks) == p
        assert (p == packed[0]) == (v == vectors[0])
    total = tuple(sum(s * v[k] for s, v in zip(signs, vectors)) for k in range(length))
    combined = sum(s * p for s, p in zip(signs, packed))
    assert combined == en._pack(total, width)
    assert _unpack(combined, width, length) == total
    assert (combined == 0) == (not any(total))
    nonzero = [(length - 1 - k, c) for k, c in enumerate(total) if c]
    if nonzero:
        assert en._leading(combined, width) == nonzero[0]
        assert (combined > 0) == (nonzero[0][1] > 0)
    if all(low <= c <= high for c in total):
        assert en._checked(combined, masks) == combined
    else:
        with pytest.raises(FieldOverflow):
            en._checked(combined, masks)


@pytest.mark.parametrize("width", [4, 5, 31, 32, 64])
def test_range_guard_holds_the_edges(width):
    # one entry at each edge of the range passes, one past it raises,
    # in every field, and so does the sum of two vectors in range that
    # leaves it; the guard never wraps an entry into range
    low, high = -(1 << width - 3), (1 << width - 3) - 1
    masks = en._range_masks(width, 3)
    for k in range(3):
        for value, fits in ((low, True), (high, True), (low - 1, False), (high + 1, False)):
            entries = tuple(value if i == k else 0 for i in range(3))
            vector = en._pack(entries, width)
            if fits:
                assert en._checked(vector, masks) == vector
            else:
                with pytest.raises(FieldOverflow):
                    en._checked(vector, masks)
        half = en._pack(tuple(high if i == k else 1 for i in range(3)), width)
        with pytest.raises(FieldOverflow):
            en._checked(half + half, masks)
        with pytest.raises(FieldOverflow):
            en._checked(-half - half - half, masks)


def test_kernel_vector_past_the_range_raises():
    # a face vector far out in degree has entries near d^2 = 2^80 on
    # P(2), past the range of the frame's fields: building it raises
    # FieldOverflow instead of storing a wrapped vector
    frame = en._working_frame(P2, parse_poly("3*t+1"))
    assert frame.width < 80
    assert en._face_vector(frame, 0, (7,))
    with pytest.raises(FieldOverflow):
        en._face_vector(frame, 0, (1 << 40,))


def test_search_and_meet_guard_the_vectors_they_store():
    # stored vectors at the edge of the range whose next residual or
    # component-set vector leaves it: the search and _meet raise
    # FieldOverflow where they would store it.  On P(2) 4*t+1 the target
    # is D * P = (0, 8, 2) and every face vector the first step peels has
    # a positive constant entry
    frame = en._working_frame(P2, parse_poly("4*t+1"))
    low, high = -(1 << frame.width - 3), (1 << frame.width - 3) - 1
    assert _unpacked(frame, frame.target) == (0, 8, 2)
    frame.target = en._pack((0, 8, low), frame.width)
    with pytest.raises(FieldOverflow):
        list(en._peel_off(frame))
    c = en._encode(frame, (1, 0, 0))
    assert _unpacked(frame, en._koszul_vector(frame, c))[-1] > 0
    edge = en._ComponentSet((), en._pack((0, 0, high), frame.width))
    with pytest.raises(FieldOverflow):
        en._meet(frame, edge, c)


FRAME_CASES = {
    "P(1)": (P1, "3*t+1"), "P(2)": (P2, "4*t+1"), "P(3)": (P3, "3*t+1"),
    "PxP(1,1)": (P1xP1, "t1+t2+1"), "PxP(2,1)": (PP, "2*t1+t2+1"),
    "PxP(2,2)": (P2xP2, "t1*t2+t1+t2+1"), "Hirzebruch(1)": (F1, "t1+t2+1"),
    "Hirzebruch(2)": (F2, "t1+2*t2+1"),
}


@pytest.mark.parametrize("X, text", FRAME_CASES.values(), ids=FRAME_CASES)
def test_packed_frame_vectors_unpack_to_the_moment_kernel(X, text):
    # the target, every N(d), face vectors at a few degrees and Koszul
    # vectors of a few components, unpacked, are _scaled_target and
    # shift_numerators read on the basis; each N(d) keeps its largest
    # entry's size
    frame = en._working_frame(X, parse_poly(text, nvars=X.r))
    Y = frame.X
    assert _unpacked(frame, frame.target) == _on_basis(frame, hb._scaled_target(Y, frame.P))
    for d, (vector, size) in frame.shifted.items():
        entries = _on_basis(frame, shift_numerators(Y, ((d, 1),)))
        assert _unpacked(frame, vector) == entries
        assert size == max(map(abs, entries))
    degrees = [(0,) * Y.r] + [Y.variable_degree(i) for i in range(Y.n)]
    degrees.append(tuple(map(sum, zip(*degrees))))
    for ti, kpoly in enumerate(frame.kpolys):
        for degree in degrees:
            shifted = [(tuple(a + b for a, b in zip(d, degree)), c) for d, c in kpoly]
            assert _unpacked(frame, en._face_vector(frame, ti, degree)) == _on_basis(
                frame, shift_numerators(Y, shifted))
    for a in [(1,) + (0,) * (Y.n - 1), (2, 1) + (0,) * (Y.n - 2), (1,) * Y.n, (3,) * Y.n]:
        vector = en._koszul_vector(frame, en._encode(frame, a))
        assert _unpacked(frame, vector) == _on_basis(
            frame, shift_numerators(Y, coarse_k_polynomial(Y, component_ideal(a))))


def test_frame_holds_a_target_with_huge_coefficients():
    # the field width is sized from the target, so D * P = 2 * 10^24 t + 2
    # (D = 2 on P(2)) is stored and unpacks exactly.  Only the frame is
    # built: a search for this target has no budget
    frame = en._working_frame(P2, parse_poly("10^24*t+1"))
    assert frame.width > (2 * 10 ** 24).bit_length() + 3
    assert _unpacked(frame, frame.target) == (0, 2 * 10 ** 24, 2)
    assert en._leading(frame.target, frame.width) == (1, 2 * 10 ** 24)


def _mask_contains(frame, a, b):
    """Whether m^a contains m^b, from the masks (see en._meet)."""
    low = (1 << frame.X.n) - 1
    m = a & (b & low) * frame.column
    return m & low == b & low and not m & ~b


def _mask_sum(frame, a, b):
    """The mask of m^a + m^b (see en._meet)."""
    low = (1 << frame.X.n) - 1
    return (a & b) | (a & ~((b & low) * frame.column)) | (b & ~((a & low) * frame.column))


@given(gen.data())
def test_mask_algebra_matches_the_tuple_helpers(data):
    # encode some tuples, then one with a larger exponent than any before
    # (the frame's column grows), then the rest: every mask decodes to
    # its tuple, and containment, sum and fan support of every pair of
    # masks, formed before or after the column grew, agree with the
    # tuple helpers and with the ideals themselves.  The zero tuple (the
    # zero ideal) and the full support (off every complete fan) are
    # always drawn
    X = data.draw(gen.sampled_from([P2, tv.projective_space(3), PP, tv.hirzebruch(1)]))
    frame = en._working_frame(X, parse_poly("1", nvars=X.r))
    exponents = gen.tuples(*[gen.integers(0, 4)] * X.n)
    early = [(0,) * X.n, (1,) * X.n] + data.draw(gen.lists(exponents, max_size=4))
    masks = {a: en._encode(frame, a) for a in early}
    depth = frame.depth
    grown = tuple(depth + data.draw(gen.integers(1, 3)) if i == 0 else e
                  for i, e in enumerate(data.draw(exponents)))
    late = [grown] + data.draw(gen.lists(gen.tuples(*[gen.integers(0, depth + 3)] * X.n),
                                         max_size=4))
    masks.update((a, en._encode(frame, a)) for a in late)
    assert frame.depth > depth
    low = (1 << X.n) - 1
    for a, ma in masks.items():
        assert _decode(frame, ma) == a
        assert (ma & low in frame.face_supports) == mi.on_fan(a, X.delta)
        for b, mb in masks.items():
            assert _mask_contains(frame, ma, mb) == mi.component_contains(a, b), (a, b)
            assert _mask_contains(frame, ma, mb) == all(
                component_ideal(a).contains(g) for g in component_ideal(b).gens)
            total = _decode(frame, _mask_sum(frame, ma, mb))
            assert component_ideal(total) == mi.MonomialIdeal(
                X.n, component_ideal(a).gens + component_ideal(b).gens), (a, b)


def _multipoly_peel_off(frame):
    """The peel-off search on MultiPoly residuals, kept as the oracle of
    the integer-vector search: the same loop, with each leading term
    found by the monomial order and each shifted face polynomial from
    MultiPoly.shift."""
    if frame.P.is_zero():
        return
    X, faces = frame.X, frame.face_order.faces
    inits = [face_hilbert_polynomial(X, s).leading_term()[0] for s in frame.sigmas]
    shifted = {}

    def face_poly(ti, degree):
        if (ti, degree) not in shifted:
            shifted[ti, degree] = face_hilbert_polynomial(X, frame.sigmas[ti]).shift(degree)
        return shifted[ti, degree]

    steps = [tuple(int(i == ell) for i in range(X.n)) for ell in range(X.n)]
    seen = set()
    stack = [((), frame.P)]
    while stack:
        pairs, Q = stack.pop()
        q_init, q_coeff = Q.leading_term()
        for ti, init in enumerate(inits):
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
                if new_pair in pairs:
                    continue
                state = pairs + (new_pair,)
                key = tuple(sorted(state))
                if key in seen:
                    continue
                seen.add(key)
                residual = Q - face_poly(ti, X.degree(shift))
                if residual.is_zero():
                    yield state
                    continue
                r_init, r_coeff = residual.leading_term()
                if r_coeff <= 0:
                    continue
                if (glex_key(r_init), r_coeff) >= (glex_key(q_init), q_coeff):
                    raise SearchExhausted("peel-off measure did not drop")
                stack.append((state, residual))


@pytest.mark.parametrize("X, P", [
    (P2, parse_poly("4*t+1")),
    (P2, parse_poly("2*t+2")),
    (tv.projective_space(3), parse_poly("3*t+1")),
    (PP, parse_poly("3*t1+1", nvars=2)),
    (PP, parse_poly("2*t1+t2+1", nvars=2)),
    (tv.product_projective(1, 1), parse_poly("t1+t2+1", nvars=2)),
    (tv.hirzebruch(1), parse_poly("t1+t2+1", nvars=2)),
    (Xc, quotient_hilbert_polynomial(Xc, mi.MonomialIdeal(4, [(1, 0, 1, 0)]))),
    (Xc, parse_poly("4", nvars=2)),
], ids=[f"monomial-{name}" for name in (
    "P2-4t+1", "P2-2t+2", "P3", "PxP(2,1)-3t1+1", "PxP(2,1)-2t1+t2+1", "PxP(1,1)",
    "Hirzebruch(1)", "Xc-curve", "Xc-4-points")])
def test_integer_search_matches_multipoly_oracle(X, P):
    # the ids keep the name of the search they check: the peel-off of
    # monomial pairs
    frame = en._working_frame(X, P)
    got = _indexed(frame, _reps(frame))
    assert got
    assert got == list(_multipoly_peel_off(frame))


def _leading(vector):
    """(index, coefficient) of the first nonzero entry: the leading term."""
    for k, c in enumerate(vector):
        if c:
            return k, c
    raise ZeroPolynomial("the zero polynomial has no leading term")


def _reference_peel_off(frame):
    """The integer-vector search before faces were looked up by leading
    index and monomial states were keyed by bitmask, kept as the oracle
    of the search's order: a state is the tuple of its pair numbers, its
    key their sorted tuple, and each candidate scans every face and finds
    the residual's leading term from the front, on the unpacked vectors."""
    if frame.target is None:
        return
    target = _unpacked(frame, frame.target)
    if not any(target):
        return
    X, faces = frame.X, frame.face_order.faces
    steps = [tuple(int(i == ell) for i in range(X.n)) for ell in range(X.n)]
    vectors = {}
    numbers = {}   # (face index, shift) -> the pair's number
    nodes = []     # by number: (face index, successor shifts, face vector)

    def node(ti, shift):
        degree = X.degree(shift)
        face = vectors.get((ti, degree))
        if face is None:
            face = vectors[ti, degree] = _unpacked(frame, en._face_vector(frame, ti, degree))
        successors = frozenset(tuple(a + b for a, b in zip(shift, steps[ell])) for ell in faces[ti])
        numbers[ti, shift] = len(nodes)
        nodes.append((ti, successors, face))
        return len(nodes) - 1

    seen = set()
    stack = [((), (), target, *_leading(target))]
    while stack:
        state, held, Q, q_init, q_coeff = stack.pop()
        for ti, init in enumerate(frame.inits):
            if init != q_init:
                continue
            if state:
                shifts = sorted(frozenset().union(
                    *(nodes[k][1] for k in state if nodes[k][0] <= ti)))
            else:
                shifts = [(0,) * len(steps[0])]
            for shift in shifts:
                k = numbers.get((ti, shift))
                if k is None:
                    k = node(ti, shift)
                elif k in state:
                    continue
                key = tuple(sorted(state + (k,)))
                if key in seen:
                    continue
                seen.add(key)
                residual = tuple(a - b for a, b in zip(Q, nodes[k][2]))
                complete = not any(residual)
                if not complete:
                    r_init, r_coeff = _leading(residual)
                    if r_coeff <= 0:
                        continue
                    if r_init < q_init or (r_init == q_init and r_coeff >= q_coeff):
                        raise SearchExhausted("peel-off measure did not drop")
                if complete:
                    yield held + ((ti, shift),)
                else:
                    stack.append((state + (k,), held + ((ti, shift),), residual, r_init, r_coeff))


SEARCH_CASES = {
    "P2-3t+1": (P2, "3*t+1"), "P2-4t+1": (P2, "4*t+1"), "P2-t^3+1": (P2, "t^3+1"),
    "P3-3t+1": (tv.projective_space(3), "3*t+1"),
    "PxP(2,1)-3t1+1": (PP, "3*t1+1"), "PxP(2,1)-2t1+t2+1": (PP, "2*t1+t2+1"),
    "PxP(2,1)-3t2+1": (PP, "3*t2+1"),
    "PxP(1,1)-t1+t2+1": (tv.product_projective(1, 1), "t1+t2+1"),
    "Hirzebruch(1)-t1+t2+1": (tv.hirzebruch(1), "t1+t2+1"),
    "P2-1/3t+1": (P2, "1/3*t+1"),
    "Xc-4": (Xc, "4"), "Xc-2t1-2t2+2": (Xc, "2*t1 - 2*t2 + 2"),
    "PxP(2,2)-2": (P2xP2, "2"), "Hirzebruch(3)-3": (tv.hirzebruch(3), "3"),
    "P4-2t+1": (P4, "2*t+1"),
}


@pytest.mark.parametrize("X, text", SEARCH_CASES.values(),
                         ids=[f"monomial-{name}" for name in SEARCH_CASES])
def test_search_matches_reference_order(X, text):
    # the order of the reps fixes each rep's pair order, hence the
    # witnesses: it must be the reference search's, rep for rep.  The
    # count-only search yields exactly the listing search's rep lengths,
    # some repeated, so its maximum is theirs, and it and the entry point
    # built on it find nothing exactly when the listing search does: on
    # 3*t2+1 and on 1/3*t+1, whose D * P is not integral
    P = parse_poly(text, nvars=X.r)
    frame = en._working_frame(X, P)
    got = _indexed(frame, _reps(frame))
    assert got == list(_reference_peel_off(frame))
    if text in ("3*t2+1", "1/3*t+1"):
        assert got == []
    lengths = list(en._peel_off(en._working_frame(X, P), count=True))
    assert set(lengths) == set(map(len, got))
    if got:
        assert max(lengths) == max(map(len, got)) == en.gotzmann_number(X, P)
    else:
        with pytest.raises(NoRepresentation):
            en.gotzmann_number(X, P)


def _tuple_realize(frame, found):
    """Realize as it ran when every rep was built as a tuple, kept as the
    oracle of the batch-held stage: it lists every rep the search hands
    over and groups the passing ones by ideal.  Returns (reps, grouped,
    witnesses, prefix_tests, skipped_reps, filtration_steps,
    intersections)."""
    target = frame.target
    reps, grouped, witnesses = [], {}, {}
    components = {}
    root = [None, (), en._component_set(frame, ()), True]
    root[2].ideal = mi.MonomialIdeal.unit(frame.X.n)
    counts = [0, 0, 0, 0]

    def component(pair):
        if id(pair) not in components:
            a = pair_component(pair)
            components[id(pair)] = (en._encode(frame, a), a)
        return components[id(pair)]

    def step(node, c):
        node = en._meet(frame, node, c)
        if node.sign is None:
            node.sign = (target > node.vector) - (target < node.vector)
        return node

    def unfilled(state, slot):
        chain = []
        while state[slot] is None:
            chain.append(state)
            state = state[0] or root
        return state, reversed(chain)

    def settle(above, pair, node):
        ideal, a = above[2].ideal, component(pair)[1]
        if node.ideal is None:
            counts[3] += 1
            node.ideal = ideal.intersect_irreducible(a)
        counts[2] += above[3]
        return above[3] and st._filtration_step(ideal, pair, a)

    for payload, leaves in found:
        parent = payload or root
        batch = [parent[1] + (leaf,) for leaf in leaves]
        reps.extend(batch)
        if parent[2] is None:
            above, chain = unfilled(parent, 2)
            for state in chain:
                if above[2] is en._EXCESS:
                    state[2] = en._EXCESS
                else:
                    counts[0] += 1
                    node = step(above[2], component(state[1][-1])[0])
                    state[2] = node if node.sign >= 0 else en._EXCESS
                above = state
        base = parent[2]
        if base is en._EXCESS:
            counts[1] += len(leaves)
            continue
        for rep, leaf in zip(batch, leaves):
            node = step(base, component(leaf)[0])
            if node.sign:
                continue
            if parent[3] is None:
                above, chain = unfilled(parent, 3)
                for state in chain:
                    state[3] = settle(above, state[1][-1], state[2])
                    above = state
            filtered = settle(parent, leaf, node)
            grouped.setdefault(node.ideal, []).append(rep)
            if filtered:
                current = witnesses.get(node.ideal)
                if current is None or en._sort_keys(rep) < en._sort_keys(current):
                    witnesses[node.ideal] = rep
    return (reps, grouped, witnesses, *counts)


@pytest.mark.parametrize("X, text", SEARCH_CASES.values(), ids=SEARCH_CASES)
def test_reps_are_a_sequence_over_the_batches(X, text):
    # run_enumeration holds the reps per batch of the search and builds a
    # tuple only for a passing rep; the sequence reads as the listing
    # search's reps, and everything else equals the tuple-per-rep path
    P = parse_poly(text, nvars=X.r)
    result = en.run_enumeration(X, P)
    listed = _reps(en._working_frame(X, P))
    reps = result.reps
    assert list(reps) == listed
    assert len(reps) == len(listed)
    assert reps == listed and listed == reps
    assert reps == tuple(listed) and not reps != listed
    if listed:
        assert reps != listed[:-1] and listed[:-1] != reps
        assert reps != listed[::-1]
    assert result.gotzmann_number == max(map(len, listed), default=0)

    frame = en._working_frame(X, P)
    old_reps, grouped, witnesses, prefix_tests, skipped, steps, intersections = (
        _tuple_realize(frame, en._peel_off(frame)))
    assert old_reps == listed
    new_frame = en._working_frame(X, P)
    realized = en._realize(new_frame, en._peel_off(new_frame))
    assert list(realized.grouped) == list(grouped)
    assert realized.grouped == grouped
    assert realized.witnesses == witnesses
    ideals, fallbacks = [], 0
    for ideal in sorted(grouped):
        witness = witnesses.get(ideal)
        if witness is None:
            fallbacks += 1
            witness = st.stanley_filtration(ideal, st.nice_strategy(frame.face_order))
        ideals.append((ideal, witness))
    assert result.ideals == ideals
    assert result.gotzmann_realized == max(
        (len(rep) for cands in grouped.values() for rep in cands), default=0)
    assert (result.prefix_tests, result.skipped_reps, result.filtration_steps,
            result.intersections, result.component_vectors, result.witness_fallbacks) == (
        prefix_tests, skipped, steps, intersections, len(frame.component_sets), fallbacks)


def test_fold_payloads_are_the_rep_prefixes(monkeypatch):
    # each batch's _prefix payload chain holds its held pairs, one more
    # per link, a pushed state has one payload, shared by every batch
    # below it, a popped state hands over one batch, and _prefix runs for
    # the pushed states only: on P(2) 4*t+1 each of the 1837 lies above a rep
    frame = en._working_frame(P2, parse_poly("4*t+1"))
    reps = _reps(frame)
    folds = []
    original = en._prefix

    def fold(parent, pair):
        folds.append(pair)
        return original(parent, pair)

    monkeypatch.setattr(en, "_prefix", fold)
    pushed = {}
    batches = list(en._peel_off(frame))
    assert [_held(payload) + (leaf,) for payload, leaves in batches for leaf in leaves] == reps
    assert len({_held(payload) for payload, _ in batches}) == len(batches)
    for payload, leaves in batches:
        assert leaves
        held = _held(payload)
        chain = []
        while payload is not None:
            chain.append(payload)
            payload = payload[0]
        assert [link[1] for link in reversed(chain)] == [held[:i + 1] for i in range(len(held))]
        assert all(link[2:] == [None, None] for link in chain)  # realize fills these in
        for i, link in enumerate(reversed(chain)):
            assert pushed.setdefault(held[:i + 1], link) is link
    assert len(pushed) == len(folds) == 1837


@pytest.mark.parametrize("text", ["1/2*t+1", "t^3+1", "0"])
def test_unrealizable_targets_on_p2(text):
    # 1/2*t+1 scales to an integral 2*P (D = 2 on P(2)) yet no rep matches;
    # t^3+1 lies outside every face's leading monomial; 0 has no rep
    P = parse_poly(text)
    frame = en._working_frame(P2, P)
    assert list(_multipoly_peel_off(frame)) == []
    result = en.run_enumeration(P2, P)
    assert (result.ideals, result.reps, result.gotzmann_number) == ([], [], 0)
    with pytest.raises(NoSaturatedIdeal):
        reg_bound_from_polynomial(P2, P)


def test_each_face_vector_is_built_once_per_search(monkeypatch):
    built = Counter()
    original = en._face_vector

    def counting(frame, ti, degree):
        built[id(frame), ti, degree] += 1
        return original(frame, ti, degree)

    def forbidden(self, v):
        raise AssertionError("MultiPoly.shift ran")

    monkeypatch.setattr(en, "_face_vector", counting)
    monkeypatch.setattr(MultiPoly, "shift", forbidden)
    en.run_enumeration(P2, parse_poly("4*t+1"))
    assert built
    assert max(built.values()) == 1
    built.clear()
    assert en.gotzmann_number(PP, parse_poly("3*t1+1", nvars=2)) == 4
    assert built
    assert max(built.values()) == 1


def test_each_shift_degree_is_computed_once_per_search(monkeypatch):
    degrees = Counter()
    original = type(P2).degree

    def counting(self, u):
        degrees[id(self), tuple(u)] += 1
        return original(self, u)

    frame = en._working_frame(P2, parse_poly("4*t+1"))
    monkeypatch.setattr(type(P2), "degree", counting)
    assert len(_reps(frame)) == 12487
    # 84 distinct shifts over the 14324 states the search builds
    assert len(degrees) == 84
    assert max(degrees.values()) == 1


@pytest.mark.parametrize("X, text, tests, leaves, count", [
    (P2, "4*t+1", 1837, 12487, 1129),
    (tv.projective_space(3), "3*t+1", 272, 5537 - 3912, 1282),
    (PP, "3*t1+1", 74, 2107 - 1308, 632),
], ids=["P2", "P3", "PxP(2,1)"])
def test_exact_check_candidate_count(monkeypatch, X, text, tests, leaves, count):
    # realize decides every state's excess test and every leaf check from
    # the pairs' irreducible components, so no K-polynomial is computed;
    # tests counts the pushed states that get a component set and a
    # verdict, leaves the reps whose parent state does not overshoot P,
    # and count the distinct reduced component sets that get a vector.  A
    # count that moves means realize groups or skips the representations
    # differently.  On P(2) every pushed state lies above a rep and none
    # overshoots P, so no rep is skipped; on P(3) and PxP(2,1) most reps
    # lie under a state that overshoots it, and the states below such a
    # state get no component set
    checked = []

    def counting(original):
        def wrapper(*args):
            checked.append(args)
            return original(*args)
        return wrapper

    P = parse_poly(text, nvars=X.r)
    frame = en._working_frame(X, P)
    reps = _reps(frame)
    with monkeypatch.context() as patch:
        for name in ("coarse_k_polynomial", "_k_polynomial"):
            patch.setattr(hb, name, counting(getattr(hb, name)))
        realized = en._realize(frame, _folded(reps))
    prefix_tests, skipped = realized.prefix_tests, realized.skipped_reps
    assert (prefix_tests, len(reps) - skipped) == (tests, leaves)
    assert checked == []
    assert len(frame.component_sets) == count
    result = en.run_enumeration(X, P)
    assert (result.prefix_tests, result.skipped_reps) == (prefix_tests, skipped)
    assert result.component_vectors == count


def test_one_stanley_pair_per_distinct_pair(monkeypatch):
    # the search's representations share one StanleyPair object per
    # distinct (face, shift): no object is built and thrown away, and
    # realize computes one irreducible component per distinct pair
    built = []
    original = en.StanleyPair

    def counting(shift, face):
        built.append((shift, face))
        return original(shift, face)

    components = []
    original_component = en.pair_component

    def counting_component(pair):
        components.append(pair)
        return original_component(pair)

    frame = en._working_frame(P2, parse_poly("4*t+1"))
    monkeypatch.setattr(en, "StanleyPair", counting)
    monkeypatch.setattr(en, "pair_component", counting_component)
    reps = _reps(frame)
    distinct = {pair for rep in reps for pair in rep}
    assert len(built) == len(set(built)) == len(distinct) == 279
    assert len({id(pair) for rep in reps for pair in rep}) == len(distinct)
    # realize takes each pair's component once, not once per intersection
    en._realize(frame, _folded(reps))
    assert len(components) == len(set(components)) == 279


def _colon_chain_witness(ideal, reps):
    """The witness selection that realize's filtration steps replace, kept
    as their oracle: sort the ideal's reps by their pairs' sort keys and
    take the first that the colon chain certifies (None if none does)."""
    candidates = sorted(reps, key=lambda rep: tuple(pair.sort_key() for pair in rep))
    return next((rep for rep in candidates if colon_chain(ideal, rep)), None)


def _stepped_filtration(rep):
    """The rep's ideal (the meet of its pairs' components) and whether
    every _filtration_step along its prefix ideals passes."""
    ideal, passed = mi.MonomialIdeal.unit(len(rep[0].shift)), True
    for pair in rep:
        component = pair_component(pair)
        passed = passed and st._filtration_step(ideal, pair, component)
        ideal = ideal.intersect_irreducible(component)
    return ideal, passed


# name -> (variety, polynomial, ideals whose witness falls back to the recursion)
WITNESS_CASES = {
    "P2-3t+1": (P2, "3*t+1", 0), "P2-4": (P2, "4", 12), "P2-5": (P2, "5", 41),
    "P2-2t+2": (P2, "2*t+2", 0),
    "P3-2t+1": (P3, "2*t+1", 0), "P3-3": (P3, "3", 4), "P3-2t+2": (P3, "2*t+2", 3),
    "P4-2t+1": (P4, "2*t+1", 0), "P4-3": (P4, "3", 10),
    "PxP(1,1)-t1+t2+1": (P1xP1, "t1+t2+1", 0), "PxP(1,1)-3": (P1xP1, "3", 12),
    "PxP(2,1)-2t1+t2+1": (PP, "2*t1+t2+1", 6), "PxP(2,1)-t1+2t2+1": (PP, "t1+2*t2+1", 0),
    "PxP(2,1)-2": (PP, "2", 6),
    "PxP(2,2)-2": (P2xP2, "2", 18), "PxP(2,2)-t1+1": (P2xP2, "t1+1", 0),
    "Hirzebruch(1)-t1+t2+1": (F1, "t1+t2+1", 0), "Hirzebruch(1)-3": (F1, "3", 11),
    "Hirzebruch(2)-3": (F2, "3", 11), "Hirzebruch(2)-t2+1": (F2, "t2+1", 0),
}


@pytest.mark.parametrize("X, text, fallbacks", WITNESS_CASES.values(), ids=WITNESS_CASES)
def test_witnesses_match_colon_chain_oracle(X, text, fallbacks):
    # realize's least rep whose filtration steps all pass is the first
    # sorted rep the colon chain certifies; an ideal with no such rep, and
    # only such an ideal, falls back to the graded-order recursion
    P = parse_poly(text, nvars=X.r)
    frame = en._working_frame(X, P)
    realized = en._realize(frame, _folded(_reps(frame)))
    assert realized.grouped
    expected = {}
    for ideal, reps in realized.grouped.items():
        witness = _colon_chain_witness(ideal, reps)
        if witness is not None:
            expected[ideal] = witness
    assert realized.witnesses == expected
    assert len(realized.grouped) - len(expected) == fallbacks
    result = en.run_enumeration(X, P)
    assert result.witness_fallbacks == fallbacks
    for ideal, witness in result.ideals:
        if ideal in expected:
            assert witness == expected[ideal]
        else:
            assert verify_stanley(ideal, witness, mode="filtration")


@pytest.mark.parametrize("X, text", [case[:2] for case in WITNESS_CASES.values()],
                         ids=WITNESS_CASES)
def test_filtration_steps_decide_the_colon_chain_on_every_passing_rep(X, text):
    # every rep of every passing ideal, not only the chosen witness
    frame = en._working_frame(X, parse_poly(text, nvars=X.r))
    grouped = en._realize(frame, _folded(_reps(frame))).grouped
    verdicts = Counter()
    for ideal, reps in grouped.items():
        for rep in reps:
            meet, passed = _stepped_filtration(rep)
            assert meet == ideal
            assert passed == bool(colon_chain(ideal, rep)), (ideal, rep)
            verdicts[passed] += 1
    assert verdicts[True]


@gen.composite
def pair_sequences(draw):
    """A Stanley filtration of a drawn ideal, as the recursion builds it,
    then with pairs dropped or swapped, so that both outcomes occur."""
    n = draw(gen.integers(2, 4))
    gens = draw(gen.lists(gen.tuples(*[gen.integers(0, 2)] * n), min_size=1, max_size=4))
    ideal = mi.MonomialIdeal(n, gens)
    if ideal.is_unit():
        ideal = mi.MonomialIdeal(n, [tuple(e + 1 for e in gens[0])])
    pairs = list(st.stanley_filtration(ideal))
    for _ in range(draw(gen.integers(0, 2))):
        i = draw(gen.integers(0, len(pairs) - 1))
        if len(pairs) > 1 and draw(gen.booleans()):
            del pairs[i]
        else:
            j = draw(gen.integers(0, len(pairs) - 1))
            pairs[i], pairs[j] = pairs[j], pairs[i]
    return tuple(pairs)


@given(pair_sequences())
def test_filtration_steps_decide_the_colon_chain_on_drawn_sequences(pairs):
    # the step claim holds for any pair sequence, not only the search's reps
    meet, passed = _stepped_filtration(pairs)
    assert passed == bool(colon_chain(meet, pairs))


@pytest.mark.parametrize("X, text, fallbacks, steps", [
    (P2, "4*t+1", 15, 1122),
    (P3, "3*t+1", 10, 508),
    (PP, "3*t1+1", 6, 334),
], ids=["P2", "P3", "PxP(2,1)"])
def test_witness_counters(X, text, fallbacks, steps):
    # steps counts the search states on passing reps whose filtration step
    # ran: realize tests no step after a failed one
    result = en.run_enumeration(X, parse_poly(text, nvars=X.r))
    assert (result.witness_fallbacks, result.filtration_steps) == (fallbacks, steps)


def test_realize_keeps_the_least_filtration_in_any_rep_order():
    # on every search checked, an ideal has at most one rep that is a
    # filtration, so the comparison is exercised by hand: the fat point
    # <x1^2, x1*x2, x2^2> on P(2) has the filtrations 1, x1, x2 and
    # 1, x2, x1 (face {x3} each); the second sorts first
    frame = en._working_frame(P2, parse_poly("3"))
    one, x1, x2 = (st.StanleyPair(u, frozenset({2})) for u in [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    ideal = mi.MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0)])
    reps = [(one, x1, x2), (one, x2, x1)]
    for order in (reps, reps[::-1]):
        realized = en._realize(frame, _folded(order))
        assert realized.grouped == {ideal: order}
        assert realized.witnesses == {ideal: (one, x2, x1)} == {
            ideal: _colon_chain_witness(ideal, order)}


def _degree_preserving_fan_permutations(X):
    """The permutations p of the variables (x_i -> x_{p[i]}) that map every
    face of the fan to a face and keep every variable's degree.  Such a p
    maps B to itself and S/I to an isomorphic graded module S/p(I), so it
    keeps B-saturation and the Hilbert polynomial."""
    return [perm for perm in permutations(range(X.n))
            if all(X.variable_degree(perm[i]) == X.variable_degree(i) for i in range(X.n))
            and all(frozenset(perm[i] for i in face) in X.delta for face in X.delta)]


def _permuted(ideal, perm):
    return mi.MonomialIdeal(ideal.n, [tuple(g[perm.index(i)] for i in range(ideal.n))
                                      for g in ideal.gens])


@pytest.mark.parametrize("X, text, count, size, stride", [
    (tv.projective_space(3), "3*t+1", 24, 314, 8),
    (tv.product_projective(1, 1), "t1+t2+1", 4, 4, 1),
    (PP, "3*t1+1", 12, 174, 1),
    (tv.hirzebruch(1), "t1+t2+1", 2, 3, 1),
    (F2, "t1+2*t2+1", 2, 4, 1),
    (tv.product_projective(2, 2), "t1+t2+1", 36, 36, 1),
    (tv.product_projective(2, 2), "2", 36, 72, 4),
], ids=["P3", "PxP(1,1)", "PxP(2,1)", "Hirzebruch(1)", "Hirzebruch(2)", "PxP(2,2)",
        "PxP(2,2)-2"])
def test_enumeration_is_closed_under_fan_automorphisms(X, text, count, size, stride):
    # metamorphic: the enumerated ideals of (X, P) are all B-saturated
    # ideals with polynomial P, so a degree-preserving automorphism of the
    # fan permutes them, and sigma(I) has the Hilbert polynomial of I.
    # sigma maps a Stanley filtration of I to one of sigma(I), pair by
    # pair, keeping each pair's degree and face cone, so the bound from
    # the witness is the bound from its image; every stride-th ideal is
    # checked so, with every sigma
    perms = _degree_preserving_fan_permutations(X)
    assert len(perms) == count
    result = en.enumerate_saturated_ideals(X, parse_poly(text, nvars=X.r))
    ideals = {ideal for ideal, _ in result}
    assert len(ideals) == size
    for ideal in ideals:
        poly = quotient_hilbert_polynomial(X, ideal)
        images = {_permuted(ideal, perm) for perm in perms}
        assert images <= ideals, ideal
        for image in images:
            assert quotient_hilbert_polynomial(X, image) == poly, (ideal, image)
    for ideal, witness in result[::stride]:
        bound = reg_bound_from_filtration(X, ideal, witness)
        for perm in perms:
            image = [st.StanleyPair(tuple(pair.shift[perm.index(i)] for i in range(X.n)),
                                    frozenset(perm[i] for i in pair.face)) for pair in witness]
            assert reg_bound_from_filtration(X, _permuted(ideal, perm), image) == bound, (
                ideal, perm)
