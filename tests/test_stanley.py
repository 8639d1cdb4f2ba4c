"""The comma-colon recursion, filtration ordering and verification."""

import random
import time
from itertools import permutations, product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as gen

from toricreg import hilbert as hb
from toricreg import ideals as mi
from toricreg import stanley as st
from toricreg import variety as tv
from toricreg.enumeration import graded_total_order
from toricreg.errors import OverlappingPairs, StrategyInvalid, UnitIdeal

from test_hilbert import hilbert_polynomial_of_pairs

P2 = tv.projective_space(2)
P3 = tv.projective_space(3)

# doubled plane union a point: <x4^2> intersect <x1,x2,x3>
DPP_IDEAL = mi.MonomialIdeal(4, [(1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 1, 2)])
TREE_IDEAL = mi.MonomialIdeal(
    4, [(2, 1, 0, 0), (1, 1, 1, 0), (0, 2, 1, 0), (2, 0, 0, 1), (1, 1, 0, 1), (0, 2, 0, 1)])


def pair(shift, face):
    return st.StanleyPair(tuple(shift), frozenset(face))


def test_replayed_binary_tree():
    tree = st.stanley_decompose(TREE_IDEAL, st.replay_strategy([0, 1, 1, 0, 1]))
    pairs = st.filtration(tree)
    assert pairs == (
        pair((0, 0, 0, 0), {2, 3}),
        pair((0, 1, 0, 0), {2, 3}),
        pair((0, 2, 0, 0), {1}),
        pair((1, 0, 0, 0), {2, 3}),
        pair((1, 1, 0, 0), {1}),
        pair((2, 0, 0, 0), {0, 2}),
    )
    assert st.verify_stanley(TREE_IDEAL, pairs, mode="filtration")
    assert tree.leaf_count() == 6
    assert st.decomposition_to_ideal(pairs, 4) == TREE_IDEAL


def test_prime_base_case():
    P = mi.MonomialIdeal(3, [(0, 1, 0)])
    assert st.stanley_filtration(P) == (pair((0, 0, 0), {0, 2}),)
    Z = mi.MonomialIdeal.zero(2)
    assert st.stanley_filtration(Z) == (pair((0, 0), {0, 1}),)


def test_doubled_plane_point_filtrations():
    first = (pair((0, 0, 0, 0), {0, 1, 2}),
             pair((0, 0, 0, 1), {0, 1, 2}),
             pair((0, 0, 0, 2), {3}))
    second = (pair((0, 0, 0, 0), {3}),
              pair((0, 0, 1, 0), {2}),
              pair((0, 0, 1, 1), {2}),
              pair((0, 1, 0, 0), {1, 2}),
              pair((0, 1, 0, 1), {1, 2}),
              pair((1, 0, 0, 0), {0, 1, 2}),
              pair((1, 0, 0, 1), {0, 1, 2}))
    assert st.verify_stanley(DPP_IDEAL, first, mode="filtration")
    assert st.verify_stanley(DPP_IDEAL, second, mode="filtration")
    assert st.decomposition_to_ideal(first, 4) == DPP_IDEAL
    assert st.decomposition_to_ideal(second, 4) == DPP_IDEAL
    # a strategy choosing x4 twice reproduces the first decomposition
    assert st.stanley_filtration(DPP_IDEAL, st.replay_strategy([3, 3])) == first


def test_decomposition_without_filtration_order():
    I = mi.MonomialIdeal(3, [(1, 1, 1)])
    dec = (pair((0, 0, 0), set()),
           pair((1, 0, 0), {0, 1}),
           pair((0, 1, 0), {1, 2}),
           pair((0, 0, 1), {0, 2}))
    assert st.verify_stanley(I, dec, mode="decomposition")
    for ordering in permutations(dec):
        assert not st.verify_stanley(I, ordering, mode="filtration")


def test_small_two_variable_decompositions():
    I = mi.MonomialIdeal(2, [(2, 1), (1, 2)])
    options = [
        (pair((0, 0), {0}), pair((0, 1), {1}), pair((1, 1), set())),
        (pair((0, 0), {1}), pair((1, 0), {0}), pair((1, 1), set())),
        (pair((0, 0), set()), pair((1, 0), {0}), pair((0, 1), set()),
         pair((0, 2), {1}), pair((1, 1), set())),
    ]
    for dec in options:
        assert st.verify_stanley(I, dec, mode="decomposition")
    # the third one is a filtration in the given order
    assert st.verify_stanley(I, options[2], mode="filtration")


def test_default_strategy_reproduces_lex_walkthrough():
    L = mi.MonomialIdeal(3, [(4, 0, 0), (3, 1, 0)])
    assert st.stanley_filtration(L) == (
        pair((0, 0, 0), {1, 2}),
        pair((1, 0, 0), {1, 2}),
        pair((2, 0, 0), {1, 2}),
        pair((3, 0, 0), {2}))


def test_nice_strategy_fixtures():
    order = graded_total_order(P2)
    L = mi.MonomialIdeal(3, [(4, 0, 0), (3, 1, 0)])
    filt = st.stanley_filtration(L, st.nice_strategy(order))
    assert filt == (
        pair((0, 0, 0), {1, 2}),
        pair((1, 0, 0), {1, 2}),
        pair((2, 0, 0), {1, 2}),
        pair((3, 0, 0), {2}))
    P = mi.MonomialIdeal(3, [(0, 1, 0)])
    assert st.stanley_filtration(P, st.nice_strategy(order)) == (
        pair((0, 0, 0), {0, 2}),)


def test_nice_strategy_on_quadric_fan():
    # two points cut out by <x1,x2> intersect <x3,x4>: a 3-pair
    # filtration whose fan-supported pairs already sum to P_{S/I} = 2
    quadric = tv.build_variety(tv.Fan(
        [[1, 0], [0, 1], [-1, 0], [0, -1]], [(0, 1), (1, 2), (2, 3), (0, 3)]))
    I = mi.MonomialIdeal(4, [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)])
    order = graded_total_order(quadric)
    filt = st.stanley_filtration(I, st.nice_strategy(order))
    assert len(filt) == 3
    assert st.verify_stanley(I, filt, mode="filtration")
    P = hb.quotient_hilbert_polynomial(quadric, I)
    assert P.evaluate((5, 7)) == 2 and P.total_degree() == 0
    supported = [p for p in filt
                 if (frozenset(range(4)) - p.face) in quadric.delta]
    assert len(supported) == 2
    assert hilbert_polynomial_of_pairs(quadric, supported) == P


def test_nice_strategy_postcondition():
    # every shifted fan-supported pair extends an earlier fan-supported
    # pair by one variable outside its face
    rng = random.Random(21)
    for X in (P2, P3):
        order = graded_total_order(X)
        strategy = st.nice_strategy(order)
        for _ in range(40):
            gens = [tuple(rng.randint(0, 2) for _ in range(X.n))
                    for _ in range(rng.randint(1, 3))]
            I = mi.MonomialIdeal(X.n, gens)
            if I.is_unit():
                continue
            pairs = st.stanley_filtration(I, strategy)
            everything = frozenset(range(X.n))
            for i, p in enumerate(pairs):
                if (everything - p.face) not in X.delta or not any(p.shift):
                    continue
                found = False
                for j in range(i):
                    q = pairs[j]
                    if (everything - q.face) not in X.delta:
                        continue
                    if order.index[everything - q.face] > order.index[everything - p.face]:
                        continue
                    diff = tuple(a - b for a, b in zip(p.shift, q.shift))
                    if any(d < 0 for d in diff) or sum(diff) != 1:
                        continue
                    ell = next(k for k, d in enumerate(diff) if d == 1)
                    if ell not in q.face:
                        found = True
                        break
                assert found, (I, pairs, i)


def test_round_trip_and_hilbert_partition_random():
    rng = random.Random(22)
    for _ in range(60):
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        I = mi.MonomialIdeal(n, gens)
        if I.is_unit():
            continue
        pairs = st.stanley_filtration(I)
        assert st.verify_stanley(I, pairs, mode="filtration")
        assert st.decomposition_to_ideal(pairs, n) == I


def test_hilbert_function_identity_over_pairs():
    # H(S/I, t) equals the sum of shifted face-ring Hilbert functions
    import random
    from itertools import product
    from toricreg.ideals import fiber_monomials, hilbert_function
    rng = random.Random(24)
    F2 = tv.hirzebruch(2)
    for X in (P2, F2):
        for _ in range(25):
            gens = [tuple(rng.randint(0, 2) for _ in range(X.n))
                    for _ in range(rng.randint(1, 3))]
            I = mi.MonomialIdeal(X.n, gens)
            if I.is_unit():
                continue
            pairs = st.stanley_filtration(I)
            for t in product(range(0, 4), repeat=X.r):
                total = 0
                for p in pairs:
                    shifted = tuple(a - b for a, b in zip(t, X.degree(p.shift)))
                    total += sum(1 for u in fiber_monomials(X, shifted)
                                 if all(u[i] == 0 for i in range(X.n) if i not in p.face))
                assert total == hilbert_function(X, I, t), (I, t)


def test_termination_depth_bound():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        I = mi.MonomialIdeal(n, gens)
        if I.is_unit():
            continue
        tree = st.stanley_decompose(I)
        assert tree.depth() <= sum(sum(g) for g in I.gens)


def test_strategy_validation():
    I = mi.MonomialIdeal(2, [(2, 1)])
    with pytest.raises(StrategyInvalid):
        st.stanley_decompose(I, lambda J: 5)
    J = mi.MonomialIdeal(2, [(1, 0), (0, 2)])
    with pytest.raises(StrategyInvalid):
        # x1 is itself a generator: not a proper divisor
        st.stanley_decompose(J, lambda K: 0)
    with pytest.raises(UnitIdeal):
        st.stanley_decompose(mi.MonomialIdeal.unit(2))


def test_overlap_detection():
    a = pair((0, 0), {0})
    b = pair((1, 0), {0})
    assert st.pairs_overlap(a, b)
    with pytest.raises(OverlappingPairs):
        st.decomposition_to_ideal([a, b], 2)
    c = pair((0, 1), {1})
    assert not st.pairs_overlap(a, c)


def test_single_full_pair_is_zero_ideal():
    assert st.decomposition_to_ideal([pair((0, 0, 0), {0, 1, 2})], 3).is_zero()


def test_verify_returns_counterexample():
    I = mi.MonomialIdeal(2, [(1, 1)])
    result = st.verify_stanley(I, [pair((0, 0), {0})], mode="decomposition")
    assert not result
    assert result.counterexample is not None
    # every step passes but J_1 != I (twice), or the first step fails
    for pairs, m, reason in (
            ([pair((0, 0), {0, 1})], (1, 1), "prefix 1: x1*x2 lies in pair 1"),
            ([pair((0, 0), {0})], (0, 1), "prefix 1: x2 lies outside"),
            ([pair((1, 0), {0})], (0, 0), "prefix 0: ")):
        result = st.verify_stanley(I, pairs, mode="filtration")
        assert not result
        assert result.counterexample == m
        assert result.reason.startswith(reason)


@pytest.mark.parametrize("I, pairs, m", [
    # (a) x^{u_2} = x2 lies outside J_1 = <x1>, in pair 1
    (mi.MonomialIdeal(2, [(1, 0)]), [pair((0, 0), {1}), pair((0, 1), {1})], (0, 1)),
    # (b) the generator 1 of J_0 escapes C_1 + <x1>; v = x1 lies in I
    (mi.MonomialIdeal(2, [(1, 0)]), [pair((1, 0), {0})], (1, 0)),
    # (b) the same escape; v = x1 is divisible by the later shift 1
    (mi.MonomialIdeal(2, [(1, 1)]), [pair((1, 0), {0}), pair((0, 0), {0, 1})], (1, 0)),
    # (b) the generator x1 of J_1 = <x1> escapes <x1^3> + <x1^2>; v = x1^2
    # is outside I = <x1^3>, so x1 itself is returned: it lies in no pair
    (mi.MonomialIdeal(2, [(3, 0)]), [pair((0, 0), {1}), pair((2, 0), {1})], (1, 0)),
    # (c) every step passes, and the generator x1 of I lies outside J_2 = <x1^2>
    (mi.MonomialIdeal(2, [(1, 0)]), [pair((0, 0), {1}), pair((1, 0), {1})], (1, 0)),
    # (c) every step passes, and the generator x1 of J_1 lies outside I = <x1^2>
    (mi.MonomialIdeal(2, [(2, 0)]), [pair((0, 0), {1})], (1, 0)),
], ids=["a", "b-v-in-I", "b-v-later-shift", "b-g", "c-I-outside-J", "c-J-outside-I"])
def test_filtration_counterexample_branches(I, pairs, m):
    result = st.verify_stanley(I, pairs, mode="filtration")
    assert not result
    assert result.counterexample == m
    assert monomial_failure(I, pairs, m, "filtration")


def test_verify_rejects_malformed_pairs():
    I = mi.MonomialIdeal(3, [(1, 1, 0)])
    for bad in (pair((0, 1), {2}), pair((0, 1, 0, 0), {2}),
                pair((0, 0, -1), {1}), pair((0, 0, 0), {1, 3}),
                pair((0.5, 0, 0), {0}), pair((0, 1.0, 0), {2}), pair(("a", 0, 0), {0}),
                pair((0, 0, 0), {1.0}), pair((0, 0, 0), {"a"})):
        for mode in ("decomposition", "filtration"):
            with pytest.raises(ValueError):
                st.verify_stanley(I, [pair((0, 0, 0), {0, 2}), bad], mode=mode)


ORACLE_VARIETIES = [(X, graded_total_order(X))
                    for X in (P2, P3, tv.product_projective(2, 1), tv.hirzebruch(1))]
# the quadric as a variety file gives it: 1-based maximal cones
QUADRIC = tv.variety_from_dict({"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                "max_cones": [[1, 2], [2, 3], [3, 4], [1, 4]]})


@gen.composite
def ideals_with_pair_lists(draw):
    """A random ideal on a named variety with one of its Stanley
    filtrations (default or nice order), as is, permuted, with one
    pair's shift or face perturbed, or with one pair dropped or
    repeated."""
    X, order = draw(gen.sampled_from(ORACLE_VARIETIES))
    gens = draw(gen.lists(gen.tuples(*[gen.integers(0, 2)] * X.n), min_size=1, max_size=3))
    I = mi.MonomialIdeal(X.n, gens)
    assume(not I.is_unit())
    nice = draw(gen.booleans())
    pairs = list(st.stanley_filtration(
        I, st.nice_strategy(order) if nice else None))
    change = draw(gen.sampled_from(("none", "permute", "shift", "face", "drop", "repeat")))
    if change == "permute":
        pairs = draw(gen.permutations(pairs))
    elif change != "none":
        k = draw(gen.integers(0, len(pairs) - 1))
        j = draw(gen.integers(0, X.n - 1))
        u, face = pairs[k].shift, pairs[k].face
        if change == "shift":
            step = draw(gen.sampled_from((-1, 1))) if u[j] else 1
            pairs[k] = st.StanleyPair(
                tuple(e + step * (i == j) for i, e in enumerate(u)), face)
        elif change == "face":
            pairs[k] = st.StanleyPair(u, face ^ {j})
        elif change == "drop":
            del pairs[k]
        else:
            pairs.insert(draw(gen.integers(0, len(pairs))), pairs[k])
    return I, tuple(pairs)


def monomial_failure(I, pairs, m, mode):
    """Why the monomial m breaks the partition property, or "" if not.

    The prefix conditions of filtration mode are checked in one pass:
    writing D(m) for the pair indices whose shift divides m and C(m)
    for the pairs containing m, a monomial outside I passes every
    prefix test exactly when C(m) = {max D(m)} (or {first pair} when
    D(m) is empty), and a monomial of I passes when C(m) is empty.
    """
    containing = [k for k, p in enumerate(pairs) if p.contains(m)]
    if I.contains(m):
        return "monomial of the ideal lies in a pair" if containing else ""
    if mode == "decomposition":
        return f"covered {len(containing)} times" if len(containing) != 1 else ""
    dividing = [k for k, p in enumerate(pairs) if mi.divides(p.shift, m)]
    expected = dividing[-1] if dividing else 0
    if containing != [expected]:
        return f"prefix {expected + 1}: covered by pairs {containing}"
    return ""


def colon_chain(I, pairs):
    """The backward colon-chain certificate of filtration mode, kept as
    the oracle of verify_stanley's forward step chain.

    With J_k = I and J_{i-1} = J_i + <x^{u_i}>, the pairs form a Stanley
    filtration exactly when every (J_i : x^{u_i}) is the face prime
    P_{s_i} = <x_j : j not in s_i> and J_0 is the unit ideal.  J_i is kept
    as a (not necessarily minimal) generator list.  The colon is inside
    P_s exactly when every generator g of J_i exceeds u_i at some variable
    outside s; otherwise lcm(u_i, g) lies both in pair i and in J_i.  P_s
    is inside the colon exactly when every x^{u_i + e_j}, j outside s,
    lies in J_i; otherwise that monomial is left uncovered.
    """
    n = I.n
    gens = list(I.gens)
    for i in range(len(pairs), 0, -1):
        u, face = pairs[i - 1].shift, pairs[i - 1].face
        outside = [j for j in range(n) if j not in face]
        for g in gens:
            if all(g[j] <= u[j] for j in outside):
                return st.VerifyResult(False, mi.monomial_lcm(u, g), f"prefix {i}: in J_i")
        for j in outside:
            m = tuple(e + (k == j) for k, e in enumerate(u))
            if not any(mi.divides(g, m) for g in gens):
                return st.VerifyResult(False, m, f"prefix {i}: uncovered")
        gens.append(u)
    if all(any(g) for g in gens):
        return st.VerifyResult(False, (0,) * n, "prefix 0: 1 is uncovered")
    return st.VerifyResult(True)


def grid_decomposition_check(I, pairs):
    """The decomposition predicate on the grid of exponent vectors whose
    i-th coordinate is 0, some g_i for a generator g of I, or u_i or
    u_i + 1 for a pair shift u, in lex order.  The predicate only
    compares each m_i with these thresholds, so lowering m_i to the
    largest grid value at most m_i changes no comparison: the first
    failing grid point is the lex-least failing monomial."""
    grid = [sorted({0}.union(g[i] for g in I.gens)
                   .union(p.shift[i] + d for p in pairs for d in (0, 1)))
            for i in range(I.n)]
    for m in product(*grid):
        reason = monomial_failure(I, pairs, m, "decomposition")
        if reason:
            return st.VerifyResult(False, m, reason)
    return st.VerifyResult(True)


def box_failure(I, pairs, mode):
    """The per-monomial predicate on the whole box of exponents up to
    the largest threshold of each coordinate; None when all pass."""
    caps = [max([g[i] for g in I.gens] + [p.shift[i] + 1 for p in pairs])
            for i in range(I.n)]
    return next((m for m in product(*(range(c + 1) for c in caps))
                 if monomial_failure(I, pairs, m, mode)), None)


@given(ideals_with_pair_lists())
def test_verify_agrees_with_box_oracle(case):
    I, pairs = case
    for mode in ("filtration", "decomposition"):
        result = st.verify_stanley(I, pairs, mode=mode)
        assert bool(result) == (box_failure(I, pairs, mode) is None), (mode, result)
        if not result:
            assert monomial_failure(I, pairs, result.counterexample, mode), result
    assert bool(st.verify_stanley(I, pairs, mode="filtration")) == bool(colon_chain(I, pairs))
    assert st.verify_stanley(I, pairs) == grid_decomposition_check(I, pairs)


@pytest.mark.parametrize("n, seed, least", [(5, 0, 300), (6, 1, 600)])
def test_decomposition_certificate_scales(n, seed, least):
    # too many pairs for grid_decomposition_check: the oracle checks the
    # counterexample alone
    rng = random.Random(seed)
    I = mi.MonomialIdeal(n, [tuple(rng.randrange(7) for _ in range(n)) for _ in range(8)])
    pairs = list(st.stanley_filtration(I))
    assert len(pairs) >= least
    start = time.perf_counter()
    assert st.verify_stanley(I, pairs)
    assert time.perf_counter() - start < 1
    k = len(pairs) // 2
    pairs[k] = st.StanleyPair(pairs[k].shift, pairs[k].face ^ {0})
    result = st.verify_stanley(I, pairs)
    assert not result
    assert monomial_failure(I, pairs, result.counterexample, "decomposition") == result.reason


@given(gen.data())
def test_fine_k_polynomial_pushes_forward_to_the_coarse_one(data):
    X = data.draw(gen.sampled_from([X for X, _ in ORACLE_VARIETIES] + [QUADRIC]))
    gens = data.draw(gen.lists(gen.tuples(*[gen.integers(0, 3)] * X.n), max_size=4))
    I = mi.MonomialIdeal(X.n, gens)
    pushed = {}
    for m, c in hb._k_polynomial(tuple, (0,) * X.n, {}, I.gens, None):
        pushed[X.degree(m)] = pushed.get(X.degree(m), 0) + c
    assert tuple(sorted((d, c) for d, c in pushed.items() if c)) == \
        hb.coarse_k_polynomial(X, I)
