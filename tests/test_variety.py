"""Fan validation, Gale duals, the nef semigroup and coordinate changes."""

import random
from itertools import combinations, product

import pytest

from toricreg import cones, intlinalg as il
from toricreg import variety as tv
from toricreg.errors import (
    DomainError,
    NonPrimitiveRay,
    NotComplete,
    NotFullDimensional,
    NotPointed,
    NotSmooth,
    RaysNotSpanning,
)


P1 = tv.projective_space(1)
P2 = tv.projective_space(2)
P3 = tv.projective_space(3)
F2 = tv.hirzebruch(2)
PP = tv.product_projective(2, 1)
# F1 with its rays reordered: the first facet semigroup is larger than K
F1_REORDERED = tv.build_variety(tv.Fan([[1, 0], [-1, 1], [0, -1], [0, 1]],
                                       [(0, 3), (1, 3), (1, 2), (0, 2)]))


def test_projective_space_grading():
    for d in range(1, 5):
        X = tv.projective_space(d)
        assert X.grading == ((1,) * (d + 1),)
        assert X.n == d + 1 and X.r == 1


def test_hirzebruch_gradings():
    assert F2.grading == ((1, -2, 1, 0), (0, 1, 0, 1))
    # the canonical Gale dual from the raw fan spans the same row lattice
    canonical = tv.build_variety(F2.fan)
    H1 = il.row_hermite_normal_form(il.as_int_matrix(canonical.grading))
    H2 = il.row_hermite_normal_form(il.as_int_matrix(F2.grading))
    assert H1 == H2


def test_gale_exactness():
    for X in (P1, P2, P3, F2, PP):
        A = il.as_int_matrix(X.grading)
        rays = il.as_int_matrix(X.fan.rays)
        assert not any(map(any, il.matmul(A, rays)))
        assert il.rank(A) == X.r


def test_facet_unimodularity():
    for X in (P2, P3, F2, PP):
        A = il.as_int_matrix(X.grading)
        for cone in X.fan.max_cones:
            sigma_hat = [i for i in range(X.n) if i not in cone]
            assert il.determinant(il.columns(A, sigma_hat)) in (1, -1)


def test_fan_rejections():
    with pytest.raises(NonPrimitiveRay):
        tv.build_variety(tv.Fan([[2, 0], [0, 1], [-1, -1], [-1, 0]],
                                [(0, 1), (1, 2), (2, 3), (0, 3)]))
    with pytest.raises(NotSmooth):
        tv.build_variety(tv.Fan([[1, 0], [0, 1], [-1, -2]],
                                [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(NotComplete):
        tv.build_variety(tv.Fan([[1, 0], [0, 1], [-1, -1]],
                                [(0, 1), (1, 2)]))
    # smooth, every ridge in two cones, but the rays (0,1) and (1,1)
    # opposite the ridge {1} lie on the same side of it
    with pytest.raises(NotComplete, match="do not point both ways"):
        tv.build_variety(tv.Fan([[1, 0], [0, 1], [1, 1]], [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(RaysNotSpanning):
        tv.build_variety(tv.Fan([[1, 0], [-1, 0], [1, 0]], [(0,), (1,)]))
    with pytest.raises(ValueError, match="unequal lengths"):
        tv.Fan([[1, 0], [0, 1, 0], [-1, -1]], [(0, 1), (1, 2), (0, 2)])
    # -1 would otherwise alias the last ray through negative indexing
    for bad in (3, -1):
        with pytest.raises(ValueError, match="outside 1..3"):
            tv.Fan([[1, 0], [0, 1], [-1, -1]], [(0, 1), (1, bad), (0, 2)])
    # assume-complete skips the pairing check
    X = tv.build_variety(tv.Fan([[1, 0], [0, 1], [-1, -1]],
                                [(0, 1), (1, 2), (0, 2)]))
    assert X.r == 1


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(il, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(il, name, counting)
    return calls


def test_build_smith_form_count(monkeypatch):
    # the Gale dual is read off the first maximal cone, ranks, inverses
    # and cone rays come from closed forms or Bareiss elimination: the
    # build takes no Smith form
    calls = _count_calls(monkeypatch, "smith_normal_form")
    tv.product_projective(2, 1)
    assert len(calls) == 0


def test_build_inverse_and_determinant_counts(monkeypatch):
    # PxP(2,1): n = 5, d = 3, r = 2, six maximal cones.  Inverses: the
    # ray block of the first cone, the one facet block the six cones
    # share (A = [1 1 1 0 0; 0 0 0 1 1]) and the nef basis.
    # Determinants: the six cone blocks only; the rays of the nef cone
    # in R^2 come from the closed-form normal of one row, with no minor
    # taken, and the degree cone's dual is not built
    inverses = _count_calls(monkeypatch, "inverse_unimodular")
    determinants = _count_calls(monkeypatch, "determinant")
    tv.product_projective(2, 1)
    assert (len(inverses), len(determinants)) == (1 + 1 + 1, 6)
    # Hirzebruch(2): its four cones have three distinct facet blocks,
    # columns {1,2}, {2,3} and {1,4} = {3,4} of [1 -2 1 0; 0 1 0 1]
    del inverses[:]
    tv.hirzebruch(2)
    assert len(inverses) == 1 + 3 + 1


def test_enumerate_smith_form_count(monkeypatch, capsys):
    # the build takes none, and the identity orthant change takes none
    # and is stored on the variety, so P_S and the frame share it
    from toricreg.cli import main

    calls = _count_calls(monkeypatch, "smith_normal_form")
    assert main(["enumerate", "--variety", "PxP(2,1)", "--poly", "3*t1+1"]) == 0
    assert capsys.readouterr().out.endswith("count=174 gotzmann=4\n")
    assert len(calls) == 0


def test_is_face():
    assert frozenset({0, 1}) in P3.delta
    assert frozenset() in P3.delta
    assert frozenset({0, 2}) not in F2.delta
    assert frozenset({1, 2}) in F2.delta
    assert frozenset({0, 1, 2}) not in P2.delta


def test_nef_member_fixtures():
    assert P3.nef_member((5,))
    assert not P3.nef_member((-1,))
    assert F2.nef_member((1, 1))
    assert not F2.nef_member((-2, 1))
    for X in (P1, P2, P3, F2, PP):
        assert X.nef_member((0,) * X.r)
    # a vector of the wrong length is rejected, not truncated
    for v in [(1,), (1, 2, 3)]:
        with pytest.raises(ValueError, match=f"has {len(v)} entries, the grading has 2"):
            PP.nef_member(v)


def test_nef_member_brute_force_box():
    # membership in each facet semigroup by bounded enumeration of lambdas
    for X in (P2, F2, PP, F1_REORDERED):
        A = il.as_int_matrix(X.grading)
        for v in product(range(-5, 6), repeat=X.r):
            expected = True
            for cone in X.fan.max_cones:
                sigma_hat = [i for i in range(X.n) if i not in cone]
                cols = [tuple(A[j][i] for j in range(X.r)) for i in sigma_hat]
                found = any(
                    all(sum(lam[k] * cols[k][j] for k in range(X.r)) == v[j]
                        for j in range(X.r))
                    for lam in product(range(26), repeat=X.r))
                if not found:
                    expected = False
                    break
            assert X.nef_member(v) == expected, (X, v)


def test_nef_rays():
    assert P2.nef_rays == ((1,),)
    assert F2.nef_rays == ((0, 1), (1, 0))
    assert PP.nef_rays == ((0, 1), (1, 0))


def test_find_c():
    assert tv.find_c(P1) == (1,)
    assert tv.find_c(P3) == (1,)
    assert tv.find_c(PP) == (1, 1)
    c = tv.find_c(F2)
    assert c == (1, 1)
    for i in range(F2.n):
        a = F2.variable_degree(i)
        assert F2.nef_member(tuple(x - y for x, y in zip(c, a)))


# every variety here has nef rays forming a lattice basis; the two-point
# blowup of P^2 has r = 3
NEF_BASIS_VARIETIES = [
    P1, P2, P3, PP, tv.product_projective(1, 1), tv.hirzebruch(1), F2,
    tv.build_variety(F2.fan),
    tv.variety_from_dict({"rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]],
                          "max_cones": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}),
]
HEXAGON = tv.variety_from_dict({
    "rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
    "max_cones": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]]})


def _least_dominating_point(X, vectors, radius):
    """Brute force: the dominating point of least w-value in a box,
    checked to lie below every dominating point of the box; w is
    positive on the degree cone, hence on K minus the origin."""
    def dominates(p, s):
        return X.nef_member(tuple(a - b for a, b in zip(p, s)))

    box = product(range(-radius, radius + 1), repeat=X.r)
    above = [p for p in box if all(dominates(p, s) for s in vectors)]
    least = min(above, key=lambda p: sum(a * b for a, b in zip(X.positive_w, p)))
    assert all(dominates(p, least) for p in above)
    assert max(map(abs, least)) < radius
    return least


def test_find_point_dominating_is_the_least_point():
    rng = random.Random(5)
    for X in NEF_BASIS_VARIETIES:
        assert X._nef_basis is not None
        radius = 12 if X.r < 3 else 7
        for _ in range(12 if X.r < 3 else 4):
            vectors = [tuple(rng.randint(-2, 2) for _ in range(X.r))
                       for _ in range(rng.randint(1, 3))]
            assert tv.find_point_dominating(X, vectors) == \
                _least_dominating_point(X, vectors, radius), (X, vectors)


def test_find_point_dominating_far_apart_vectors():
    assert tv.find_point_dominating(PP, [(0, 0), (600, -600)]) == (600, 0)
    assert tv.find_point_dominating(F2, [(0, 0), (3000, 0)]) == (3000, 0)
    assert tv.find_point_dominating(P2, []) == (0,)
    with pytest.raises(ValueError, match="has 1 entries, the grading has 2"):
        tv.find_point_dominating(PP, [(1,), (0, 2)])
    with pytest.raises(ValueError, match="has 3 entries, the grading has 4"):
        tv.find_point_dominating(HEXAGON, [(1, 2, 3)])


def test_find_point_dominating_without_nef_basis():
    # five nef rays in rank four: the answer is a multiple of their sum
    assert HEXAGON._nef_basis is None
    assert tv.find_c(HEXAGON) == (1, 2, 2, 1)
    rng = random.Random(6)
    for _ in range(10):
        vectors = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(3)]
        p = tv.find_point_dominating(HEXAGON, vectors)
        for s in vectors:
            assert HEXAGON.nef_member(tuple(a - b for a, b in zip(p, s)))


def test_positive_orthant_change_identity_cases():
    for X in (P1, P2, P3, F2, PP):
        assert tv.positive_orthant_change(X).is_identity()


def test_positive_orthant_change_twisted():
    # permute rows and negate one: K is no longer the positive orthant
    twist = il.as_int_matrix([[0, 1], [-1, 0]])
    A = il.matmul(twist, il.as_int_matrix(F2.grading))
    X = tv.with_grading(F2, [list(r) for r in A])
    assert not all(X.nef_member(e) for e in [(1, 0), (0, 1)])
    U = tv.positive_orthant_change(X)
    assert il.determinant(U.matrix) in (1, -1)
    for image in il.transpose(U.matrix):
        assert X.nef_member(image)
    # canonical-grading Hirzebruch also needs a genuine change
    Xc = tv.build_variety(F2.fan)
    Uc = tv.positive_orthant_change(Xc)
    for image in il.transpose(Uc.matrix):
        assert Xc.nef_member(image)


def test_irrelevant_generators():
    # B(P^3) = <x1, x2, x3, x4>
    assert P3.irrelevant_generators() == (
        (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
    # B(F_2) = <x1x2, x2x3, x3x4, x1x4>
    assert F2.irrelevant_generators() == (
        (0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0))


def test_named_and_file_round_trip(tmp_path):
    assert tv.variety_from_name("P(2)").n == 3
    assert tv.variety_from_name("PxP(1,1)").n == 4
    assert tv.variety_from_name("Hirzebruch(0)").n == 4
    data = tv.variety_to_dict(F2)
    again = tv.variety_from_dict(data)
    assert again.grading == F2.grading
    path = tmp_path / "v.json"
    import json
    path.write_text(json.dumps(data))
    assert tv.load_variety(str(path)).grading == F2.grading


def test_degree():
    assert F2.degree((1, 1, 0, 0)) == (-1, 1)
    assert P2.degree((2, 1, 0)) == (3,)


def test_grading_validation():
    with pytest.raises(ValueError):
        tv.with_grading(F2, [[1, 0, 0, 0], [0, 1, 0, 1]])  # not a Gale dual
    with pytest.raises(ValueError):
        tv.with_grading(F2, [[2, -4, 2, 0], [0, 1, 0, 1]])  # finite index sublattice


# -- differential oracle: the general-purpose build ---------------------


def _reference_build(fan, grading=None, assume_complete=False):
    """build_variety as it stood before it read the Gale dual off a
    unimodular cone: the ray kernel by Smith form, and the rank of the
    rays and of the nef cone's inequalities by elimination, on every fan.
    Determinants, inverses and cone rays are the package's, which
    tests/test_intlinalg.py and tests/test_hilbert.py check against
    Smith-form oracles."""
    n, d = fan.n, fan.d
    if n <= d:
        raise RaysNotSpanning(f"need more rays ({n}) than the ambient dimension ({d})")
    for ray in fan.rays:
        if il.vec_gcd(ray) != 1:
            raise NonPrimitiveRay(f"ray {ray} is not primitive")
    if il.rank(fan.rays) != d:
        raise RaysNotSpanning("rays do not span R^d")

    dets = {}
    for cone in fan.max_cones:
        if len(cone) != d:
            raise NotSmooth(f"maximal cone {tv._show_face(cone)} does not have dimension {d}")
        det = dets[cone] = il.determinant(tuple(fan.rays[i] for i in sorted(cone)))
        if det not in (1, -1):
            raise NotSmooth(f"cone {tv._show_face(cone)} has determinant {det}")

    if not assume_complete:
        _reference_check_complete(fan, dets)

    canonical = il.row_hermite_normal_form(il.kernel_basis(il.transpose(fan.rays), n))
    r = n - d
    if len(canonical) != r:
        raise RaysNotSpanning("ray matrix kernel has unexpected rank")
    if grading is None:
        A = canonical
    else:
        A = il.as_int_matrix(grading)
        if len(A) != r or len(A[0]) != n:
            raise ValueError(f"grading must be {r} x {n}")
        if any(map(any, il.matmul(A, fan.rays))):
            raise ValueError("grading does not annihilate the rays")
        if il.row_hermite_normal_form(A) != canonical:
            raise ValueError("grading rows do not span the full ray kernel")

    delta = set()
    for cone in fan.max_cones:
        for k in range(len(cone) + 1):
            delta.update(frozenset(s) for s in combinations(sorted(cone), k))
    delta = frozenset(delta)

    facet_data = []
    ineq_rows = []
    for cone in fan.max_cones:
        sigma_hat = tuple(i for i in range(n) if i not in cone)
        try:
            minv = il.inverse_unimodular(il.columns(A, sigma_hat))
        except ValueError:
            raise NotSmooth(
                f"grading columns for {tv._show_face(set(sigma_hat))} are not unimodular") from None
        facet_data.append((sigma_hat, minv))
        ineq_rows.extend(minv)
    W = tuple(ineq_rows)

    if il.rank(W) != r:
        raise NotPointed("the nef cone contains a line")
    nef_rays = cones.cone_rays(W, r)
    if cones.interior_point(W, nef_rays) is None:
        raise NotFullDimensional("the nef cone is not full-dimensional")
    nef_basis = None
    if len(nef_rays) == r:
        V = il.transpose(nef_rays)
        try:
            nef_basis = (V, il.inverse_unimodular(V))
        except ValueError:
            pass

    w = cones.strictly_positive_functional(il.transpose(A), r)
    if w is None:
        raise NotPointed("the degree cone pos{a_i} is not pointed")

    X = tv.ToricVariety(fan, A, facet_data, nef_rays, nef_basis, w)
    X._delta = delta  # the oracle's own faces, in place of the derived ones
    return X


def _reference_check_complete(fan, dets):
    sides = {}
    for cone in fan.max_cones:
        ordered = sorted(cone)
        for pos in reversed(range(len(ordered))):
            ridge = tuple(ordered[:pos] + ordered[pos + 1:])
            k = len(ordered) - 1 - pos
            sides.setdefault(ridge, []).append((-1) ** k * dets[cone])
    for ridge, signs in sides.items():
        if len(signs) != 2:
            raise NotComplete(
                f"ridge {tv._show_face(set(ridge))} lies in {len(signs)} maximal cones")
        if signs[0] * signs[1] >= 0:
            raise NotComplete(
                f"cones across ridge {tv._show_face(set(ridge))} do not point both ways")


def _outcome(build, fan, grading=None, assume_complete=False):
    """Everything a build derives, or the type and message of its error."""
    try:
        X = build(fan, grading=grading, assume_complete=assume_complete)
    except (DomainError, ValueError) as exc:
        return type(exc), str(exc)
    return (X.grading, X.delta, X._facet_data, X.nef_rays, X._nef_basis, X.positive_w)


def _same_build(fan, grading=None, assume_complete=False):
    expected = _outcome(_reference_build, fan, grading, assume_complete)
    assert _outcome(tv.build_variety, fan, grading, assume_complete) == expected, \
        (fan.rays, fan.max_cones, grading, assume_complete)
    return expected


def _relabel(fan, perm):
    """The same fan with ray i renamed perm[i]."""
    rays = [None] * fan.n
    for i, ray in enumerate(fan.rays):
        rays[perm[i]] = ray
    return tv.Fan(rays, [[perm[i] for i in cone] for cone in fan.max_cones])


def _surface(rays):
    """The complete fan of consecutive pairs of rays listed counterclockwise."""
    k = len(rays)
    return tv.Fan(rays, [(i, (i + 1) % k) for i in range(k)])


# the two-point blowup of P^2 (r = 3), the hexagon (r = 4), a surface
# with seven rays (r = 5), and P^3 blown up at a point (d = 3, r = 2)
BLOWUP = _surface([[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]])
HEXAGON_FAN = _surface([[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]])
SEVEN_RAYS = _surface([[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1]])
BLOWN_UP_P3 = tv.Fan([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 1]],
                     [(0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4)])

VALID_FANS = (
    [tv.projective_space(d).fan for d in range(1, 5)]
    + [tv.product_projective(a, b).fan for a in (1, 2) for b in (1, 2)]
    + [tv.hirzebruch(ell).fan for ell in range(4)]
    + [F1_REORDERED.fan, BLOWUP, HEXAGON_FAN, BLOWN_UP_P3]
)


def _gradings(X, rng):
    """The canonical grading, the given one, and two images of it under
    seeded unimodular changes of Z^r (with_grading)."""
    out = [None, X.grading]
    for _ in range(2):
        U = [list(row) for row in il.identity(X.r)]
        for _ in range(4):
            i, j = rng.randrange(X.r), rng.randrange(X.r)
            if i == j:
                U[i] = [-x for x in U[i]]
            else:
                q = rng.randint(-2, 2)
                U[i] = [a + q * b for a, b in zip(U[i], U[j])]
        out.append(il.matmul(il.as_int_matrix(U), X.grading))
    return out


def test_build_matches_reference_on_valid_fans():
    rng = random.Random(21)
    for fan in VALID_FANS:
        X = _reference_build(fan)
        for fan2 in (fan, _relabel(fan, rng.sample(range(fan.n), fan.n))):
            for assume_complete in (False, True):
                outcome = _same_build(fan2, assume_complete=assume_complete)
                assert not isinstance(outcome[0], type), outcome
        for grading in _gradings(X, rng):
            for assume_complete in (False, True):  # True: as with_grading builds
                assert not isinstance(_same_build(fan, grading, assume_complete)[0], type)
    # one build each way: the nef cone's rays cost a second at r = 5
    assert not isinstance(_same_build(SEVEN_RAYS)[0], type)
    for d in range(1, 5):
        X = tv.projective_space(d)
        assert _same_build(X.fan)[0] == X.grading
    # the named constructors, as the CLI builds them
    for name in ("P(1)", "P(2)", "P(3)", "P(4)", "PxP(1,1)", "PxP(1,2)", "PxP(2,1)",
                 "PxP(2,2)", "Hirzebruch(0)", "Hirzebruch(1)", "Hirzebruch(2)",
                 "Hirzebruch(3)"):
        X = tv.variety_from_name(name)
        _same_build(X.fan, X.grading)


def _broken_fans(rng, fan):
    """Seeded ways to break a valid fan: (fan, grading) pairs."""
    n, d = fan.n, fan.d
    cones_ = [sorted(c) for c in fan.max_cones]
    rays = [list(ray) for ray in fan.rays]
    out = []
    # a dropped cone
    dropped = list(cones_)
    del dropped[rng.randrange(len(dropped))]
    out.append((tv.Fan(rays, dropped), None))
    # a doubled ray: a copy no cone uses, or a ray twice as long
    out.append((tv.Fan(rays + [rays[rng.randrange(n)]], cones_), None))
    doubled = [list(ray) for ray in rays]
    k = rng.randrange(n)
    doubled[k] = [2 * x for x in doubled[k]]
    out.append((tv.Fan(doubled, cones_), None))
    # a non-unimodular cone first, then last, in max_cones: a cone with
    # b_1 replaced by the primitive b_0 + 2 b_1 (determinant +-2), its
    # rays relabelled to sort before, then after, every other cone
    if d >= 2:
        c0, c1, *rest = cones_[rng.randrange(len(cones_))]
        extra = [a + 2 * b for a, b in zip(rays[c0], rays[c1])]
        bad = tv.Fan(rays + [extra], cones_ + [[c0, n] + rest])
        others = [i for i in range(n + 1) if i not in (c0, n, *rest)]
        for labels in ([c0, n, *rest] + others, others + [c0, n, *rest]):
            out.append((_relabel(bad, [labels.index(i) for i in range(n + 1)]), None))
    # a cone of the wrong dimension
    short = [list(c) for c in cones_]
    short[rng.randrange(len(short))].pop()
    out.append((tv.Fan(rays, short), None))
    # a ray moved to a random primitive vector
    moved = [list(ray) for ray in rays]
    while True:
        v = [rng.randint(-2, 2) for _ in range(d)]
        if il.vec_gcd(v) == 1:
            break
    moved[rng.randrange(n)] = v
    out.append((tv.Fan(moved, cones_), None))
    # bad gradings: wrong shape, not annihilating, a finite-index
    # sublattice, dependent rows
    X = _reference_build(fan)
    A = [list(row) for row in X.grading]
    out.append((fan, A[:-1] if len(A) > 1 else A + A))
    out.append((fan, [row + [0] for row in A]))
    bent = [list(row) for row in A]
    bent[0][0] += 1
    out.append((fan, bent))
    out.append((fan, [[2 * x for x in A[0]]] + A[1:]))
    if len(A) > 1:
        out.append((fan, [A[0], A[0]] + A[2:]))
    out.append((fan, []))
    return out


def test_build_matches_reference_on_broken_fans():
    rng = random.Random(22)
    seen = set()
    for fan in VALID_FANS:
        for broken, grading in _broken_fans(rng, fan):
            for assume_complete in (False, True):
                outcome = _same_build(broken, grading, assume_complete)
                if isinstance(outcome[0], type):
                    seen.add(outcome[0])
    # rays in a hyperplane, and fans with no maximal cone
    flat = [[1, 0, 0], [0, 1, 0], [-1, -1, 0], [1, 1, 0]]
    for max_cones in ([(0, 1), (1, 2), (0, 2)], [(0, 1, 2)], []):
        outcome = _same_build(tv.Fan(flat, max_cones))
        assert outcome[0] is RaysNotSpanning
        seen.add(outcome[0])
    for grading in (None, [[1, 1, 1]], [[2, 2, 2]], [[1, 1, 0]], [[1, 1]]):
        for assume_complete in (False, True):
            _same_build(tv.Fan(P2.fan.rays, []), grading, assume_complete)
    assert seen >= {NonPrimitiveRay, NotSmooth, NotComplete, RaysNotSpanning, ValueError}


def test_build_matches_reference_on_random_fans():
    # random rays in a box and random cones, most of them broken
    rng = random.Random(23)
    kinds = set()
    for _ in range(400):
        d = rng.randint(1, 3)
        n = rng.randint(d, d + 3)
        bound = rng.choice((1, 1, 2))
        rays = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(n)]
        if not all(map(any, rays)):
            continue
        max_cones = [rng.sample(range(n), min(n, d - (rng.random() < 0.1)))
                     for _ in range(rng.randint(0, 5))]
        outcome = _same_build(tv.Fan(rays, max_cones), assume_complete=rng.random() < 0.7)
        kinds.add(outcome[0] if isinstance(outcome[0], type) else "built")
    assert "built" in kinds and len(kinds) >= 5, kinds


def test_nef_cone_errors_are_reachable():
    # no maximal cone: the nef cone is all of R^r
    with pytest.raises(NotPointed, match="nef cone contains a line"):
        tv.build_variety(tv.Fan([[1, 0], [0, 1], [-1, -1]], []))
    # two unimodular cones {1,3} and {1,2} on the rays e1, e2, e1 + e2:
    # A = [1 1 -1], so the facet semigroups are N and -N, and K = {0}
    fan = tv.Fan([[1, 0], [0, 1], [1, 1]], [(0, 2), (0, 1)])
    with pytest.raises(NotComplete):
        tv.build_variety(fan)
    with pytest.raises(NotFullDimensional, match="nef cone is not full-dimensional"):
        tv.build_variety(fan, assume_complete=True)
    # only the cones {1,3} and {2,3}: K = N is fine, but the degrees 1, 1
    # and -1 span the line.  Assumed complete, the build raises NotPointed
    # itself, not a later read of positive_w; checked, the fan is not
    # complete
    fan = tv.Fan([[1, 0], [0, 1], [1, 1]], [(0, 2), (1, 2)])
    with pytest.raises(NotPointed, match="degree cone"):
        tv.build_variety(fan, assume_complete=True)
    with pytest.raises(NotPointed, match="degree cone"):
        tv.variety_from_dict({"rays": [[1, 0], [0, 1], [1, 1]],
                              "max_cones": [[1, 3], [2, 3]]}, assume_complete=True)
    with pytest.raises(NotComplete):
        tv.build_variety(fan)


# -- values derived on first read ----------------------------------------


def test_positive_w_is_derived_on_first_read(monkeypatch):
    calls = []
    original = cones.strictly_positive_functional

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(cones, "strictly_positive_functional", counting)
    X = tv.product_projective(2, 1)  # completeness checked: nothing to raise
    assert calls == []
    w = X.positive_w
    assert X.positive_w is w and len(calls) == 1
    # with assume_complete it is computed by the build
    tv.with_grading(X, X.grading)
    assert len(calls) == 2


def test_lazy_positive_w_equals_eager():
    fans = [tv.variety_from_name(name).fan
            for name in ("P(1)", "P(2)", "P(3)", "P(4)", "PxP(1,1)", "PxP(1,2)",
                         "PxP(2,1)", "PxP(2,2)", "Hirzebruch(0)", "Hirzebruch(1)",
                         "Hirzebruch(2)", "Hirzebruch(3)")]
    for fan in fans + [BLOWUP, BLOWN_UP_P3, HEXAGON_FAN, F1_REORDERED.fan]:
        lazy = tv.build_variety(fan)
        assert lazy._positive_w is None
        eager = tv.build_variety(fan, assume_complete=True)
        assert eager._positive_w is not None
        expected = cones.strictly_positive_functional(il.transpose(lazy.grading), lazy.r)
        assert lazy.positive_w == eager.positive_w == expected, fan.rays
        assert all(sum(a * b for a, b in zip(expected, lazy.variable_degree(i))) > 0
                   for i in range(lazy.n))
    for name in ("P(2)", "PxP(2,1)", "Hirzebruch(2)"):
        assert tv.variety_from_name(name)._positive_w is None


def test_faces_are_derived_on_first_read():
    X = tv.product_projective(2, 1)
    assert X._delta is None
    faces = X.delta
    assert X.delta is faces
    expected = {frozenset(s) for cone in X.fan.max_cones
                for k in range(len(cone) + 1) for s in combinations(sorted(cone), k)}
    assert faces == expected and len(faces) == 1 + 5 + 9 + 6
