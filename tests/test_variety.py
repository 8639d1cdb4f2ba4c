"""Fan validation, Gale duals, the nef semigroup and coordinate changes."""

import random
from itertools import product

import pytest

from toricreg import intlinalg as il
from toricreg import variety as tv
from toricreg.errors import NotComplete, NotSmooth, NonPrimitiveRay, RaysNotSpanning


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


def test_build_smith_form_count(monkeypatch):
    # the completeness check takes determinants, and ranks, inverses and
    # cone rays come from Bareiss elimination: the one Smith form is the
    # lattice kernel of the rays behind the canonical grading
    calls = []
    original = il.smith_normal_form

    def counting(A):
        calls.append(1)
        return original(A)

    monkeypatch.setattr(il, "smith_normal_form", counting)
    tv.product_projective(2, 1)
    assert len(calls) == 1


def test_enumerate_smith_form_count(monkeypatch, capsys):
    # the build's 1; the identity orthant change takes no Smith form and
    # is stored on the variety, so P_S and the frame share it
    from toricreg.cli import main

    calls = []
    original = il.smith_normal_form

    def counting(A):
        calls.append(1)
        return original(A)

    monkeypatch.setattr(il, "smith_normal_form", counting)
    assert main(["enumerate", "--variety", "PxP(2,1)", "--poly", "3*t1+1"]) == 0
    assert capsys.readouterr().out.endswith("count=174 gotzmann=4\n")
    assert len(calls) == 1


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
