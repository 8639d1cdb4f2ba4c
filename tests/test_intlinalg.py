"""Exact integer linear algebra against brute force."""

import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as gen

from toricreg import intlinalg as il


def random_matrix(rng, m, n, lo=-6, hi=6):
    return il.as_int_matrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def test_smith_form_factorization_and_inverses():
    rng = random.Random(0)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = random_matrix(rng, m, n)
        S, D, T, Sinv, Tinv = il.smith_normal_form(A)
        assert il.matmul(il.matmul(S, D), T) == A
        assert il.matmul(S, Sinv) == il.identity(m)
        assert il.matmul(T, Tinv) == il.identity(n)
        for i in range(min(m, n)):
            for j in range(min(m, n)):
                if i != j:
                    assert D[i][j] == 0


def test_kernel_is_saturated_basis():
    rng = random.Random(1)
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        A = random_matrix(rng, m, n)
        K = il.kernel_basis(A, n)
        assert len(K) == n - il.rank(A)
        if K:
            assert not any(any(il.matvec(A, k)) for k in K)
        # saturated: the kernel columns extend to a basis of Z^n, so any
        # integer kernel vector is an integer combination; spot check by
        # brute force on a small box
        for x in _box_vectors(n, 2):
            if not any(il.matvec(A, x)):
                sol = _solve_integer(K, x)
                assert sol is not None, (A, x)


def _box_vectors(n, b):
    out = [()]
    for _ in range(n):
        out = [v + (k,) for v in out for k in range(-b, b + 1)]
    return out


def _solve_integer(K, vec):
    """Integer coordinates of vec in the lattice spanned by the rows of K, or None."""
    from fractions import Fraction
    cols = len(K)
    if cols == 0:
        return () if not any(vec) else None
    rows = [[Fraction(K[j][i]) for j in range(cols)] for i in range(len(vec))]
    rhs = [Fraction(int(v)) for v in vec]
    # gaussian elimination
    aug = [row + [r] for row, r in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][cols] != 0:
            return None
    sol = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][cols]
    if any(s.denominator != 1 for s in sol):
        return None
    return tuple(int(s) for s in sol)


def test_hermite_form_is_lattice_canonical():
    B1 = il.as_int_matrix([[1, -2, 1, 0], [0, 1, 0, 1]])
    B2 = il.as_int_matrix([[1, 0, 1, 2], [0, 1, 0, 1]])
    assert il.row_hermite_normal_form(B1) == il.row_hermite_normal_form(B2)
    rng = random.Random(2)
    for _ in range(100):
        A = random_matrix(rng, 2, 4, -4, 4)
        if il.rank(A) < 2:
            continue
        U = il.as_int_matrix(rng.choice([[[1, 1], [0, 1]], [[0, 1], [1, 0]],
                                          [[1, 0], [3, 1]], [[-1, 2], [0, -1]]]))
        assert il.row_hermite_normal_form(A) == il.row_hermite_normal_form(il.matmul(U, A))


def _leibniz_determinant(A):
    """The permutation expansion: sum of sign(p) * prod_i A[i][p(i)]."""
    n = len(A)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= A[i][j]
        total += term
    return total


def test_determinant_matches_leibniz():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 4)
        A = random_matrix(rng, n, n, -5, 5)
        assert il.determinant(A) == _leibniz_determinant(A)


def test_unimodular_inverse_and_completion():
    U = il.unimodular_with_first_column((3, 1))
    assert tuple(row[0] for row in U) == (3, 1)
    assert il.determinant(U) in (1, -1)
    Uinv = il.inverse_unimodular(U)
    assert il.matmul(U, Uinv) == il.identity(2)
    U = il.unimodular_with_first_column((2, 3, 5))
    assert tuple(row[0] for row in U) == (2, 3, 5)
    assert il.determinant(U) in (1, -1)


def test_inverse_unimodular_from_smith_form():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 4)
        # a product of elementary row operations; i == j negates row i
        U = [list(row) for row in il.identity(n)]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            q = -2 if i == j else rng.randint(-3, 3)
            U[i] = [a + q * b for a, b in zip(U[i], U[j])]
        U = il.as_int_matrix(U)
        inv = il.inverse_unimodular(U)
        assert il.matmul(U, inv) == il.matmul(inv, U) == il.identity(n)
        A = random_matrix(rng, n, n, -3, 3)
        det = il.determinant(A)
        if det not in (1, -1):
            with pytest.raises(ValueError, match="singular" if det == 0 else "not unimodular"):
                il.inverse_unimodular(A)
    with pytest.raises(ValueError, match="non-square"):
        il.inverse_unimodular(il.as_int_matrix([[1, 0, 0], [0, 1, 0]]))


def _smith_rank(A):
    D = il.smith_normal_form(A)[1]
    return sum(1 for k in range(min(len(D), len(D[0]))) if D[k][k] != 0)


def _smith_inverse(A):
    """The Smith-form inverse: A = S D T with D = I exactly when A is
    unimodular, and then A^-1 = Tinv Sinv."""
    _, D, _, Sinv, Tinv = il.smith_normal_form(A)
    diag = [D[k][k] for k in range(len(A))]
    if 0 in diag:
        raise ValueError("matrix is singular")
    if any(x != 1 for x in diag):
        raise ValueError("matrix is not unimodular")
    return il.matmul(Tinv, Sinv)


def _outcome(f, A):
    try:
        return f(A)
    except ValueError as exc:
        return str(exc)


@gen.composite
def _matrices(draw):
    m, n = draw(gen.integers(1, 4)), draw(gen.integers(1, 4))
    return tuple(tuple(draw(gen.integers(-6, 6)) for _ in range(n)) for _ in range(m))


@gen.composite
def _scaled_unimodular(draw):
    """U diag(k, 1, ..., 1) V for products U, V of elementary operations:
    determinant +-k, so singular for k = 0 and unimodular for k = +-1."""
    n = draw(gen.integers(1, 4))

    def elementary_product():
        M = [list(row) for row in il.identity(n)]
        for _ in range(draw(gen.integers(0, 6))):
            i, j = draw(gen.integers(0, n - 1)), draw(gen.integers(0, n - 1))
            if i == j:
                M[i] = [-x for x in M[i]]
            else:
                q = draw(gen.integers(-3, 3))
                M[i] = [a + q * b for a, b in zip(M[i], M[j])]
        return il.as_int_matrix(M)

    k = draw(gen.integers(-3, 3))
    D = tuple(tuple(k if i == j == 0 else int(i == j) for j in range(n)) for i in range(n))
    return il.matmul(il.matmul(elementary_product(), D), elementary_product())


@given(_matrices())
def test_rank_matches_smith_oracle(A):
    assert il.rank(A) == _smith_rank(A)
    assert il.rank(il.transpose(A)) == il.rank(A)


@given(gen.one_of(_scaled_unimodular(), _matrices().filter(lambda A: len(A) == len(A[0]))))
def test_inverse_unimodular_matches_smith_oracle(A):
    # same inverse, or the same "singular" / "not unimodular" error
    outcome = _outcome(il.inverse_unimodular, A)
    assert outcome == _outcome(_smith_inverse, A)
    assert isinstance(outcome, tuple) == (il.determinant(A) in (1, -1))


def test_as_int_matrix_rejects_ragged_rows_and_non_integers():
    with pytest.raises(ValueError, match="expected a matrix"):
        il.as_int_matrix([[1, 0], [0, 1, 0]])
    for entry in (1.5, 2.0, "1"):
        with pytest.raises(TypeError):
            il.as_int_matrix([[1, entry]])


def test_primitive():
    assert il.primitive((6, -4)) == (3, -2)
    assert il.primitive((0, 5)) == (0, 1)
    assert il.vec_gcd((0, 0)) == 0


def test_shape_check_survives_optimized_mode():
    # the checks are typed errors, not asserts, so python -O keeps them
    code = ("from toricreg import intlinalg as il\n"
            "try:\n"
            "    il.determinant(il.as_int_matrix([[1, 2, 3], [4, 5, 6]]))\n"
            "except ValueError as exc:\n"
            "    print('ValueError', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(il.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.startswith("ValueError"), out.stdout + out.stderr
