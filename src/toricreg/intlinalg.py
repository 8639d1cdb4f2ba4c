"""Exact integer linear algebra on numpy object arrays.

All matrices here carry Python ints (dtype=object), so nothing ever
overflows or rounds.  The Smith form routine does not enforce the
divisibility chain on the diagonal; for kernels, ranks and unimodular
completions only the zero/nonzero pattern of the diagonal matters.
"""

from fractions import Fraction

import numpy as np


def as_int_matrix(rows):
    """Copy a nested sequence into a 2d object-dtype array of Python ints."""
    mat = np.array([[int(x) for x in row] for row in rows], dtype=object)
    if mat.ndim != 2:
        raise ValueError("expected a matrix")
    return mat


def identity(k):
    M = np.zeros((k, k), dtype=object)
    for i in range(k):
        M[i, i] = 1
    return M


def smith_normal_form(A):
    """Diagonalize A by unimodular row and column operations.

    Returns (S, D, T, Sinv, Tinv) with A == S @ D @ T, D diagonal (no
    divisibility guarantee), S and T unimodular with the given inverses.
    """
    D = A.copy().astype(object)
    m, n = D.shape
    S, Sinv = identity(m), identity(m)
    T, Tinv = identity(n), identity(n)

    def add_row(i, j, q):
        # D[i] += q*D[j], maintaining A == S @ D @ T
        D[i] += q * D[j]
        S[:, j] -= q * S[:, i]
        Sinv[i] += q * Sinv[j]

    def add_col(i, j, q):
        # D[:, i] += q*D[:, j]
        D[:, i] += q * D[:, j]
        T[j] -= q * T[i]
        Tinv[:, i] += q * Tinv[:, j]

    def swap_rows(i, j):
        D[[i, j]] = D[[j, i]]
        S[:, [i, j]] = S[:, [j, i]]
        Sinv[[i, j]] = Sinv[[j, i]]

    def swap_cols(i, j):
        D[:, [i, j]] = D[:, [j, i]]
        T[[i, j]] = T[[j, i]]
        Tinv[:, [i, j]] = Tinv[:, [j, i]]

    def negate_row(i):
        D[i] = -D[i]
        S[:, i] = -S[:, i]
        Sinv[i] = -Sinv[i]

    for k in range(min(m, n)):
        while True:
            # Move a nonzero entry of minimal absolute value to the pivot.
            best = None
            for i in range(k, m):
                for j in range(k, n):
                    if D[i, j] != 0 and (best is None or abs(D[i, j]) < abs(D[best[0], best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != k:
                swap_rows(k, best[0])
            if best[1] != k:
                swap_cols(k, best[1])
            dirty = False
            for i in range(k + 1, m):
                if D[i, k] != 0:
                    add_row(i, k, -(D[i, k] // D[k, k]))
                    dirty = dirty or D[i, k] != 0
            for j in range(k + 1, n):
                if D[k, j] != 0:
                    add_col(j, k, -(D[k, j] // D[k, k]))
                    dirty = dirty or D[k, j] != 0
            if not dirty and all(D[i, k] == 0 for i in range(k + 1, m)) \
                    and all(D[k, j] == 0 for j in range(k + 1, n)):
                break
        if k < min(m, n) and D[k, k] < 0:
            negate_row(k)

    if not (S @ D @ T == A).all():
        raise ArithmeticError("Smith form does not reproduce the matrix")
    return S, D, T, Sinv, Tinv


def rank(A):
    if A.size == 0:
        return 0
    _, D, _, _, _ = smith_normal_form(A)
    return sum(1 for k in range(min(D.shape)) if D[k, k] != 0)


def kernel_basis(A):
    """Columns span the lattice {x in Z^n : A @ x == 0}.

    The kernel of an integer matrix is saturated, so these columns are a
    lattice basis of it, not just of a finite-index sublattice.
    """
    _, D, _, _, Tinv = smith_normal_form(A)
    n = A.shape[1]
    diag = [D[k, k] for k in range(min(D.shape))] + [0] * (n - min(D.shape))
    cols = [j for j in range(n) if diag[j] == 0]
    return Tinv[:, cols]


def row_hermite_normal_form(A):
    """Canonical basis of the row lattice of A (zero rows dropped).

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), pivot columns increase left to right.  Two integer
    matrices have equal row lattices iff their forms coincide.
    """
    H = A.copy().astype(object)
    m, n = H.shape
    r = 0
    for col in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if H[i, col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(H[i, col]))
            if i0 != r:
                H[[r, i0]] = H[[i0, r]]
            done = True
            for i in range(r + 1, m):
                if H[i, col] != 0:
                    H[i] -= (H[i, col] // H[r, col]) * H[r]
                    done = done and H[i, col] == 0
            if done:
                break
        if H[r, col] == 0:
            continue
        if H[r, col] < 0:
            H[r] = -H[r]
        for i in range(r):
            H[i] -= (H[i, col] // H[r, col]) * H[r]
        r += 1
    return H[:r]


def determinant(A):
    """Exact determinant by fraction-free Bareiss elimination."""
    m, n = A.shape
    if m != n:
        raise ValueError(f"determinant of a non-square {m} x {n} matrix")
    if m == 0:
        return 1
    M = A.copy().astype(object)
    sign = 1
    prev = 1
    for k in range(m - 1):
        if M[k, k] == 0:
            swap = next((i for i in range(k + 1, m) if M[i, k] != 0), None)
            if swap is None:
                return 0
            M[[k, swap]] = M[[swap, k]]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                M[i, j] = (M[i, j] * M[k, k] - M[i, k] * M[k, j]) // prev
            M[i, k] = 0
        prev = M[k, k]
    return sign * M[m - 1, m - 1]


def inverse_unimodular(A):
    """Integer inverse of a matrix with determinant +-1."""
    m, n = A.shape
    if m != n:
        raise ValueError(f"inverse of a non-square {m} x {n} matrix")
    aug = [[Fraction(int(A[i, j])) for j in range(n)] for i in range(n)]
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        inv[col] = [x / scale for x in inv[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
                inv[i] = [a - f * b for a, b in zip(inv[i], inv[col])]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            if inv[i][j].denominator != 1:
                raise ValueError("matrix is not unimodular")
            out[i, j] = int(inv[i][j])
    if not (A @ out == identity(n)).all():
        raise ArithmeticError("computed inverse does not invert the matrix")
    return out


def solve_unimodular(Minv, v):
    """Apply a precomputed integer inverse to a vector, as a tuple."""
    return tuple(int(x) for x in (Minv @ np.array(v, dtype=object)))


def unimodular_with_first_column(v):
    """Extend a primitive integer vector to a determinant +-1 matrix.

    Returns U with U[:, 0] == v.
    """
    col = np.array([[int(x)] for x in v], dtype=object)
    S, D, _, _, _ = smith_normal_form(col)
    if D[0, 0] != 1:
        raise ValueError("vector is not primitive")
    U = S.copy()
    if not (U[:, 0] == col[:, 0]).all():
        U[:, 0] = -U[:, 0]
    if not (U[:, 0] == col[:, 0]).all():
        raise ArithmeticError("completion does not start with the vector")
    return U


def vec_gcd(v):
    from math import gcd
    g = 0
    for x in v:
        g = gcd(g, int(x))
    return g


def primitive(v):
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(int(x) // g for x in v)
