"""Exact integer linear algebra on tuples of ints.

A matrix is a tuple of rows, each a tuple of Python ints, so nothing
ever overflows or rounds.  A matrix with no rows carries no column
count; the functions that need one take it as an argument.

Determinants and unimodular inverses up to 3 x 3 are closed forms (the
cofactor expansion and the adjugate); rank, and determinant and inverse
beyond, come from fraction-free (Bareiss) elimination, which needs no
change of basis.  The Smith form is kept for what needs the unimodular
factors themselves: the completion of a primitive vector to a unimodular
matrix (unimodular_with_first_column), and a lattice basis of an integer
kernel (kernel_basis).  A fan's canonical grading does not come from it:
build_variety reads the ray kernel off a unimodular cone, and takes
kernel_basis only for a fan with no maximal cone.  The Smith form does
not enforce the divisibility chain on the diagonal; for those two only
which diagonal entries are zero or +-1 matters.
"""

from functools import cache
from math import gcd
from operator import index, mul


def as_int_matrix(rows):
    """Copy a nested sequence of rows of equal length into a matrix of ints.

    Entries must be integers (anything with __index__); 1.5 or "1"
    raise TypeError rather than being converted.
    """
    mat = tuple(tuple(index(x) for x in row) for row in rows)
    if any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("expected a matrix")
    return mat


@cache
def identity(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def transpose(A):
    return tuple(zip(*A))


def columns(A, cols):
    """The submatrix of A on the given column indices, in that order."""
    return tuple([tuple([row[j] for j in cols]) for row in A])


def matvec(A, v):
    return tuple(sum(map(mul, row, v)) for row in A)


def matmul(A, B):
    Bt = transpose(B)
    return tuple([tuple([sum(map(mul, row, col)) for col in Bt]) for row in A])


def _shape(A):
    return len(A), len(A[0]) if A else 0


def smith_normal_form(A):
    """Diagonalize A by unimodular row and column operations.

    Returns (S, D, T, Sinv, Tinv) with A == S D T, D diagonal with
    nonnegative entries (no divisibility guarantee), S and T unimodular
    with the given inverses.
    """
    A = tuple(map(tuple, A))
    m, n = _shape(A)
    D = [list(row) for row in A]
    S, Sinv = [list(row) for row in identity(m)], [list(row) for row in identity(m)]
    T, Tinv = [list(row) for row in identity(n)], [list(row) for row in identity(n)]

    def add_row(i, j, q):
        # D[i] += q*D[j], maintaining A == S D T
        D[i] = [a + q * b for a, b in zip(D[i], D[j])]
        for row in S:
            row[j] -= q * row[i]
        Sinv[i] = [a + q * b for a, b in zip(Sinv[i], Sinv[j])]

    def add_col(i, j, q):
        # column i of D += q * column j
        for row in D:
            row[i] += q * row[j]
        T[j] = [a - q * b for a, b in zip(T[j], T[i])]
        for row in Tinv:
            row[i] += q * row[j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        for row in S:
            row[i], row[j] = row[j], row[i]
        Sinv[i], Sinv[j] = Sinv[j], Sinv[i]

    def swap_cols(i, j):
        for rows in (D, Tinv):
            for row in rows:
                row[i], row[j] = row[j], row[i]
        T[i], T[j] = T[j], T[i]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        for row in S:
            row[i] = -row[i]
        Sinv[i] = [-x for x in Sinv[i]]

    for k in range(min(m, n)):
        while True:
            # Move a nonzero entry of minimal absolute value to the pivot.
            best = None
            for i in range(k, m):
                for j in range(k, n):
                    if D[i][j] != 0 and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != k:
                swap_rows(k, best[0])
            if best[1] != k:
                swap_cols(k, best[1])
            dirty = False
            for i in range(k + 1, m):
                if D[i][k] != 0:
                    add_row(i, k, -(D[i][k] // D[k][k]))
                    dirty = dirty or D[i][k] != 0
            for j in range(k + 1, n):
                if D[k][j] != 0:
                    add_col(j, k, -(D[k][j] // D[k][k]))
                    dirty = dirty or D[k][j] != 0
            if not dirty and all(D[i][k] == 0 for i in range(k + 1, m)) \
                    and all(D[k][j] == 0 for j in range(k + 1, n)):
                break
        if D[k][k] < 0:
            negate_row(k)

    S, D, T, Sinv, Tinv = (tuple(map(tuple, M)) for M in (S, D, T, Sinv, Tinv))
    if matmul(matmul(S, D), T) != A:
        raise ArithmeticError("Smith form does not reproduce the matrix")
    return S, D, T, Sinv, Tinv


def _bareiss(rows, ncols, reduce_above=False):
    """Fraction-free elimination (Bareiss 1968) on the first ncols columns.

    Each step takes the first row at or below the next pivot row with a
    nonzero entry in the column, skips the column when there is none,
    and replaces every other row below the pivot (every row other than
    the pivot row with reduce_above, Gauss-Jordan style) by
    (p * row - row[c] * pivot row) / previous pivot; Sylvester's identity
    makes each division exact.  Returns (rows, pivot columns, sign of the
    row permutation).  For a square A of full rank the last pivot is
    sign * det A, and with reduce_above every diagonal entry equals it.
    """
    M = list(rows)
    m = len(M)
    pivots = []
    sign = 1
    prev = 1
    for c in range(ncols):
        k = len(pivots)
        if k == m:
            break
        for swap in range(k, m):
            if M[swap][c]:
                break
        else:
            continue
        if swap != k:
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pivot_row = M[k]
        p = pivot_row[c]
        for i in range(0 if reduce_above else k + 1, m):
            if i != k:
                f = M[i][c]
                M[i] = [(p * a - f * b) // prev for a, b in zip(M[i], pivot_row)]
        prev = p
        pivots.append(c)
    return M, pivots, sign


def rank(A):
    if not A:
        return 0
    return len(_bareiss(A, len(A[0]))[1])


def kernel_basis(A, n):
    """A basis of the lattice {x in Z^n : A x == 0}, one vector per row.

    The kernel of an integer matrix is saturated, so these vectors are a
    lattice basis of it, not just of a finite-index sublattice.
    """
    if not A:
        return identity(n)
    _, D, _, _, Tinv = smith_normal_form(A)
    return tuple(tuple(row[j] for row in Tinv)
                 for j in range(n) if j >= len(D) or D[j][j] == 0)


def row_hermite_normal_form(A):
    """Canonical basis of the row lattice of A (zero rows dropped).

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), pivot columns increase left to right.  Two integer
    matrices have equal row lattices iff their forms coincide.
    """
    H = [list(row) for row in A]
    m, n = _shape(H)

    def sub_row(i, q, r):
        H[i] = [a - q * b for a, b in zip(H[i], H[r])]

    r = 0
    for col in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if H[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(H[i][col]))
            H[r], H[i0] = H[i0], H[r]
            done = True
            for i in range(r + 1, m):
                if H[i][col] != 0:
                    sub_row(i, H[i][col] // H[r][col], r)
                    done = done and H[i][col] == 0
            if done:
                break
        if H[r][col] == 0:
            continue
        if H[r][col] < 0:
            H[r] = [-x for x in H[r]]
        for i in range(r):
            sub_row(i, H[i][col] // H[r][col], r)
        r += 1
    return tuple(map(tuple, H[:r]))


def _check_square(A, what):
    m = len(A)
    for row in A:
        if len(row) != m:
            raise ValueError(f"{what} of a non-square {m} x {len(A[0])} matrix")
    return m


def determinant(A):
    """Exact determinant: cofactor expansion up to 3 x 3, fraction-free
    Bareiss elimination beyond."""
    m = _check_square(A, "determinant")
    if m <= 3:
        return _small_determinant(A, m)
    M, pivots, sign = _bareiss(A, m)
    return sign * M[m - 1][m - 1] if len(pivots) == m else 0


def _small_determinant(A, m):
    if m == 0:
        return 1
    if m == 1:
        return A[0][0]
    if m == 2:
        (a, b), (c, d) = A
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = A
    return a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)


def _adjugate(A, m):
    """The transposed cofactor matrix of a matrix of size at most 3."""
    if m <= 1:
        return ((1,),) if m else ()
    if m == 2:
        (a, b), (c, d) = A
        return ((d, -b), (-c, a))
    (a, b, c), (d, e, f), (g, h, i) = A
    return ((e * i - f * h, c * h - b * i, b * f - c * e),
            (f * g - d * i, a * i - c * g, c * d - a * f),
            (d * h - e * g, b * g - a * h, a * e - b * d))


def inverse_unimodular(A):
    """Integer inverse of a matrix with determinant +-1.

    Up to 3 x 3 the inverse is det A times the adjugate.  Beyond,
    Gauss-Jordan Bareiss elimination on [A | I] ends at [p I | p A^-1]
    with p = +-det A, so for p = +-1 the right block times p is A^-1.
    Either way A times the result is checked to be I.
    """
    m = _check_square(A, "inverse")
    if m <= 3:
        p = _small_determinant(A, m)
        if p == 0:
            raise ValueError("matrix is singular")
        if p not in (1, -1):
            raise ValueError("matrix is not unimodular")
        inv = _adjugate(A, m)
        if p == -1:
            inv = tuple(tuple(-x for x in row) for row in inv)
    else:
        augmented = [tuple(row) + e for row, e in zip(A, identity(m))]
        M, pivots, _ = _bareiss(augmented, m, reduce_above=True)
        if len(pivots) < m:
            raise ValueError("matrix is singular")
        p = M[m - 1][m - 1]
        if p not in (1, -1):
            raise ValueError("matrix is not unimodular")
        inv = tuple(tuple(p * x for x in row[m:]) for row in M)
    if matmul(A, inv) != identity(m):
        raise ArithmeticError("computed inverse does not invert the matrix")
    return inv


def unimodular_with_first_column(v):
    """Extend a primitive integer vector to a determinant +-1 matrix.

    Returns U with column 0 equal to v.
    """
    v = tuple(map(index, v))
    S, D, _, _, _ = smith_normal_form(tuple((x,) for x in v))
    if D[0][0] != 1:
        raise ValueError("vector is not primitive")
    if tuple(row[0] for row in S) != v:
        S = tuple((-row[0],) + row[1:] for row in S)
    if tuple(row[0] for row in S) != v:
        raise ArithmeticError("completion does not start with the vector")
    return S


def vec_gcd(v):
    return gcd(*map(int, v))


def primitive(v):
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(int(x) // g for x in v)
