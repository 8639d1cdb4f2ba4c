"""Rational polyhedral cone helpers for H-represented cones {x : Wx >= 0}.

Only pointed cones at desk scale appear here: the nef cone of a smooth
projective toric variety and duals of degree cones.  Rays are found by
intersecting (r-1)-subsets of the defining hyperplanes, which is exact
and entirely adequate for the handful of inequalities we ever see.  The
line cut out by r-1 independent rows is spanned by their signed maximal
minors (the generalized cross product), one determinant per entry; on
a line it is 1, and in the plane the normal (b, -a) of the row (a, b).
Matrices are tuples of int rows, as in intlinalg.
"""

from itertools import combinations
from operator import mul

from . import intlinalg as il


def dedupe_rows(W):
    """The distinct nonzero rows of W, in order of first appearance."""
    return tuple(dict.fromkeys(row for row in W if any(row)))


def cone_rays(W, dim):
    """Primitive extreme rays of {x in R^dim : Wx >= 0}, sorted."""
    if dim == 0:
        return ()
    W = dedupe_rows(W)
    rays = set()
    for subset in combinations(W, dim - 1):
        cross = _cross(subset, dim)
        if not any(cross):  # the rows are dependent: no line
            continue
        v = il.primitive(cross)
        values = [sum(map(mul, row, v)) for row in W]
        if min(values, default=0) >= 0:
            rays.add(v)
        if max(values, default=0) <= 0:
            rays.add(tuple(-x for x in v))
    return tuple(sorted(rays))


def _cross(rows, dim):
    """The signed maximal minors of dim - 1 rows in R^dim."""
    if dim == 1:
        return (1,)
    if dim == 2:
        ((a, b),) = rows
        return (b, -a)
    cols = tuple(range(dim))
    return tuple((-1) ** j * il.determinant(il.columns(rows, cols[:j] + cols[j + 1:]))
                 for j in range(dim))


def interior_point(W, rays):
    """The sum of the extreme rays of {x : Wx >= 0} when W is strictly
    positive on it, else None: the cone is not full-dimensional."""
    if not rays:
        return None
    total = tuple(sum(col) for col in zip(*rays))
    if any(x <= 0 for x in il.matvec(dedupe_rows(W), total)):
        return None
    return total


def strictly_positive_functional(vectors, dim):
    """An integer w with w . v > 0 for every v in vectors, or None.

    Such a w exists precisely when pos{vectors} is pointed; w is an
    interior point of the dual cone.
    """
    W = il.as_int_matrix(vectors)
    return interior_point(W, cone_rays(W, dim))
