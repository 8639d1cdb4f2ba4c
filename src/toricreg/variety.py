"""Smooth projective toric varieties from fan data.

A variety is built from its fan: rays b_1..b_n in Z^d and the maximal
cones of a simplicial complex on {1..n} (0-based internally).  The
grading matrix A (the Gale dual of the ray matrix) makes the Cox ring
S = k[x_1..x_n] a Z^r-graded polynomial ring with deg x_i = a_i, r = n-d.
The irrelevant ideal, the nef semigroup K and the coordinate changes
used elsewhere in the package all live here.
"""

import json
import re
from itertools import combinations
from operator import index

from . import cones, intlinalg as il
from .errors import (
    NonPrimitiveRay,
    NotComplete,
    NotFullDimensional,
    NotPointed,
    NotSmooth,
    RaysNotSpanning,
    SearchExhausted,
    ParseError,
)

# steps along an interior direction of K tried before SearchExhausted
MAX_MULTIPLE = 512


class Fan:
    """Rays plus maximal cones of a simplicial fan (0-based indices)."""

    def __init__(self, rays, max_cones):
        self.rays = tuple(tuple(map(index, ray)) for ray in rays)
        self.max_cones = tuple(sorted(
            {frozenset(map(index, cone)) for cone in max_cones}, key=sorted))
        if not self.rays:
            raise ValueError("fan needs at least one ray")
        self.n = len(self.rays)
        self.d = len(self.rays[0])
        if any(len(ray) != self.d for ray in self.rays):
            raise ValueError("rays have unequal lengths")
        labels = frozenset(range(self.n))
        for cone in self.max_cones:
            if not cone <= labels:
                raise ValueError(
                    f"cone {_show_face(cone)} names a ray outside 1..{self.n}")

    def __repr__(self):
        return f"Fan(n={self.n}, d={self.d}, facets={len(self.max_cones)})"


class UnimodularMap:
    """An invertible change of coordinates on Z^r, with its integer inverse."""

    def __init__(self, matrix):
        self.matrix = il.as_int_matrix(matrix)
        # the identity is its own inverse: no Smith form
        self.inverse = self.matrix if self.is_identity() else il.inverse_unimodular(self.matrix)

    def is_identity(self):
        return self.matrix == il.identity(len(self.matrix))

    def __repr__(self):
        return f"UnimodularMap({[list(row) for row in self.matrix]})"


class ToricVariety:
    """Combinatorial model of a smooth projective toric variety.

    Immutable after construction; every method is pure.  Use
    build_variety() rather than calling this directly.
    """

    def __init__(self, fan, grading, facet_data, nef_rays, nef_basis, positive_w=None):
        self.fan = fan
        self.n = fan.n
        self.d = fan.d
        self.r = fan.n - fan.d
        self.grading = grading              # tuple of r rows, each length n
        self._facet_data = facet_data       # [(sigma_hat, Minv rows)] per facet, ints
        self.nef_rays = nef_rays
        self._nef_basis = nef_basis         # (V, V^-1), nef rays the columns of V, or None
        self._delta = None                  # the faces, built on first use
        self._orthant_change = None         # positive_orthant_change(X), built on first use
        self._positive_w = positive_w       # w . a_i > 0 for every i, or None until read
        self._fiber_cache = {}              # degree t -> sorted fiber of S
        self._k_poly_cache = {}             # minimal generators -> coarse K(S/I)
        self._ring_expansion = None         # P_S and its integer shift expansion

    @property
    def delta(self):
        """The faces of the fan complex, a frozenset of frozensets: every
        subset of a maximal cone."""
        if self._delta is None:
            self._delta = _faces(self.fan.max_cones)
        return self._delta

    @property
    def positive_w(self):
        """An integer w with w . a_i > 0 for every variable (see
        build_variety for why it exists on a complete fan)."""
        if self._positive_w is None:
            self._positive_w = _positive_functional(self.grading, self.r)
        return self._positive_w

    # -- grading ------------------------------------------------------

    def variable_degree(self, i):
        """deg x_i as a vector in Z^r."""
        return tuple(row[i] for row in self.grading)

    def degree(self, u):
        """A . u for an exponent vector u."""
        return tuple(sum(row[i] * u[i] for i in range(self.n)) for row in self.grading)

    # -- fan combinatorics --------------------------------------------

    def faces(self):
        """All faces of the fan complex, smallest first, deterministic."""
        return sorted(self.delta, key=lambda s: (len(s), sorted(s)))

    def irrelevant_exponent(self, face):
        """Exponent vector of prod_{i not in face} x_i."""
        return tuple(0 if i in face else 1 for i in range(self.n))

    def irrelevant_generators(self):
        """Minimal generators of B: one per maximal cone."""
        return tuple(sorted(self.irrelevant_exponent(c) for c in self.fan.max_cones))

    # -- nef semigroup ------------------------------------------------

    def nef_member(self, v):
        """Whether v lies in K = intersection of the facet semigroups NA_sigma^."""
        v = tuple(map(index, v))
        return all(sum(a * b for a, b in zip(row, v)) >= 0
                   for _, minv in self._facet_data for row in minv)

    def __repr__(self):
        return f"ToricVariety(n={self.n}, d={self.d}, r={self.r})"


def build_variety(fan, grading=None, assume_complete=False):
    """Validate a fan and assemble the toric variety it defines.

    grading: optional explicit r x n matrix A; it must satisfy the same
    exact sequence as the canonical Gale dual (checked).  When omitted,
    A is the Hermite-normal-form basis of the ray kernel, which makes
    the output reproducible across runs.

    Every maximal cone is checked to be unimodular, and the Gale dual is
    read off the first one (Cox-Little-Schenck, Toric Varieties, 5.1).
    Let sigma_0 be that cone, R the block of its rays and sigma_0^ the
    other r = n - d indices.  Each b_j, j in sigma_0^, is the integer
    combination lambda_j = b_j R^-1 of the rays of sigma_0, so
    k_j = e_j - sum_i lambda_{j,i} e_{sigma_0,i} lies in the kernel L of
    the ray map.  The k_j are a lattice basis of L: their block on
    sigma_0^ is the identity, so they are independent, and x in L equals
    sum_j x_j k_j, because the difference lies in L and is zero off
    sigma_0, where the rays are independent.  The Hermite normal form of
    a row lattice is canonical, so it is the one any other basis of L
    (a Smith-form kernel, say) would give.  No Smith form is taken unless
    the fan has no maximal cone to read L from.

    Each distinct facet block A_sigma^ is inverted once: the six cones
    of PxP(2,1) share one block.  Two values are derived on first read,
    not here: the faces (X.delta) and the functional X.positive_w, with
    w . a_i > 0 for every variable.  Such a w exists exactly when no
    nonzero u >= 0 has A u = 0 (Gordan's theorem).  When the rays span
    and completeness is checked, there is none: A's rows span L, so
    A u = 0 makes u = (<m, b_i>)_i for some m in M_R, and u >= 0 makes
    every <m, b_i> >= 0; the rays of a complete fan positively span N_R,
    so m is nonnegative on N_R, m = 0 and u = 0.  So the degree cone is
    pointed and the first read cannot raise NotPointed.  With
    assume_complete (with_grading, variety --assume-complete) nothing
    proves that, so w is computed here and the build raises NotPointed.
    """
    n, d = fan.n, fan.d
    if n <= d:
        raise RaysNotSpanning(f"need more rays ({n}) than the ambient dimension ({d})")
    for ray in fan.rays:
        if il.vec_gcd(ray) != 1:
            raise NonPrimitiveRay(f"ray {ray} is not primitive")
    ordered = [tuple(sorted(cone)) for cone in fan.max_cones]
    # the determinant of each sorted cone of d rays, 0 for another size
    dets = [il.determinant([fan.rays[i] for i in c]) if len(c) == d else 0
            for c in ordered]
    # d rays of nonzero determinant span R^d: only without them is the
    # rank taken
    if not any(dets) and il.rank(fan.rays) != d:
        raise RaysNotSpanning("rays do not span R^d")

    for cone, det in zip(fan.max_cones, dets):
        if len(cone) != d:
            raise NotSmooth(f"maximal cone {_show_face(cone)} does not have dimension {d}")
        if det not in (1, -1):
            raise NotSmooth(f"cone {_show_face(cone)} has determinant {det}")

    if not assume_complete:
        _check_complete(ordered, dets)

    if ordered:
        kernel = _kernel_from_cone(fan.rays, ordered[0])
    else:  # no cone to read the kernel off
        kernel = il.kernel_basis(il.transpose(fan.rays), n)
    canonical = il.row_hermite_normal_form(kernel)
    r = n - d
    # never raised: the rays have rank d, so their kernel has rank r, and
    # either basis of it is independent
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

    facet_data = []
    inverses = {}  # facet block -> its inverse: PxP(a,b) has one block
    for c in ordered:
        sigma_hat = tuple([i for i in range(n) if i not in c])
        block = il.columns(A, sigma_hat)
        minv = inverses.get(block)
        if minv is None:
            # never raised: A's rows are a basis of L (checked above), and
            # so are the k_j read off this cone as in the docstring, whose
            # block on sigma_hat is the identity; A's block there is the
            # unimodular change from the k_j to A's rows
            try:
                minv = inverses[block] = il.inverse_unimodular(block)
            except ValueError:
                raise NotSmooth(f"grading columns for {_show_face(set(sigma_hat))} "
                                "are not unimodular") from None
        facet_data.append((sigma_hat, minv))
    W = tuple(row for minv in inverses.values() for row in minv)

    # the rows of one facet inverse already have rank r, so the nef cone
    # contains a line exactly when the fan has no maximal cone
    if not facet_data:
        raise NotPointed("the nef cone contains a line")
    nef_rays = cones.cone_rays(W, r)
    if cones.interior_point(W, nef_rays) is None:
        raise NotFullDimensional("the nef cone is not full-dimensional")
    nef_basis = None
    if len(nef_rays) == r:
        V = il.transpose(nef_rays)
        try:
            nef_basis = (V, il.inverse_unimodular(V))
        except ValueError:  # the rays span a proper sublattice of Z^r
            pass

    # a fan that is not checked complete may have a degree cone that is
    # not pointed: NotPointed is raised here, not on first read
    w = _positive_functional(A, r) if assume_complete else None
    return ToricVariety(fan, A, facet_data, nef_rays, nef_basis, w)


def _faces(max_cones):
    """Every subset of every maximal cone, as a frozenset of frozensets."""
    faces = {()}
    for cone in max_cones:
        subsets = [()]
        for i in sorted(cone):
            subsets += [f + (i,) for f in subsets]
        faces.update(subsets)
    return frozenset(map(frozenset, faces))


def _positive_functional(A, r):
    """An integer w with w . a_i > 0 for every column a_i of A, or
    NotPointed when the degree cone pos{a_i} is not pointed."""
    w = cones.strictly_positive_functional(il.transpose(A), r)
    if w is None:
        raise NotPointed("the degree cone pos{a_i} is not pointed")
    return w


def _kernel_from_cone(rays, cone):
    """The basis k_j, j not in cone, of the ray kernel read off a
    unimodular cone (see build_variety)."""
    R_inv_t = il.transpose(il.inverse_unimodular(tuple(rays[i] for i in cone)))
    basis = []
    for j in range(len(rays)):
        if j not in cone:
            k = [0] * len(rays)
            k[j] = 1
            for i, lam in zip(cone, il.matvec(R_inv_t, rays[j])):
                k[i] = -lam
            basis.append(tuple(k))
    return tuple(basis)


def _check_complete(ordered, dets):
    """Facet pairing: every ridge lies in exactly two maximal cones whose
    opposite rays sit strictly on opposite sides of the ridge span.  The
    side of the opposite ray b is the sign of det(R, b) for the ridge R
    in sorted order: nu.b for a normal nu of R differs from it by one
    nonzero factor.  Moving b from its place in the sorted cone to the
    end passes the k rays after it, so det(R, b) = (-1)^k det(cone), with
    ordered the sorted cones and dets their determinants.  The ridges of
    a cone come in lexicographic order, the last ray dropped first, so k
    counts up from 0."""
    sides = {}
    for cone, det in zip(ordered, dets):
        side = det
        for ridge in combinations(cone, len(cone) - 1):
            sides.setdefault(ridge, []).append(side)
            side = -side
    for ridge, signs in sides.items():
        if len(signs) != 2:
            raise NotComplete(
                f"ridge {_show_face(set(ridge))} lies in {len(signs)} maximal cones")
        if signs[0] * signs[1] >= 0:
            raise NotComplete(
                f"cones across ridge {_show_face(set(ridge))} do not point both ways")


def _show_face(face):
    return "{" + ",".join(str(i + 1) for i in sorted(face)) + "}"


def positive_orthant_change(X):
    """A unimodular U with every column in K, so U(N^r) sits inside K.

    Identity when the positive orthant is already contained in K.
    Built by extending a primitive interior vector of K to a lattice
    basis and pushing the other basis vectors into K along it; once per
    variety, then read from X.
    """
    if X._orthant_change is None:
        X._orthant_change = _orthant_change(X)
    return X._orthant_change


def _orthant_change(X):
    r = X.r
    basis = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    if all(X.nef_member(e) for e in basis):
        return UnimodularMap(il.identity(r))
    if not X.nef_rays:
        raise NotFullDimensional("the nef cone has no rays")
    v1 = il.primitive(tuple(sum(col) for col in zip(*X.nef_rays)))
    first, *rest = il.transpose(il.unimodular_with_first_column(v1))
    pushed = [first]
    for col in rest:
        for steps in range(MAX_MULTIPLE + 1):
            cand = tuple(c + steps * w for c, w in zip(col, v1))
            if X.nef_member(cand):
                pushed.append(cand)
                break
        else:
            raise SearchExhausted("could not push a basis vector into K")
    if not all(X.nef_member(col) for col in pushed):
        raise SearchExhausted("a pushed basis vector is not in K")
    return UnimodularMap(il.transpose(pushed))


def find_point_dominating(X, vectors):
    """A point p with p - s in K for every s in vectors.

    With a nef basis V (K = V.N^r) the dominating points are exactly
    join + K, where the join is V times the coordinatewise max of the
    vectors in V-coordinates; the join, the least dominating point, is
    returned.  Without one, the answer is the least multiple of the
    primitive interior direction (the sum of the nef rays) that
    dominates, which need not be least; SearchExhausted after
    MAX_MULTIPLE steps.
    """
    vectors = [tuple(map(index, v)) for v in vectors]
    if not vectors:
        return (0,) * X.r
    if X._nef_basis is not None:
        V, Vinv = X._nef_basis
        coords = [il.matvec(Vinv, v) for v in vectors]
        return il.matvec(V, tuple(max(col) for col in zip(*coords)))
    if not X.nef_rays:
        raise NotFullDimensional("the nef cone has no rays")
    u = il.primitive(tuple(sum(col) for col in zip(*X.nef_rays)))
    for steps in range(MAX_MULTIPLE + 1):
        cand = tuple(steps * x for x in u)
        if all(X.nef_member(tuple(a - b for a, b in zip(cand, s))) for s in vectors):
            return cand
    raise SearchExhausted("no multiple of the interior direction dominates")


def find_c(X):
    """A canonical c with c - deg(x_i) in K for every variable: the least
    such c when X has a nef basis (see find_point_dominating)."""
    degrees = [X.variable_degree(i) for i in range(X.n)]
    return find_point_dominating(X, degrees)


def with_grading(X, grading):
    """Same fan, different (valid) choice of Gale dual."""
    return build_variety(X.fan, grading=grading, assume_complete=True)


# -- named varieties and files ----------------------------------------


def projective_space(d):
    """P^d with the standard grading: A = [1 ... 1]."""
    if d < 1:
        raise ValueError("projective space needs d >= 1")
    rays = [[1 if j == i else 0 for j in range(d)] for i in range(d)]
    rays.append([-1] * d)
    max_cones = [c for c in combinations(range(d + 1), d)]
    return build_variety(Fan(rays, max_cones))


def product_projective(a, b):
    """P^a x P^b; variables 1..a+1 grade (1,0), the rest (0,1)."""
    if a < 1 or b < 1:
        raise ValueError("factors need dimension >= 1")
    d = a + b
    rays = []
    for i in range(a):
        rays.append([1 if j == i else 0 for j in range(d)])
    rays.append([-1] * a + [0] * b)
    for i in range(b):
        rays.append([1 if j == a + i else 0 for j in range(d)])
    rays.append([0] * a + [-1] * b)
    first = list(combinations(range(a + 1), a))
    second = list(combinations(range(a + 1, a + b + 2), b))
    max_cones = [tuple(sorted(c1 + c2)) for c1 in first for c2 in second]
    return build_variety(Fan(rays, max_cones))


def hirzebruch(ell):
    """The Hirzebruch surface F_ell with its textbook grading."""
    if ell < 0:
        raise ValueError("twist must be nonnegative")
    rays = [[1, 0], [0, 1], [-1, ell], [0, -1]]
    max_cones = [(0, 1), (1, 2), (2, 3), (0, 3)]
    grading = [[1, -ell, 1, 0], [0, 1, 0, 1]]
    return build_variety(Fan(rays, max_cones), grading=grading)


_NAME = re.compile(r"^(P|PxP|Hirzebruch)\(([-\d,\s]+)\)$")
# constructor, number of arguments and least argument of each named family
_NAMED = {
    "P": (projective_space, 1, 1),
    "PxP": (product_projective, 2, 1),
    "Hirzebruch": (hirzebruch, 1, 0),
}


def variety_from_name(name):
    m = _NAME.match(name.strip())
    if not m:
        raise ParseError(f"unknown variety name {name!r}")
    build, arity, least = _NAMED[m.group(1)]
    try:
        args = [int(x) for x in m.group(2).split(",")]
    except ValueError:  # an empty or signless argument, or one with a space
        raise ParseError(f"bad arguments in variety name {name!r}") from None
    if len(args) != arity or min(args) < least:
        raise ParseError(f"bad arguments in variety name {name!r}")
    return build(*args)


def variety_from_dict(data, assume_complete=False):
    """Build from the JSON file schema: 1-based ray indices in max_cones.

    A file that does not describe a fan and grading of the right shape,
    with integer entries, raises ParseError.
    """
    try:
        fan = Fan(data["rays"], [[index(i) - 1 for i in cone] for cone in data["max_cones"]])
        return build_variety(fan, grading=data.get("grading"),
                             assume_complete=assume_complete)
    # KeyError: a missing field; TypeError: a field of the wrong type or
    # an entry that is not an integer; ValueError: ragged rows, cone
    # indices outside 1..n or a grading of the wrong shape
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed variety file: {exc!r}") from exc


def load_variety(source, assume_complete=False):
    """Accept a named variety, a JSON file path, or a parsed dict."""
    if isinstance(source, dict):
        return variety_from_dict(source, assume_complete)
    if _NAME.match(source.strip()):
        return variety_from_name(source)
    try:
        with open(source, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read variety file {source!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"variety file {source!r} is not valid JSON: {exc}") from exc
    return variety_from_dict(data, assume_complete)


def variety_to_dict(X):
    return {
        "rays": [list(ray) for ray in X.fan.rays],
        "max_cones": [[i + 1 for i in sorted(c)] for c in X.fan.max_cones],
        "grading": [list(row) for row in X.grading],
    }
