"""Regularity-bound regions: upward-closed subsets of Z^r under K.

The two theorems produce subsets of reg(S/I) of the shape
union_j (g_j + K) intersected over pairs; this module realizes those
intersections.  The baselines reg(S_sigma) are never computed from
local cohomology: they are explicit assumptions, by default K itself
(0-regularity of every face ring), which is correct for projective
spaces and their products.
"""

from operator import index

from .errors import (
    FiltrationInvalid,
    MissingBaseline,
    NoRepresentation,
    NoSaturatedIdeal,
    Unsupported,
)
from .ideals import is_b_saturated
from .stanley import verify_stanley
from .variety import find_c, find_point_dominating


class KUpset:
    """A finite union of translates g + K with minimal generator set."""

    def __init__(self, X, generators):
        self.X = X
        self.generators = _minimal_generators(X, generators)

    def translate(self, v):
        return KUpset(self.X, [tuple(a + b for a, b in zip(g, v)) for g in self.generators])

    def __eq__(self, other):
        if not isinstance(other, KUpset):
            return NotImplemented
        return self.X is other.X and self.generators == other.generators

    def __repr__(self):
        return f"KUpset({format_upset(self)!r})"


def _minimal_generators(X, generators):
    # K is pointed, so distinct generators never dominate each other mutually
    gens = sorted(set(tuple(map(index, g)) for g in generators))
    return tuple(
        g for g in gens
        if not any(
            h != g and X.nef_member(tuple(a - b for a, b in zip(g, h)))
            for h in gens))


def upset_intersect(*upsets):
    """Intersection of one or more K-upsets.

    One upset is returned unchanged, and needs no nef basis.  With a nef
    basis (K unimodular simplicial), (g + K) cap (h + K) = join(g, h) + K,
    where join(g, h) = find_point_dominating(X, (g, h)) is the least point
    dominating g and h, and joins are associative: the one-generator
    upsets meet at one join of all their generators, and each other
    upset is folded on by distributing the intersection over the joins,
    minimal generators kept after each fold.  An upset with no
    generators is empty and empties the result.  Without a nef basis
    the minimal generators are not computed: Unsupported.
    """
    if len(upsets) == 1:
        return upsets[0]
    X = upsets[0].X
    _require_nef_basis(X)
    points = [u.generators[0] for u in upsets if len(u.generators) == 1]
    result = KUpset(X, [find_point_dominating(X, points)]) if points else None
    for u in upsets:
        if len(u.generators) != 1:
            result = u if result is None else KUpset(
                X, [find_point_dominating(X, (g, h)) for g in result.generators for h in u.generators])
    return result


def _require_nef_basis(X):
    if X._nef_basis is None:
        raise Unsupported(
            "minimal generators of intersections need a simplicial unimodular K")


class RegularityAssumption:
    """Assumed subsets of reg(S_sigma) per face ring.

    The default assumes each face ring with sigma^ in the fan is
    0-regular (baseline K anchored at the origin).  Anything else must
    be supplied explicitly; asking for a missing baseline raises.
    """

    def __init__(self, baselines=None, label="default-K"):
        self.baselines = {} if baselines is None else baselines  # sigma -> KUpset
        self.label = label

    def baseline(self, X, sigma):
        sigma = frozenset(sigma)
        if sigma in self.baselines:
            return self.baselines[sigma]
        sigma_hat = frozenset(range(X.n)) - sigma
        if sigma_hat in X.delta:
            return KUpset(X, [(0,) * X.r])
        raise MissingBaseline(
            f"no regularity baseline for face ring on variables "
            f"{sorted(i + 1 for i in sigma)} (complement is not a face)")


def reg_bound_from_filtration(X, I, filt, assume=None):
    """Theorem-level bound: intersect deg(x^u_i) + baseline(sigma_i)
    (upset_intersect).

    For B-saturated I the intersection may skip pairs whose face
    complement is off the fan.  The filtration is verified first, and
    every baseline is looked up before any intersection.  One supported
    pair needs no intersection; two or more without a nef basis raise
    Unsupported.
    """
    assume = assume or RegularityAssumption()
    filt = tuple(filt)
    result = verify_stanley(I, filt, mode="filtration")
    if not result:
        raise FiltrationInvalid(f"not a Stanley filtration for the ideal: {result.reason}")
    saturated = is_b_saturated(I, X)
    everything = frozenset(range(X.n))
    # every baseline before any intersection: a missing baseline is
    # reported even where K could not intersect
    parts = [assume.baseline(X, pair.face).translate(X.degree(pair.shift))
             for pair in filt if not saturated or everything - pair.face in X.delta]
    if not parts:
        raise FiltrationInvalid("no pair of the filtration is supported on the fan")
    return upset_intersect(*parts)


def reg_bound_from_polynomial(X, P, assume=None):
    """Uniform bound (m-1)c + the intersection of the face baselines
    (upset_intersect), m the Gotzmann number of P; every baseline is
    looked up before any intersection."""
    from .enumeration import gotzmann_number  # deferred: enumeration imports hilbert

    assume = assume or RegularityAssumption()
    try:
        m = gotzmann_number(X, P)
    except NoRepresentation as exc:
        raise NoSaturatedIdeal(
            "no B-saturated ideal realizes this Hilbert polynomial") from exc
    c = find_c(X)
    if X._nef_basis is None:
        raise Unsupported("uniform bound needs a simplicial unimodular K")
    everything = frozenset(range(X.n))
    baselines = [assume.baseline(X, everything - face) for face in X.faces()]
    return upset_intersect(*baselines).translate(tuple((m - 1) * x for x in c))


def format_upset(upset, assumption=None):
    gens = "{" + ",".join(
        "(" + ",".join(str(x) for x in g) + ")" for g in upset.generators) + "}"
    text = f"{gens} + K"
    if assumption is not None:
        text += f"  [baseline assumption: {assumption.label}]"
    return text


def upset_to_dict(upset, assumption=None):
    return {
        "generators": [list(g) for g in upset.generators],
        "assumed_baselines": (assumption.label if assumption else "default-K"),
    }
