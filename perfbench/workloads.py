"""Request lists of the benchmark workloads and the checks on their outputs.

Every request is the argv of one `toricreg` CLI invocation.  The fixed
workloads are the same for every seed; their expected stdout digests and
values live in expected.json, recorded with record.py.  The ideal-stream
workload is drawn from the seed, so its checks are properties that hold
for any generated ideal rather than recorded digests.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def _enumerate(variety, poly):
    return ["enumerate", "--variety", variety, "--poly", poly, "--json"]


def _regularity_poly(variety, poly):
    return ["regularity", "--variety", variety, "--poly", poly, "--json"]


def _degset(variety, poly):
    return ["degset", "--variety", variety, "--poly", poly, "--seed", "11", "--json"]


# The two largest r=1 enumerations: P(2) is dominated by the filtration
# check, P(3) by turning representations into ideals and the exact check.
ENUM_PROJECTIVE = [
    _enumerate("P(2)", "4*t+1"),
    _enumerate("P(3)", "3*t+1"),
]

# r=2 with bivariate shifts; each `regularity --poly` reruns the whole
# enumeration although the bound needs only the representations.
PRODUCT_P21 = [
    _enumerate("PxP(2,1)", "3*t1+1"),
    _regularity_poly("PxP(2,1)", "3*t1+1"),
    _regularity_poly("PxP(2,1)", "2*t1+t2+1"),
    _regularity_poly("PxP(2,1)", "t1+2*t2+1"),
    _enumerate("PxP(2,1)", "3*t2+1"),
]

# Degree fibers, ideals generated in degrees, saturation: little Stanley work.
DEGSET = [
    _degset("P(2)", "4"),
    _degset("P(3)", "3"),
    _degset("Hirzebruch(1)", "2"),
    _degset("PxP(1,1)", "2"),
    _degset("P(2)", "3*t+1"),
]

FIXED = {
    "enum-projective": ENUM_PROJECTIVE,
    "product-p21": PRODUCT_P21,
    "degset": DEGSET,
}

WORKLOADS = ("enum-projective", "product-p21", "degset", "ideal-stream")

STREAM_VARIETIES = ("P(3)", "PxP(2,1)", "PxP(1,1)", "Hirzebruch(2)")
# The default regularity baselines (every face ring 0-regular) are proved
# for projective spaces and their products only, so the Hilbert-function
# check at the bound region is made on those.
STREAM_HF_CHECKED = ("P(3)", "PxP(2,1)", "PxP(1,1)")
STREAM_IDEALS = 120
POOL_SEED = 0


def request_key(argv):
    return " ".join(argv)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fan_automorphisms(X):
    """Permutations of the variables that map the fan's faces to faces.

    B-saturation depends only on the faces, so such a permutation maps
    B-saturated ideals to B-saturated ideals."""
    return [perm for perm in itertools.permutations(range(X.n))
            if all(frozenset(perm[i] for i in face) in X.delta for face in X.delta)]


def generate_stream(seed):
    """120 B-saturated monomial ideals cycling over STREAM_VARIETIES.

    A fixed pool is drawn first (POOL_SEED): each ideal has 1-3 random
    generators with exponents 0-2 and is B-saturated, and draws whose
    saturation is the unit ideal (S/I is B-torsion) are redrawn.  The
    seed then maps each pool ideal by a random automorphism of its fan.
    Independent draws per seed made the pass time vary by half across
    seeds (a few heavy `regularity --ideal` requests on PxP(2,1) set it);
    images of one pool vary the inputs while keeping their cost mix.
    Returns [(variety name, ideal text)] and the requests that go out for
    them: stanley, hilbert and regularity, in that order, per ideal.
    """
    from toricreg import ideals as mi
    from toricreg import variety as tv

    pool_rng = random.Random(POOL_SEED)
    rng = random.Random(seed)
    varieties = {name: tv.load_variety(name) for name in STREAM_VARIETIES}
    automorphisms = {name: fan_automorphisms(X) for name, X in varieties.items()}
    items = []
    for k in range(STREAM_IDEALS):
        name = STREAM_VARIETIES[k % len(STREAM_VARIETIES)]
        X = varieties[name]
        while True:
            gens = [tuple(pool_rng.randint(0, 2) for _ in range(X.n))
                    for _ in range(pool_rng.randint(1, 3))]
            if not all(any(g) for g in gens):
                continue
            saturated = mi.b_saturate(mi.MonomialIdeal(X.n, gens), X)
            if not saturated.is_unit():
                break
        perm = rng.choice(automorphisms[name])
        image = mi.MonomialIdeal(X.n, [tuple(g[perm.index(i)] for i in range(X.n))
                                       for g in saturated.gens])
        items.append((name, ", ".join(mi.format_monomial(g) for g in image.gens)))
    requests = []
    for name, text in items:
        requests.append(["stanley", "--variety", name, "--ideal", text, "--json"])
        requests.append(["hilbert", "--variety", name, "--ideal", text, "--json"])
        requests.append(["regularity", "--variety", name, "--ideal", text, "--json"])
    return items, requests


def build(workload, seed):
    """The workload's inputs: (stream items or None, request list)."""
    if workload == "ideal-stream":
        return generate_stream(seed)
    return None, FIXED[workload]


def load_expected():
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- checks ------------------------------------------------------------------
#
# Each check returns a list of (request index, reason) for the failing
# requests; an empty list means every output is correct.


def check_values(argv, data, want):
    verb = argv[0]
    if verb == "enumerate":
        return data["count"] == want["count"] and data["gotzmann"] == want["gotzmann"]
    if verb == "regularity":
        return data["generators"] == want["generators"]
    if verb == "degset":
        return data["supportive"] is True
    return False


def check_fixed(requests, outputs, expected):
    """outputs: [(exit code, stdout)] in request order."""
    failures = []
    for i, (argv, (code, out)) in enumerate(zip(requests, outputs)):
        want = expected[request_key(argv)]
        if code != 0:
            failures.append((i, f"exit code {code}"))
        elif digest(out) != want["sha256"]:
            failures.append((i, "stdout digest differs from the recorded one"))
        elif not check_values(argv, json.loads(out), want["values"]):
            failures.append((i, f"values differ from {want['values']}"))
    return failures


def check_stream(items, outputs):
    """Properties that hold for every generated ideal.

    stanley: the pairs are disjoint and intersect back to the ideal.
    hilbert/regularity (on STREAM_HF_CHECKED): the Hilbert polynomial
    equals the Hilbert function at each bound generator g and at g plus
    each nef ray.
    """
    from toricreg import ideals as mi
    from toricreg import stanley as st
    from toricreg import variety as tv
    from toricreg.errors import DomainError
    from toricreg.multipoly import parse_poly

    varieties = {name: tv.load_variety(name) for name in STREAM_VARIETIES}
    failures = []
    for k, (name, text) in enumerate(items):
        X = varieties[name]
        ideal = mi.parse_ideal(text, X.n)
        base = 3 * k
        codes = [outputs[base + j][0] for j in range(3)]
        if any(codes):
            for j, code in enumerate(codes):
                if code:
                    failures.append((base + j, f"exit code {code}"))
            continue
        stanley, hilbert, regularity = (json.loads(outputs[base + j][1]) for j in range(3))

        pairs = [st.StanleyPair(tuple(p["shift"]), frozenset(i - 1 for i in p["face"]))
                 for p in stanley["pairs"]]
        try:
            back = st.decomposition_to_ideal(pairs, X.n)
        except DomainError as exc:
            back = exc
        if back != ideal or [tuple(g) for g in stanley["generators"]] != list(ideal.gens):
            failures.append((base, "pairs do not intersect back to the ideal"))

        if name not in STREAM_HF_CHECKED:
            continue
        poly = parse_poly(hilbert["polynomial"], nvars=X.r)
        points = []
        for g in regularity["generators"]:
            points.append(tuple(g))
            points.extend(tuple(a + b for a, b in zip(g, ray)) for ray in X.nef_rays)
        bad = [t for t in points if mi.hilbert_function(X, ideal, t) != poly.evaluate(t)]
        if bad:
            failures.append((base + 2, f"Hilbert function differs from the polynomial at {bad}"))
    return failures


def check(workload, items, requests, outputs, expected):
    if workload == "ideal-stream":
        return check_stream(items, outputs)
    return check_fixed(requests, outputs, expected)
