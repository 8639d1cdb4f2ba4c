"""Command-line front end.

Verbs: variety, stanley, hilbert, regularity, enumerate, gotzmann, lex,
degset.  Exit status 0 on success, 1 on domain errors (the error class
name is printed), 2 on parse errors.  All output is deterministic for
fixed inputs and seeds; --json emits machine-readable form.
"""

import argparse
import functools
import json
import sys
from operator import index

from . import enumeration, gotzmann as gz, hilbert as hb, hilbscheme as hs
from . import ideals as mi
from . import regularity as rg
from . import stanley as st
from . import variety as tv
from .errors import DomainError, ParseError
from .multipoly import format_poly, parse_poly


def _load_assumption(text, X):
    """The regularity assumption of --assume-baseline on X: the default,
    or the face baselines of a JSON file."""
    if text in (None, "default-K"):
        return rg.RegularityAssumption()
    try:
        with open(text, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read baseline file {text!r}: {exc}") from exc
    baselines = {}
    try:
        for entry in raw.get("baselines", []):
            sigma = frozenset(index(i) - 1 for i in entry["sigma"])
            if not all(0 <= i < X.n for i in sigma):
                raise ValueError(f"sigma {entry['sigma']} names a variable outside 1..{X.n}")
            gens = [tuple(map(index, g)) for g in entry["generators"]]
            for g in gens:
                if len(g) != X.r:
                    raise ValueError(
                        f"generator {list(g)} has {len(g)} entries, the grading has {X.r}")
            baselines[sigma] = rg.KUpset(X, gens)
        label = raw.get("label", "custom")
    # TypeError also covers an entry that is not an integer, such as 1.5
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed baseline assumption: {exc!r}") from exc
    return rg.RegularityAssumption(baselines, label)


def _pair_json(pair):
    return {"shift": list(pair.shift), "face": sorted(i + 1 for i in pair.face)}


def _pairs_json(pairs):
    return [_pair_json(p) for p in pairs]


def _print_pairs(pairs):
    for pair in pairs:
        print(pair)


def cmd_variety(args):
    X = tv.load_variety(args.variety, assume_complete=args.assume_complete)
    if args.json:
        data = tv.variety_to_dict(X)
        data["n"], data["d"], data["r"] = X.n, X.d, X.r
        data["nef_rays"] = [list(ray) for ray in X.nef_rays]
        data["irrelevant"] = [list(g) for g in X.irrelevant_generators()]
        print(json.dumps(data))
        return 0
    print(f"n={X.n} d={X.d} r={X.r}")
    for row in X.grading:
        print("grading: " + " ".join(str(x) for x in row))
    gens = ", ".join(mi.format_monomial(g) for g in X.irrelevant_generators())
    print(f"irrelevant ideal: <{gens}>")
    print("nef rays: " + " ".join("(" + ",".join(map(str, ray)) + ")"
                                  for ray in X.nef_rays))
    return 0


def cmd_stanley(args):
    X = tv.load_variety(args.variety)
    ideal = _load_ideal(args.ideal, X.n)
    strategy = st.nice_strategy(enumeration.graded_total_order(X)) if args.order == "nice" else None
    pairs = st.stanley_filtration(ideal, strategy)
    if args.json:
        print(json.dumps({"generators": [list(g) for g in ideal.gens],
                          "pairs": _pairs_json(pairs)}))
        return 0
    _print_pairs(pairs)
    return 0


def cmd_hilbert(args):
    X = tv.load_variety(args.variety)
    if args.ring:
        poly = hb.ring_hilbert_polynomial(X)
    else:
        ideal = _load_ideal(args.ideal, X.n)
        poly = hb.quotient_hilbert_polynomial(X, ideal)
    if args.json:
        print(json.dumps({"polynomial": format_poly(poly)}))
        return 0
    print(format_poly(poly))
    return 0


def cmd_regularity(args):
    X = tv.load_variety(args.variety)
    assume = _load_assumption(args.assume_baseline, X)
    if args.ideal is not None:
        ideal = _load_ideal(args.ideal, X.n)
        pairs = st.stanley_filtration(ideal)
        bound = rg.reg_bound_from_filtration(X, ideal, pairs, assume)
    else:
        poly = parse_poly(args.poly, nvars=X.r)
        bound = rg.reg_bound_from_polynomial(X, poly, assume)
    if args.json:
        print(json.dumps(rg.upset_to_dict(bound, assume)))
        return 0
    print(rg.format_upset(bound, assume))
    return 0


def cmd_enumerate(args):
    X = tv.load_variety(args.variety)
    poly = parse_poly(args.poly, nvars=X.r)
    result = enumeration.run_enumeration(X, poly)
    ideals, m = result.ideals, result.gotzmann_number
    del result  # the reps and counters are not printed
    # the text json.dumps would give the list of {"generators", "filtration"}
    # entries, joined from one fragment per distinct witness pair
    fragments = {}
    entries = []
    for ideal, witness in ideals:
        pairs = []
        for pair in witness:
            text = fragments.get(pair)
            if text is None:
                text = fragments[pair] = json.dumps(_pair_json(pair))
            pairs.append(text)
        entries.append(f'{{"generators": {json.dumps([list(g) for g in ideal.gens])}, '
                       f'"filtration": [{", ".join(pairs)}]}}')
    listed = "[" + ", ".join(entries) + "]"
    if args.json:
        print(f'{{"ideals": {listed}, "count": {len(ideals)}, "gotzmann": {m}}}')
        return 0
    print(listed)
    print(f"count={len(ideals)} gotzmann={m}")
    return 0


def _lex_ideal(poly, nvars):
    """The saturated lex ideal in nvars variables, from --vars."""
    if nvars < 1:
        raise ParseError(f"--vars must be at least 1, got {nvars}")
    return gz.lex_ideal(poly, nvars)


def cmd_gotzmann(args):
    poly = parse_poly(args.poly, nvars=1)
    ideal, pairs = _lex_ideal(poly, args.vars)
    rep = gz.gotzmann_representation(poly)
    if args.json:
        print(json.dumps({"m": rep.length, "q": list(rep.q),
                          "generators": [list(g) for g in ideal.gens],
                          "filtration": _pairs_json(pairs)}))
        return 0
    print(f"m={rep.length}")
    print("q=(" + ",".join(map(str, rep.q)) + ")")
    print(mi.format_ideal(ideal))
    _print_pairs(pairs)
    return 0


def cmd_lex(args):
    poly = parse_poly(args.poly, nvars=1)
    ideal, pairs = _lex_ideal(poly, args.vars)
    if args.json:
        print(json.dumps({"generators": [list(g) for g in ideal.gens],
                          "filtration": _pairs_json(pairs)}))
        return 0
    print(mi.format_ideal(ideal))
    _print_pairs(pairs)
    return 0


def cmd_degset(args):
    X = tv.load_variety(args.variety)
    poly = parse_poly(args.poly, nvars=X.r)
    result = hs.degree_set(X, poly, seed=args.seed)
    verdict = hs.supportive_check(X, result, poly)
    if args.json:
        print(json.dumps({"points": [list(t) for t in result.points],
                          "anchor": list(result.anchor),
                          "seed": result.seed,
                          "trace": result.trace,
                          "supportive": verdict}))
        return 0
    print("D = " + " ".join("(" + ",".join(map(str, t)) + ")" for t in result.points))
    for row in result.trace:
        print(f"round {row['round']}: |D|={row['size']} "
              f"candidates={row['candidates']} bad={row['bad']}")
    print(f"supportive check: {'pass' if verdict else 'FAIL'}")
    return 0 if verdict else 1


def _load_ideal(text, n):
    if text.endswith(".json"):
        try:
            with open(text, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            gens = [tuple(g) for g in data["generators"]]
            if any(type(e) is not int for g in gens for e in g):
                raise ValueError("exponents must be JSON integers")
            return mi.MonomialIdeal(n, gens)
        # TypeError: not an object or generators not lists; ValueError:
        # malformed JSON or exponents that are not integers of length n
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"cannot read ideal file {text!r}: {exc}") from exc
    return mi.parse_ideal(text, n)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toricreg",
        description="Stanley filtrations, Hilbert polynomials and "
                    "regularity bounds on smooth projective toric varieties")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, variety=True, poly=False, ideal=False):
        if variety:
            p.add_argument("--variety", required=True,
                           help="named variety like P(2), PxP(2,1), "
                                "Hirzebruch(2), or a JSON file")
        if poly:
            p.add_argument("--poly", required=True, help="polynomial text like '3*t+1'")
        if ideal:
            p.add_argument("--ideal", required=True,
                           help="monomial list like 'x1^2*x2, x2*x3' or a JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("variety", help="validate a fan and print its grading data")
    common(p)
    p.add_argument("--assume-complete", action="store_true",
                   help="skip the completeness check")
    p.set_defaults(func=cmd_variety)

    p = sub.add_parser("stanley", help="Stanley filtration of S/I")
    common(p, ideal=True)
    p.add_argument("--order", choices=["default", "nice"], default="default")
    p.set_defaults(func=cmd_stanley)

    p = sub.add_parser("hilbert", help="multigraded Hilbert polynomial")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ring", action="store_true", help="P_S of the Cox ring")
    group.add_argument("--ideal", help="monomial ideal for P_{S/I}")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("regularity", help="regularity bound region")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ideal", help="bound from a Stanley filtration")
    group.add_argument("--poly", help="uniform bound from the Hilbert polynomial")
    p.add_argument("--assume-baseline", default="default-K",
                   help="'default-K' or a JSON file of face baselines")
    p.set_defaults(func=cmd_regularity)

    p = sub.add_parser("enumerate",
                       help="all B-saturated monomial ideals with a Hilbert polynomial")
    common(p, poly=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("gotzmann", help="Gotzmann representation and lex ideal")
    common(p, variety=False, poly=True)
    p.add_argument("--vars", type=int, required=True)
    p.set_defaults(func=cmd_gotzmann)

    p = sub.add_parser("lex", help="saturated lexicographic ideal for a polynomial")
    common(p, variety=False, poly=True)
    p.add_argument("--vars", type=int, required=True)
    p.set_defaults(func=cmd_lex)

    p = sub.add_parser("degset", help="finite degree set for the Hilbert scheme")
    common(p, poly=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_degset)

    return parser


@functools.cache
def _parser():
    """The parser, built on first use; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
