"""Per-layer metrics and the phase table, derived from a traced pass.

A layer's self time is its span duration minus the durations of its
direct child spans (children never overlap: one thread, nested calls).
Counts come from span names, the span tree and the return-value
summaries the tracer keeps for run_enumeration and degree_set.
"""

from collections import defaultdict

from tracer import END, NAME, PARENT, REQ, REQUEST, START

SELF_S = (
    "cli.main",
    "variety.build_variety",
    "variety.find_point_dominating",
    "variety.positive_orthant_change",
    "intlinalg.smith_normal_form",
    "ideals.fiber_monomials",
    "ideals.hilbert_function",
    "ideals.b_saturate",
    "multipoly.MultiPoly.shift",
    "stanley.verify_stanley",
    "stanley.stanley_decompose",
    "stanley.decomposition_to_ideal",
    "hilbert.face_hilbert_polynomial",
    "hilbert.quotient_hilbert_polynomial",
    "regularity.reg_bound_from_filtration",
    "regularity.reg_bound_from_polynomial",
    "regularity.upset_intersect",
    "enumeration.run_enumeration",
    "enumeration.graded_total_order",
    "hilbscheme.degree_set",
    "hilbscheme.ideals_generated_in_degrees",
    "hilbscheme.supportive_check",
)

CALLS = (
    "variety.build_variety",
    "intlinalg.smith_normal_form",
    "intlinalg.inverse_unimodular",
    "ideals.fiber_monomials",
    "ideals.b_saturate",
    "multipoly.MultiPoly.shift",
    "stanley.verify_stanley",
    "stanley.stanley_decompose",
    "stanley.decomposition_to_ideal",
    "hilbert.face_hilbert_polynomial",
    "hilbert.quotient_hilbert_polynomial",
    "enumeration.run_enumeration",
    "hilbscheme.ideals_generated_in_degrees",
)

VERBS = ("enumerate", "regularity", "degset", "stanley", "hilbert")

COUNTS = (
    "hilbert.face_hilbert_polynomial.misses",
    "enumeration.reps",
    "enumeration.candidates",
    "enumeration.ideals",
    "enumeration.witness_fallbacks",
    "hilbscheme.candidates",
)

RATIOS = (
    "enumeration.ideals_per_candidate",
    "enumeration.witness_verifies_per_ideal",
    "hilbscheme.bad_per_candidate",
    "trace.overhead_frac",
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SELF_S:
        units[f"{name}.self_s"] = "s"
    for name in CALLS:
        units[f"{name}.calls"] = "count"
    for name in COUNTS:
        units[name] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    for verb in VERBS:
        units[f"cli.{verb}_s"] = "s"
    return dict(sorted(units.items()))


def _children(spans):
    kids = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            kids[span[PARENT]].append(index)
    return kids


def _duration(span):
    return span[END] - span[START]


def per_layer(tracer, verb_seconds, untraced_wall, traced_wall):
    """verb_seconds: untraced seconds per verb over one pass."""
    spans = tracer.spans
    kids = _children(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for index, span in enumerate(spans):
        calls[span[NAME]] += 1
        self_s[span[NAME]] += _duration(span) - sum(_duration(spans[k]) for k in kids[index])

    def under_enumeration(name):
        return [k for k, span in enumerate(spans)
                if span[NAME] == name and span[PARENT] >= 0
                and spans[span[PARENT]][NAME] == "enumeration.run_enumeration"]

    enum = [tracer.summaries[k] for k, span in enumerate(spans)
            if span[NAME] == "enumeration.run_enumeration"]
    degsets = [tracer.summaries[k] for k, span in enumerate(spans)
               if span[NAME] == "hilbscheme.degree_set"]
    ideals = sum(s["ideals"] for s in enum)
    candidates = len(under_enumeration("hilbert.quotient_hilbert_polynomial"))
    hs_candidates = sum(s["candidates"] for s in degsets)

    values = {}
    for name in SELF_S:
        values[f"{name}.self_s"] = self_s[name]
    for name in CALLS:
        values[f"{name}.calls"] = calls[name]
    values.update({
        # a face polynomial that was interpolated, not read from the cache,
        # has child spans (find_point_dominating, fiber_monomials)
        "hilbert.face_hilbert_polynomial.misses": sum(
            1 for k, span in enumerate(spans)
            if span[NAME] == "hilbert.face_hilbert_polynomial" and kids[k]),
        "enumeration.reps": sum(s["reps"] for s in enum),
        "enumeration.candidates": candidates,
        "enumeration.ideals": ideals,
        # the graded-order recursion run when no constructed rep is a filtration
        "enumeration.witness_fallbacks": len(under_enumeration("stanley.stanley_decompose")),
        "hilbscheme.candidates": hs_candidates,
        "enumeration.ideals_per_candidate": ideals / candidates if candidates else 0.0,
        "enumeration.witness_verifies_per_ideal": (
            len(under_enumeration("stanley.verify_stanley")) / ideals if ideals else 0.0),
        "hilbscheme.bad_per_candidate": (
            sum(s["bad"] for s in degsets) / hs_candidates if hs_candidates else 0.0),
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
    })
    for verb in VERBS:
        values[f"cli.{verb}_s"] = verb_seconds.get(verb, 0.0)
    return values


PHASES = ("witness check", "exact P check", "reps to ideals", "search")


def phase_table(tracer, requests):
    """Per-request breakdown of run_enumeration, as text lines.

    witness check: verify_stanley called by run_enumeration; exact P
    check: quotient_hilbert_polynomial called by it; reps to ideals:
    decomposition_to_ideal called by it; search: the rest of
    run_enumeration (peel-off search, grouping, face polynomials,
    witness fallbacks).
    """
    spans = tracer.spans
    direct = {
        "stanley.verify_stanley": "witness check",
        "hilbert.quotient_hilbert_polynomial": "exact P check",
        "stanley.decomposition_to_ideal": "reps to ideals",
    }
    rows = defaultdict(lambda: dict.fromkeys(PHASES, 0.0))
    totals = {}
    for span in spans:
        if span[NAME] == REQUEST:
            totals[span[REQ]] = _duration(span)
        elif span[NAME] == "enumeration.run_enumeration":
            rows[span[REQ]]["search"] += _duration(span)
    for span in spans:
        phase = direct.get(span[NAME])
        if phase and span[PARENT] >= 0 and spans[span[PARENT]][NAME] == "enumeration.run_enumeration":
            rows[span[REQ]][phase] += _duration(span)
            rows[span[REQ]]["search"] -= _duration(span)
    if not rows:
        return []
    header = f"{'request':<52} {'total':>8} " + " ".join(f"{p:>14}" for p in PHASES)
    lines = ["phase table (traced seconds per request)", header]
    for index in sorted(rows):
        label = " ".join(requests[index][:5])
        cells = " ".join(f"{rows[index][p]:>14.3f}" for p in PHASES)
        lines.append(f"{label:<52} {totals[index]:>8.3f} {cells}")
    return lines
