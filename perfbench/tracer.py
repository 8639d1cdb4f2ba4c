"""Outside-in tracer: wraps public toricreg functions at run time.

No source file of the package changes.  install() replaces each target
function with a wrapper that records a span (name, parent, request,
start, end) while tracing is active, on the defining module and on every
other toricreg module that re-bound the same object with
`from .x import f`.  restore() puts every original attribute back.
Spans are kept in memory; write() saves them at the end of a run.
"""

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute path) of every measured function; gotzmann.py is not
# measured (its calls take milliseconds and no planned work targets it).
TARGETS = (
    ("cli", "main"),
    ("variety", "build_variety"),
    ("variety", "find_point_dominating"),
    ("variety", "positive_orthant_change"),
    ("intlinalg", "smith_normal_form"),
    ("intlinalg", "inverse_unimodular"),
    ("ideals", "fiber_monomials"),
    ("ideals", "hilbert_function"),
    ("ideals", "b_saturate"),
    ("multipoly", "MultiPoly.shift"),
    ("stanley", "verify_stanley"),
    ("stanley", "stanley_decompose"),
    ("stanley", "decomposition_to_ideal"),
    ("hilbert", "face_hilbert_polynomial"),
    ("hilbert", "quotient_hilbert_polynomial"),
    ("regularity", "reg_bound_from_filtration"),
    ("regularity", "reg_bound_from_polynomial"),
    ("regularity", "upset_intersect"),
    ("enumeration", "run_enumeration"),
    ("enumeration", "graded_total_order"),
    ("hilbscheme", "degree_set"),
    ("hilbscheme", "ideals_generated_in_degrees"),
    ("hilbscheme", "supportive_check"),
)


def _summary_run_enumeration(result):
    return {"reps": len(result.reps), "ideals": len(result.ideals)}


def _summary_degree_set(result):
    return {"candidates": sum(row["candidates"] for row in result.trace),
            "bad": sum(row["bad"] for row in result.trace)}


# Return values kept (as small summaries) for the boundary counters.
SUMMARIES = {
    "enumeration.run_enumeration": _summary_run_enumeration,
    "hilbscheme.degree_set": _summary_degree_set,
}

REQUEST = "request"

# span field indices
NAME, PARENT, REQ, START, END = range(5)


def package_modules():
    return {name: mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "toricreg" or name.startswith("toricreg."))}


def module_bindings():
    """Every (module name, attribute) -> object of the loaded toricreg modules,
    plus the MultiPoly methods; used to check that restore() is complete."""
    out = {}
    for name, mod in package_modules().items():
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
    from toricreg.multipoly import MultiPoly
    for attr, value in vars(MultiPoly).items():
        out[("toricreg.multipoly.MultiPoly", attr)] = value
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []       # [name, parent index, request, start, end]
        self.summaries = {}   # span index -> summary of the return value
        self.active = False
        self._stack = []
        self._request = None
        self._patched = []    # (owner, attribute, original)

    # -- wrapping ------------------------------------------------------------

    def install(self):
        import toricreg.cli  # noqa: F401  loads every module a request can reach
        modules = package_modules()
        for module_name, path in TARGETS:
            owner = modules["toricreg." + module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{path}", original)
            self._patch(owner, attr, original, wrapper)
            if outer:
                continue
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        tracer = self
        summarize = SUMMARIES.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, stack[-1] if stack else -1, tracer._request, clock(), 0.0]
            index = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if summarize is not None:
                tracer.summaries[index] = summarize(result)
            return result

        return wrapper

    # -- recording -----------------------------------------------------------

    @contextmanager
    def request(self, index):
        """Root span of one request; every span inside carries its index."""
        self._request = index
        span = [REQUEST, -1, index, self.clock(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            span[END] = self.clock()
            self._stack.pop()
            self._request = None

    def write(self, path):
        """Save the spans as gzipped JSON lines: [name, parent, request, start, end]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
