"""Every function, class and method of the package is reached from the
package itself, the demos or the benchmark tracer.

A definition that only tests call is an oracle, and lives in tests/;
one that nothing calls is dead.  The check is by name: a definition
counts as reached when its name appears as an identifier (a Name or an
Attribute) in some package module other than __init__.py, in a demo, or
in a perfbench/tracer.py target path.
"""

import ast
import importlib.util
from pathlib import Path

import toricreg

PACKAGE = Path(toricreg.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays although the package, demos and tracer never use it
ALLOWED = {
    "converged": "DegreeSetResult.converged is read by the acceptance gate",
    "enumerate_saturated_ideals": "the public enumeration entry point of the acceptance gate",
}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _tracer_targets():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _unreached():
    """The names defined in the package that nothing listed above uses."""
    modules = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for path, tree in modules.items():
        if path.name != "__init__.py":
            used.update(_identifiers(tree))
    for path in sorted((ROOT / "demos").glob("*.py")):
        used.update(_identifiers(_parse(path)))
    for _, target in _tracer_targets():
        used.update(target.split("."))
    defined = {name for tree in modules.values() for name in _definitions(tree)}
    assert defined
    return defined - used


def test_every_definition_is_reached():
    assert sorted(_unreached() - set(ALLOWED)) == []


def test_allowlist_names_only_unreached_definitions():
    # an entry whose name became reached, or was deleted, is stale
    assert sorted(set(ALLOWED) - _unreached()) == []
