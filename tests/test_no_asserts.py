"""Invariants in the package raise typed errors: an assert statement
vanishes under python -O, so none may appear in the sources."""

import ast
from pathlib import Path

import toricreg

SOURCES = sorted(Path(toricreg.__file__).parent.rglob("*.py"))


def test_no_assert_statements_in_package():
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
