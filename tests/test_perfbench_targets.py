"""The benchmark tracer's targets still name functions of the package.

perfbench/tracer.py wraps each (module, attribute path) of its TARGETS
list; a deleted or renamed function would make `perfbench/run.py
--trace 1` fail, so every path must resolve to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, path", _targets())
def test_tracer_target_resolves(module, path):
    owner = importlib.import_module(f"toricreg.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
