"""Every demo script runs to completion and prints exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-7]_*.py"))

# sha256 of each demo's stdout.  The demos print exact results only, so a
# change to any digit of a polynomial, ideal, bound or witness shows here;
# the digests do not depend on PYTHONHASHSEED.
STDOUT_SHA256 = {
    "01_varieties_and_gradings": "1cf9ff2db193ae849fef43a534ee327fb4455405484e2f2390c0a8f69e691e50",
    "02_stanley_filtrations": "8533c24798b4530758651500021e1e47f8223f438d6882e45239511c8619ee64",
    "03_hilbert_polynomials": "4db7293a48d5ed21ce9bf3153fc1652938f2c59ce2b98b4f8a1f009c7bb3d93c",
    "04_regularity_bounds": "b453ff80cb7839be19f50831ae6f42f619f586761b13901448bd768b673b016b",
    "05_enumerate_ideals": "ebe4c5916956637a9566950c9dc7dba6965229333b6959602f70fb6df3144dfb",
    "06_gotzmann_standard": "c109503f103e81db681237d49ab44034c9704b72a1aecef9caff4a2205423009",
    "07_degree_sets": "50d11e41893f8e246df08001804ef83bc61c1447d152aceb4e62f6feab688ef5",
}


def test_all_demos_found():
    assert len(DEMOS) == 7
    assert sorted(STDOUT_SHA256) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem], \
        proc.stdout.decode()
