"""Command-line behavior: outputs, exit codes, JSON round trips."""

import gc
import json
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

import toricreg
from toricreg import enumeration as en
from toricreg import regularity as rg
from toricreg import variety as tv
from toricreg.cli import main
from toricreg.multipoly import parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stanley_verb(capsys):
    code, out, _ = run(capsys, "stanley", "--variety", "P(1)", "--ideal", "x1")
    assert code == 0
    assert out.strip() == "(1, {2})"


def test_hilbert_ring(capsys):
    code, out, _ = run(capsys, "hilbert", "--variety", "Hirzebruch(2)", "--ring")
    assert code == 0
    assert out.strip() == "t1*t2 + t2^2 + t1 + 2*t2 + 1"


def test_hilbert_ideal(capsys):
    code, out, _ = run(capsys, "hilbert", "--variety", "P(3)",
                       "--ideal", "x1*x4^2, x2*x4^2, x3*x4^2")
    assert code == 0
    assert out.strip() == "t^2 + 2*t + 2"


def test_enumerate_summary(capsys):
    code, out, _ = run(capsys, "enumerate", "--variety", "P(2)", "--poly", "3*t+1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count=30 gotzmann=4"
    ideals = json.loads("\n".join(lines[:-1]))
    assert len(ideals) == 30
    assert all("generators" in entry and "filtration" in entry for entry in ideals)


def test_enumerate_json_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "--variety", "P(2)", "--poly", "3*t+1",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 30 and data["gotzmann"] == 4
    assert json.loads(json.dumps(data)) == data


def test_gotzmann_verb(capsys):
    code, out, _ = run(capsys, "gotzmann", "--poly", "3*t+1", "--vars", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m=4"
    assert lines[1] == "q=(1,1,1,0)"
    assert lines[2] == "<x1^3*x2, x1^4>"
    assert lines[3:] == ["(1, {2,3})", "(x1, {2,3})", "(x1^2, {2,3})", "(x1^3, {3})"]


def test_lex_verb(capsys):
    code, out, _ = run(capsys, "lex", "--poly", "2*t+2", "--vars", "3")
    assert code == 0
    assert out.splitlines()[0] == "<x1^2*x2, x1^3>"


def test_regularity_verbs(capsys):
    code, out, _ = run(capsys, "regularity", "--variety", "PxP(2,1)",
                       "--poly", "3*t1+1")
    assert code == 0
    assert out.strip() == "{(3,3)} + K  [baseline assumption: default-K]"
    code, out, _ = run(capsys, "regularity", "--variety", "P(3)",
                       "--ideal", "x1*x4^2, x2*x4^2, x3*x4^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"generators": [[2]], "assumed_baselines": "default-K"}


def test_variety_verb_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "variety", "--variety", "Hirzebruch(2)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["grading"] == [[1, -2, 1, 0], [0, 1, 0, 1]]
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"rays": data["rays"], "max_cones": data["max_cones"],
                                "grading": data["grading"]}))
    code, out2, _ = run(capsys, "variety", "--variety", str(path), "--json")
    assert code == 0
    assert json.loads(out2)["grading"] == data["grading"]


def test_degset_verb(capsys):
    code, out, _ = run(capsys, "degset", "--variety", "P(1)", "--poly", "t+1",
                       "--seed", "3")
    assert code == 0
    assert "supportive check: pass" in out


def test_degset_deterministic(capsys):
    _, out1, _ = run(capsys, "degset", "--variety", "P(2)", "--poly", "2",
                     "--seed", "9", "--json")
    _, out2, _ = run(capsys, "degset", "--variety", "P(2)", "--poly", "2",
                     "--seed", "9", "--json")
    assert out1 == out2


def test_regularity_with_baseline_file(tmp_path, capsys):
    # a weaker assumed baseline for the face ring on x4 moves the bound
    baselines = {"label": "custom",
                 "baselines": [{"sigma": [4], "generators": [[3]]}]}
    path = tmp_path / "assume.json"
    path.write_text(json.dumps(baselines))
    code, out, _ = run(capsys, "regularity", "--variety", "P(3)",
                       "--ideal", "x1*x4^2, x2*x4^2, x3*x4^2",
                       "--assume-baseline", str(path))
    assert code == 0
    # the (x4^2, {4}) pair now contributes 2 + 3 + K, dominating the rest
    assert out.strip() == "{(5)} + K  [baseline assumption: custom]"


def test_regularity_poly_with_distinct_baselines(tmp_path, capsys):
    # the uniform bound intersects each distinct face baseline once: the
    # upset is the one from intersecting every face's baseline in turn,
    # (m - 1)c = (2, 2) plus the meet of {(2,0),(0,2)}, {(3,0),(0,1)},
    # {(1,0)} and K, each named by one or more of the 21 faces
    entries = [([1, 4], [[2, 0], [0, 2]]), ([3, 4, 5], [[2, 0], [0, 2]]),
               ([2, 5], [[3, 0], [0, 1]]), ([3, 5], [[3, 0], [0, 1]]),
               ([1, 2, 3, 4, 5], [[1, 0]])]
    path = tmp_path / "assume.json"
    path.write_text(json.dumps({"label": "distinct", "baselines": [
        {"sigma": sigma, "generators": gens} for sigma, gens in entries]}))
    code, out, _ = run(capsys, "regularity", "--variety", "PxP(2,1)",
                       "--poly", "2*t1+t2+1", "--assume-baseline", str(path))
    assert code == 0
    assert out.strip() == "{(3,4),(4,3),(5,2)} + K  [baseline assumption: distinct]"
    X = tv.product_projective(2, 1)
    assume = rg.RegularityAssumption(
        {frozenset(i - 1 for i in sigma): rg.KUpset(X, gens) for sigma, gens in entries},
        "distinct")
    every_face = reduce(rg.upset_intersect, [assume.baseline(X, frozenset(range(X.n)) - face)
                                             for face in X.faces()])
    m = en.gotzmann_number(X, parse_poly("2*t1+t2+1", nvars=2))
    expected = every_face.translate(tuple((m - 1) * x for x in tv.find_c(X)))
    assert out.strip() == rg.format_upset(expected, assume)


def test_bad_baseline_file_is_a_parse_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "regularity", "--variety", "P(2)", "--poly", "3*t+1",
                       "--assume-baseline", str(missing))
    assert code == 2
    assert "ParseError" in err
    no_sigma = tmp_path / "no_sigma.json"
    no_sigma.write_text(json.dumps({"baselines": [{"generators": [[3]]}]}))
    code, _, err = run(capsys, "regularity", "--variety", "P(2)", "--poly", "3*t+1",
                       "--assume-baseline", str(no_sigma))
    assert code == 2
    assert "ParseError" in err
    # entries that are not integers, indices outside 1..n and generators
    # of the wrong length are rejected, not truncated or ignored
    for name, entry in (("float_generator", {"sigma": [2, 3], "generators": [[2.7]]}),
                        ("float_sigma", {"sigma": [2, 1.5], "generators": [[2]]}),
                        ("sigma_too_large", {"sigma": [9], "generators": [[2]]}),
                        ("sigma_zero", {"sigma": [0], "generators": [[2]]}),
                        ("long_generator", {"sigma": [2, 3], "generators": [[2, 5]]})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"baselines": [entry]}))
        code, out, err = run(capsys, "regularity", "--variety", "P(2)",
                             "--ideal", "x1^2, x1*x2", "--assume-baseline", str(path))
        assert (code, out) == (2, ""), name
        assert "ParseError" in err


def test_bad_ideal_file_is_a_parse_error(tmp_path, capsys):
    for name, data in (("list.json", [1]),
                       ("letters.json", {"generators": [["a"]]}),
                       ("fraction.json", {"generators": [[1.5, 0, 0]]}),
                       ("short.json", {"generators": [[1, 0]]})):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "hilbert", "--variety", "P(2)", "--ideal", str(path))
        assert code == 2, name
        assert "ParseError" in err


MALFORMED_VARIETIES = {
    "ragged-rays": {"rays": [[1, 0], [0, 1, 0], [-1, -1]],
                    "max_cones": [[1, 2], [2, 3], [1, 3]]},
    "grading-shape": {"rays": [[1, 0], [0, 1], [-1, -1]],
                      "max_cones": [[1, 2], [2, 3], [1, 3]], "grading": [[1, 1]]},
    "non-integer-entry": {"rays": [[1, 0], [0, "a"], [-1, -1]],
                          "max_cones": [[1, 2], [2, 3], [1, 3]]},
    "fractional-entry": {"rays": [[1.7, 0], [0, 1], [-1, -1]],
                         "max_cones": [[1, 2], [2, 3], [1, 3]]},
    "fractional-index": {"rays": [[1, 0], [0, 1], [-1, -1]],
                         "max_cones": [[1, 2], [2, 3], [1.9, 3]]},
    "index-above-n": {"rays": [[1, 0], [0, 1], [-1, -1]],
                           "max_cones": [[1, 2], [2, 4], [1, 3]]},
    "index-zero": {"rays": [[1, 0], [0, 1], [-1, -1]],
                     "max_cones": [[1, 2], [2, 3], [0, 3]]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_VARIETIES))
@pytest.mark.parametrize("extra", [(), ("--assume-complete",)],
                         ids=["checked", "assume-complete"])
def test_malformed_variety_file_is_a_parse_error(tmp_path, capsys, name, extra):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(MALFORMED_VARIETIES[name]))
    code, out, err = run(capsys, "variety", "--variety", str(path), *extra)
    assert code == 2
    assert out == ""
    assert "ParseError" in err


def test_runs_without_numpy(capsys):
    # the package declares no dependencies: with numpy made unimportable
    # a fresh process answers exactly as this one does
    script = ("import sys\n"
              "sys.modules['numpy'] = None\n"
              "from toricreg.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(toricreg.__file__).parents[1]))
    for argv in (["enumerate", "--variety", "PxP(2,1)", "--poly", "t1+1"],
                 ["regularity", "--variety", "PxP(2,1)", "--ideal", "x1*x4, x2^2"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        child = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                               capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        assert child.stdout == out


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "regularity", "--variety", "PxP(2,1)",
                       "--poly", "3*t2+1")
    assert code == 1
    assert "NoSaturatedIdeal" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "hilbert", "--variety", "P(2)", "--ideal", "y1")
    assert code == 2
    assert "ParseError" in err
    code, _, err = run(capsys, "variety", "--variety", "Nope(3)")
    assert code == 2
    code, out, err = run(capsys, "regularity", "--variety", "P(2)", "--poly", "t+1/0")
    assert (code, out) == (2, "")
    assert "ParseError" in err


@pytest.mark.parametrize("name", ["P(0)", "PxP(0,1)", "Hirzebruch(-1)",
                                  "P(-)", "PxP(1,)", "P(1 2)"])
def test_malformed_variety_name_is_a_parse_error(capsys, name):
    # arguments out of range and arguments that are not integers both
    # exit 2 with a ParseError rather than escaping main as ValueError
    code, out, err = run(capsys, "variety", "--variety", name)
    assert (code, out) == (2, "")
    assert "ParseError" in err


def test_misnamed_poly_variable_is_a_parse_error(capsys):
    for poly in ("t0+1", "3*t+1"):
        code, out, err = run(capsys, "regularity", "--variety", "PxP(2,1)", "--poly", poly)
        assert (code, out) == (2, ""), poly
        assert "ParseError" in err
    code, _, err = run(capsys, "regularity", "--variety", "P(2)", "--poly", "t0+1")
    assert code == 2
    assert "ParseError" in err


@pytest.mark.parametrize("verb", ["gotzmann", "lex"])
@pytest.mark.parametrize("nvars", ["0", "-1"])
def test_vars_below_one_is_a_parse_error(capsys, verb, nvars):
    code, out, err = run(capsys, verb, "--poly", "3*t+1", "--vars", nvars)
    assert (code, out) == (2, "")
    assert "ParseError" in err


def test_stanley_json_round_trip(capsys):
    code, out, _ = run(capsys, "stanley", "--variety", "P(3)",
                       "--ideal", "x1*x4^2, x2*x4^2, x3*x4^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pairs"][0] == {"shift": [0, 0, 0, 0], "face": [1, 2, 3]}


def test_parser_is_built_once(monkeypatch, capsys):
    from toricreg import cli

    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert run(capsys, "hilbert", "--variety", "P(1)", "--ring")[:2] == (0, "t + 1\n")
        assert run(capsys, "lex", "--poly", "2*t+2", "--vars", "3", "--json")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--variety", "P(2)"])
        assert exc.value.code == 2
        assert run(capsys, "hilbert", "--variety", "P(1)", "--ring")[:2] == (0, "t + 1\n")
    finally:
        cli._parser.cache_clear()
    assert built == [1]


HEXAGON = {"rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
           "max_cones": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]]}


def test_nef_cone_without_nef_basis(tmp_path, capsys):
    # the hexagon's nef cone has 5 rays in rank 4: bounds with one
    # translate print, intersections and uniform bounds are Unsupported,
    # and a missing baseline is reported before any intersection
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(HEXAGON))
    variety = ("--variety", str(path))
    unsupported = ("error: Unsupported: minimal generators of intersections need a "
                   "simplicial unimodular K")
    uniform = "error: Unsupported: uniform bound needs a simplicial unimodular K"
    expected = [
        (("regularity", "--ideal", "x1*x2,x3^2"), 1, "",
         "error: MissingBaseline: no regularity baseline for face ring on variables "
         "[2, 4, 5, 6] (complement is not a face)"),
        (("regularity", "--ideal", "x1*x3,x2"), 1, "", unsupported),
        (("regularity", "--ideal", "x1*x3,x2", "--json"), 1, "", unsupported),
        (("regularity", "--ideal", "x1"), 0,
         "{(0,0,0,0)} + K  [baseline assumption: default-K]", ""),
        (("regularity", "--ideal", "x1", "--json"), 0,
         '{"generators": [[0, 0, 0, 0]], "assumed_baselines": "default-K"}', ""),
        (("regularity", "--poly", "1"), 1, "", uniform),
        (("degset", "--poly", "1"), 1, "", uniform),
    ]
    for (verb, *rest), code, out, err in expected:
        got = run(capsys, verb, *variety, *rest)
        assert (got[0], got[1].strip(), got[2].strip()) == (code, out, err), rest
    code, out, err = run(capsys, "regularity", *variety, "--poly", "7*t1")
    assert (code, out) == (1, "")
    assert "NoSaturatedIdeal" in err


@pytest.mark.parametrize("argv", [
    ("stanley", "--variety", "P(3)", "--ideal", "x1*x4^2, x2*x4^2, x3*x4^2"),
    ("hilbert", "--variety", "P(3)", "--ideal", "x1*x4^2, x2*x4^2, x3*x4^2"),
    ("regularity", "--variety", "P(3)", "--ideal", "x1*x4^2, x2*x4^2, x3*x4^2"),
    ("regularity", "--variety", "PxP(2,1)", "--poly", "3*t1+1"),
    ("degset", "--variety", "P(2)", "--poly", "4", "--seed", "11"),
    ("gotzmann", "--poly", "3*t+1", "--vars", "3"),
    ("lex", "--poly", "3*t+1", "--vars", "3"),
    ("variety", "--variety", "Hirzebruch(2)"),
    ("enumerate", "--variety", "P(2)", "--poly", "3*t+1"),
], ids=["stanley", "hilbert", "regularity-ideal", "regularity-poly", "degset", "gotzmann",
        "lex", "variety", "enumerate"])
def test_request_leaves_no_reference_cycle(capsys, argv):
    # a cycle keeps its objects (fiber lists, trees, search nodes) alive
    # until the cyclic collector runs, so every request must free by
    # reference counting alone
    run(capsys, *argv)  # warm-up: one-time imports and module state
    gc.collect()
    gc.disable()
    try:
        code = main(list(argv))
        garbage = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert (code, garbage) == (0, 0)
