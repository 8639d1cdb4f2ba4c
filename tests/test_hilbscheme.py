"""Degree sets for the Hilbert scheme embedding and the Step-2 search."""

import pytest

from toricreg import hilbscheme as hs
from toricreg import ideals as mi
from toricreg import variety as tv
from toricreg.errors import BudgetExceeded, InfeasibleHilbertValue
from toricreg.hilbert import quotient_hilbert_polynomial
from toricreg.multipoly import MultiPoly, parse_poly

P1 = tv.projective_space(1)
P2 = tv.projective_space(2)


def test_ideals_generated_in_degree_four():
    out = hs.ideals_generated_in_degrees(P2, [(4,)], parse_poly("3*t+1"))
    assert len(out) == 105  # C(15, 2) two-generator choices
    survivors = set()
    for I in out:
        sat = mi.b_saturate(I, P2)
        if sat.is_unit():
            continue
        if quotient_hilbert_polynomial(P2, sat) == parse_poly("3*t+1"):
            survivors.add(sat)
    assert len(survivors) == 30


def test_full_fiber_forces_zero_ideal():
    out = hs.ideals_generated_in_degrees(P2, [(2,)], parse_poly("6", nvars=1))
    assert len(out) == 1 and out[0].is_zero()


def test_infeasible_values():
    with pytest.raises(InfeasibleHilbertValue):
        hs.ideals_generated_in_degrees(P2, [(1,)], parse_poly("7", nvars=1))
    with pytest.raises(InfeasibleHilbertValue):
        hs.ideals_generated_in_degrees(P2, [(1,)], parse_poly("-1", nvars=1))
    with pytest.raises(InfeasibleHilbertValue):
        hs.ideals_generated_in_degrees(P2, [(1,)], parse_poly("1/2*t", nvars=1))


def test_node_budget():
    with pytest.raises(BudgetExceeded):
        hs.ideals_generated_in_degrees(P2, [(4,)], parse_poly("3*t+1"), node_budget=5)


def test_consistency_across_degrees():
    # generators at one degree force their multiples at later degrees
    out = hs.ideals_generated_in_degrees(P1, [(1,), (3,)], parse_poly("1", nvars=1))
    assert sorted(out) == [mi.MonomialIdeal(2, [(0, 1)]), mi.MonomialIdeal(2, [(1, 0)])]


def test_degree_set_fixtures():
    for X, ptext in [(P1, "1"), (P1, "2"), (P1, "t+1"),
                     (P2, "1"), (P2, "2"), (P2, "t+1")]:
        P = parse_poly(ptext, nvars=1)
        result = hs.degree_set(X, P, seed=7)
        assert result.converged
        assert result.anchor in result.points
        assert hs.supportive_check(X, result, P), (X, ptext)
        for I in result.ideals:
            got = MultiPoly.zero(1) if I.is_unit() else quotient_hilbert_polynomial(X, I)
            assert got == P


def test_degree_set_monotone_trace():
    result = hs.degree_set(P2, parse_poly("t+1"), seed=3)
    sizes = [row["size"] for row in result.trace]
    assert sizes == sorted(sizes)
    assert result.trace[-1]["bad"] == 0


def test_degree_set_deterministic_per_seed():
    a = hs.degree_set(P2, parse_poly("2", nvars=1), seed=5)
    b = hs.degree_set(P2, parse_poly("2", nvars=1), seed=5)
    assert a.points == b.points
    c = hs.degree_set(P2, parse_poly("2", nvars=1), seed=6)
    assert c.converged  # different seed still converges


def test_saturation_bridging():
    # candidates matching H on D have saturations with Hilbert polynomial P
    P = parse_poly("2", nvars=1)
    result = hs.degree_set(P2, P, seed=7)
    for I in result.ideals:
        if I.is_unit() or I.is_zero():
            continue
        sat = mi.b_saturate(I, P2)
        got = MultiPoly.zero(1) if sat.is_unit() else quotient_hilbert_polynomial(P2, sat)
        assert got == P


def test_degset_enumerates_each_fiber_key_once(monkeypatch, capsys):
    # every fiber is cached by its degree: no degree is enumerated twice
    from toricreg import cli

    keys = []
    enumerate_fiber = mi._enumerate_fiber

    def counting(X, t, cap):
        keys.append(t)
        return enumerate_fiber(X, t, cap)

    monkeypatch.setattr(mi, "_enumerate_fiber", counting)
    assert cli.main(["degset", "--variety", "P(2)", "--poly", "4", "--seed", "11"]) == 0
    assert "supportive check: pass" in capsys.readouterr().out
    assert keys
    assert len(keys) == len(set(keys))
