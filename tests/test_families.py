import numpy as np
import pytest
from conftest import paper_rhs, proved

from cohtrade import (
    closed_forms,
    default_grid,
    density_from_pure,
    family_point,
    family_sweep,
    ghz_state,
    l1_coherence,
    subset_coherence,
    three_tangle,
    two_term_state,
    w_state,
)
from cohtrade import families, inequalities


def test_family_states_place_amplitudes_correctly():
    psi = ghz_state(0.3)
    assert psi.amps[0] == pytest.approx(np.cos(0.3))
    assert psi.amps[7] == pytest.approx(np.sin(0.3))
    assert np.count_nonzero(psi.amps) == 2

    psi = w_state(0.4, 0.9)
    assert psi.amps[4] == pytest.approx(np.sin(0.4) * np.cos(0.9))  # |100>
    assert psi.amps[2] == pytest.approx(np.sin(0.4) * np.sin(0.9))  # |010>
    assert psi.amps[1] == pytest.approx(np.cos(0.4))  # |001>

    psi = two_term_state(1.2)
    assert psi.amps[0] == pytest.approx(np.cos(1.2))
    assert psi.amps[4] == pytest.approx(np.sin(1.2))


def test_family_point_validates_domains():
    assert family_point("ghz", (0.5,)).family == "ghz"
    with pytest.raises(ValueError, match=r"^ghz parameter phi=7.0 outside \[0, 2pi\)$"):
        family_point("ghz", (7.0,))
    with pytest.raises(ValueError, match=r"^w parameter theta=3.5 outside \[0, pi\)$"):
        family_point("w", (3.5, 0.1))
    with pytest.raises(ValueError, match=r"^w parameter phi=nan outside \[0, 2pi\)$"):
        family_point("w", (0.5, float("nan")))
    with pytest.raises(ValueError, match=r"^two-term parameter alpha=-0.1 outside \[0, 2pi\)$"):
        family_point("two-term", (-0.1,))
    with pytest.raises(ValueError, match="unknown family 'bell'"):
        family_point("bell", (0.1,))


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("ghz", (0.1, 0.2), "ghz takes 1 parameter (phi), got 2"),
        ("w", (0.1,), "w takes 2 parameters (theta, phi), got 1"),
        ("two-term", (), "two-term takes 1 parameter (alpha), got 0"),
    ],
)
def test_parameter_count_is_checked_with_the_names(family, params, message):
    for function in (family_point, closed_forms):
        with pytest.raises(ValueError) as exc:
            function(family, params)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match="unknown family 'bell'"):
        closed_forms("bell", (0.1,))


def test_default_grid_shapes():
    assert len(default_grid("ghz", 64)) == 64
    assert len(default_grid("w", 8)) == 64
    assert len(default_grid("two-term", 33)) == 33
    with pytest.raises(ValueError):
        default_grid("ghz", 0)
    with pytest.raises(ValueError):
        default_grid("unknown", 4)


def test_ghz_sweep_matches_closed_forms():
    records = family_sweep("ghz", default_grid("ghz", 64))
    assert len(records) == 64
    for rec in records:
        for q in ("c123", "c12", "c13", "c23", "tau"):
            assert abs(rec.numeric[q] - rec.closed[q]) < 1e-10
        for r in rec.results:
            if proved((2, 2, 2), pure=True)[r.name]:
                assert r.holds


def test_w_sweep_matches_closed_forms():
    records = family_sweep("w", default_grid("w", 8))
    for rec in records:
        for q in ("c123", "c12", "c13", "c23", "tau"):
            assert abs(rec.numeric[q] - rec.closed[q]) < 1e-10
        assert rec.numeric["tau"] < 1e-10
        thm3 = next(r for r in rec.results if r.name == "thm3")
        assert thm3.holds


def test_two_term_sweep_has_theorem1_equality_everywhere():
    records = family_sweep("two-term", default_grid("two-term", 17))
    for rec in records:
        thm1 = next(r for r in rec.results if r.name == "thm1")
        assert abs(thm1.slack) < 1e-10


def test_two_term_family_refutes_additive_conjecture():
    alphas = np.linspace(0.05, np.pi / 2 - 0.05, 15)
    for alpha in alphas:
        records = family_sweep("two-term", [(float(alpha),)])
        eq4 = next(r for r in records[0].results if r.name == "eq4-pivot1")
        assert not eq4.holds
        assert eq4.lhs / eq4.rhs == pytest.approx(0.5, abs=1e-12)


def test_closed_forms_reject_unknown_family():
    with pytest.raises(ValueError):
        closed_forms("bell", (0.1,))


def assert_record_matches_primitives(rec, tolerance=1e-9):
    psi = rec.point.state
    rho = density_from_pure(psi)
    assert rec.numeric == {
        "c123": l1_coherence(rho),
        "c12": subset_coherence(rho, (1, 2)),
        "c13": subset_coherence(rho, (1, 3)),
        "c23": subset_coherence(rho, (2, 3)),
        "tau": three_tangle(psi),
    }
    assert all(type(v) is float for v in rec.numeric.values())
    assert rec.closed == closed_forms(rec.point.family, rec.point.params)
    lhs = l1_coherence(rho)
    expected = [
        (name, lhs, rhs, lhs - rhs, lhs - rhs >= -tolerance, tolerance)
        for name, rhs in paper_rhs(rho, psi).items()
    ]
    got = [(r.name, r.lhs, r.rhs, r.slack, r.holds, r.tolerance) for r in rec.results]
    assert got == expected


@pytest.mark.parametrize("family, points", [("ghz", 16), ("w", 5), ("two-term", 9)])
def test_sweep_equals_per_state_primitives(family, points):
    grid = default_grid(family, points)
    records = family_sweep(family, grid)
    assert [rec.point.params for rec in records] == [tuple(map(float, p)) for p in grid]
    for rec in records:
        assert_record_matches_primitives(rec)


def test_sweep_across_chunks(monkeypatch):
    grid = default_grid("w", 6)
    whole = family_sweep("w", grid, 1e-7)
    calls = []
    suite_stack = families.suite_stack

    def counting_suite_stack(dims, states):
        calls.append(len(states))
        return suite_stack(dims, states)

    monkeypatch.setattr(families, "suite_stack", counting_suite_stack)
    monkeypatch.setattr(inequalities, "CHUNK_ENTRIES", 5 * 64)
    chunked = family_sweep("w", grid, 1e-7)
    assert calls == [5] * 7 + [1]
    assert [rec.point.params for rec in chunked] == [rec.point.params for rec in whole]
    for a, b in zip(whole, chunked):
        assert a.numeric == b.numeric
        assert a.results == b.results
        assert_record_matches_primitives(b, 1e-7)


def test_sweep_of_empty_grid():
    assert family_sweep("ghz", []) == []
