import numpy as np
import pytest
from conftest import paper_rhs, proved

from cohtrade import (
    closed_forms,
    default_grid,
    density_from_pure,
    family_sweep,
    ghz_state,
    l1_coherence,
    subset_coherence,
    three_tangle,
    two_term_state,
    w_state,
)
from cohtrade import families, inequalities
from cohtrade.families import QUANTITIES

STATES = {"ghz": ghz_state, "w": w_state, "two-term": two_term_state}


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
    assert family_sweep("ghz", [(0.5,)]).family == "ghz"
    with pytest.raises(ValueError, match=r"^ghz parameter phi=7.0 outside \[0, 2pi\)$"):
        family_sweep("ghz", [(7.0,)])
    with pytest.raises(ValueError, match=r"^w parameter theta=3.5 outside \[0, pi\)$"):
        family_sweep("w", [(3.5, 0.1)])
    with pytest.raises(ValueError, match=r"^w parameter phi=nan outside \[0, 2pi\)$"):
        family_sweep("w", [(0.5, float("nan"))])
    with pytest.raises(ValueError, match=r"^two-term parameter alpha=-0.1 outside \[0, 2pi\)$"):
        family_sweep("two-term", [(-0.1,)])
    with pytest.raises(ValueError, match="unknown family 'bell'"):
        family_sweep("bell", [(0.1,)])


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("ghz", (0.1, 0.2), "ghz takes 1 parameter (phi), got 2"),
        ("w", (0.1,), "w takes 2 parameters (theta, phi), got 1"),
        ("two-term", (), "two-term takes 1 parameter (alpha), got 0"),
    ],
)
def test_parameter_count_is_checked_with_the_names(family, params, message):
    for function in (lambda f, p: family_sweep(f, [p]), closed_forms):
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
    sweep = family_sweep("ghz", default_grid("ghz", 64))
    assert len(sweep) == 64
    assert (abs(sweep.numeric - sweep.closed) < 1e-10).all()
    for name, holds in zip(sweep.names, sweep.holds):
        if proved((2, 2, 2), pure=True)[name]:
            assert holds.all()


def test_w_sweep_matches_closed_forms():
    sweep = family_sweep("w", default_grid("w", 8))
    assert (abs(sweep.numeric - sweep.closed) < 1e-10).all()
    assert (sweep.numeric[QUANTITIES.index("tau")] < 1e-10).all()
    assert sweep.holds[sweep.names.index("thm3")].all()


def test_two_term_sweep_has_theorem1_equality_everywhere():
    sweep = family_sweep("two-term", default_grid("two-term", 17))
    assert (abs(sweep.slack[sweep.names.index("thm1")]) < 1e-10).all()


def test_two_term_family_refutes_additive_conjecture():
    alphas = np.linspace(0.05, np.pi / 2 - 0.05, 15)
    for alpha in alphas:
        sweep = family_sweep("two-term", [(float(alpha),)])
        k = sweep.names.index("eq4-pivot1")
        assert not sweep.holds[k, 0]
        lhs = sweep.numeric[QUANTITIES.index("c123"), 0]
        assert lhs / (lhs - sweep.slack[k, 0]) == pytest.approx(0.5, abs=1e-12)


def test_closed_forms_reject_unknown_family():
    with pytest.raises(ValueError):
        closed_forms("bell", (0.1,))


def assert_point_matches_primitives(sweep, i, tolerance=1e-9):
    params = sweep.params[i]
    psi = STATES[sweep.family](*params)
    rho = density_from_pure(psi)
    numeric = dict(zip(QUANTITIES, sweep.numeric[:, i].tolist()))
    assert numeric == {
        "c123": l1_coherence(rho),
        "c12": subset_coherence(rho, (1, 2)),
        "c13": subset_coherence(rho, (1, 3)),
        "c23": subset_coherence(rho, (2, 3)),
        "tau": three_tangle(psi),
    }
    assert all(type(v) is float for v in numeric.values())
    assert dict(zip(QUANTITIES, sweep.closed[:, i].tolist())) == closed_forms(sweep.family, params)
    lhs = l1_coherence(rho)
    expected = [
        (name, lhs - rhs, lhs - rhs >= -tolerance, tolerance)
        for name, rhs in paper_rhs(rho, psi).items()
    ]
    columns = zip(sweep.names, sweep.slack[:, i].tolist(), sweep.holds[:, i].tolist())
    got = [(name, slack, holds, sweep.tolerance) for name, slack, holds in columns]
    assert got == expected


@pytest.mark.parametrize("family, points", [("ghz", 16), ("w", 5), ("two-term", 9)])
def test_sweep_equals_per_state_primitives(family, points):
    grid = default_grid(family, points)
    sweep = family_sweep(family, grid)
    assert sweep.params == [tuple(map(float, p)) for p in grid]
    for i in range(len(sweep)):
        assert_point_matches_primitives(sweep, i)


def test_sweep_across_chunks(monkeypatch):
    grid = default_grid("w", 6)
    whole = family_sweep("w", grid, 1e-7)
    calls = []
    evaluate_stack = families._evaluate_stack

    def counting_evaluate_stack(dims, states):
        calls.append(len(states))
        return evaluate_stack(dims, states)

    monkeypatch.setattr(families, "_evaluate_stack", counting_evaluate_stack)
    monkeypatch.setattr(inequalities, "CHUNK_ENTRIES", 5 * 64)
    chunked = family_sweep("w", grid, 1e-7)
    assert calls == [5] * 7 + [1]
    assert chunked.params == whole.params
    for field in ("closed", "numeric", "slack", "holds"):
        assert np.array_equal(getattr(chunked, field), getattr(whole, field))
    for i in range(len(chunked)):
        assert_point_matches_primitives(chunked, i, 1e-7)


def test_sweep_of_empty_grid():
    sweep = family_sweep("ghz", [])
    assert sweep.params == []
    assert sweep.closed.shape == sweep.numeric.shape == (5, 0)
    assert sweep.slack.shape == sweep.holds.shape == (len(sweep.names), 0)
