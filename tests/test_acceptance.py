"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite targets well under a minute single-threaded.
"""

import math

import numpy as np
import pytest

from cohtrade import (
    ckw_tangle_oracle,
    default_grid,
    density_from_pure,
    ensemble_reports,
    family_sweep,
    ghz_state,
    l1_coherence,
    minimize_slack,
    read_state_file,
    run_suite,
    sample_ginibre_mixed,
    sample_haar_pure,
    subset_coherence,
    three_tangle,
    two_term_state,
    verify_additive_conjecture,
    verify_corollary1,
    verify_marginal_split,
    verify_singles_sum,
    verify_theorem1,
    verify_theorem3,
    write_state_file,
)
from cohtrade.families import QUANTITIES
from cohtrade.states import LocalDims
from conftest import table_bound

EPS_INEQ = 1e-9
CLOSED_FORM_TOL = 1e-10
# its residual is the paper's D/2 on a density matrix and D'/2 on amplitudes
THM1 = table_bound("thm1")


def _report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")


class _Criterion:
    """Context manager printing the criterion verdict even on assertion failure."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _report(self.number, self.description, exc_type is None)
        return False


# ---------------------------------------------------------------------------
# shared ensembles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def three_qubit_property_stats():
    """One pass over 10^4 Haar pure + 10^4 Ginibre mixed three-qubit states."""
    dims = LocalDims((2, 2, 2))
    min_slack = {"thm1": math.inf, "eq3": math.inf,
                 "eq5-single1": math.inf, "eq5-single2": math.inf, "eq5-single3": math.inf}
    violations = 0
    min_d = math.inf
    min_residual = math.inf  # 2*C123 - (C12+C13+C23) - D
    trials = 0

    def examine(ensemble):
        nonlocal violations, min_d, min_residual, trials
        thm1_slack = []
        for rho in ensemble:
            results = [verify_theorem1(rho), verify_singles_sum(rho)]
            results += [verify_marginal_split(rho, s) for s in (1, 2, 3)]
            for r in results:
                if r.slack < min_slack[r.name]:
                    min_slack[r.name] = r.slack
                if not r.holds:
                    violations += 1
            thm1_slack.append(results[0].slack)
            trials += 1
        # one stacked call: at D = 8 each state's residual does not depend on the rest
        d = 2 * THM1.residual(np.stack([rho.mat for rho in ensemble]))
        min_d = min(min_d, d.min().item())
        min_residual = min(min_residual, (2.0 * np.array(thm1_slack) - d).min().item())

    examine([density_from_pure(sample_haar_pure(dims, seed)) for seed in range(10_000)])
    examine([sample_ginibre_mixed(dims, 1 + seed % 8, 20_000 + seed) for seed in range(10_000)])

    return {
        "min_slack": min_slack,
        "violations": violations,
        "min_d": min_d,
        "min_residual": min_residual,
        "trials": trials,
    }


@pytest.fixture(scope="module")
def haar_tangle_ensemble():
    return [sample_haar_pure((2, 2, 2), 50_000 + seed) for seed in range(1_000)]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_ghz_reproduction():
    with _Criterion(1, "GHZ closed forms and tangle-bound equality"):
        point = family_sweep("ghz", [(np.pi / 4,)])
        numeric = dict(zip(QUANTITIES, point.numeric[:, 0].tolist()))
        assert abs(numeric["c123"] - 1.0) < CLOSED_FORM_TOL
        for pair in ("c12", "c13", "c23"):
            assert abs(numeric[pair]) < CLOSED_FORM_TOL
        assert abs(numeric["tau"] - 1.0) < CLOSED_FORM_TOL
        thm3 = point.names.index("thm3")
        assert point.holds[thm3, 0] and abs(point.slack[thm3, 0]) < 1e-10

        sweep = family_sweep("ghz", default_grid("ghz", 64))
        assert len(sweep) == 64
        for i, (phi,) in enumerate(sweep.params):
            numeric = dict(zip(QUANTITIES, sweep.numeric[:, i].tolist()))
            closed = dict(zip(QUANTITIES, sweep.closed[:, i].tolist()))
            assert abs(numeric["c123"] - 2 * abs(math.sin(phi) * math.cos(phi))) < 1e-10
            assert abs(numeric["tau"] - 4 * abs(math.cos(phi) ** 2 * math.sin(phi) ** 2)) < 1e-10
            for q in ("c12", "c13", "c23"):
                assert abs(numeric[q] - closed[q]) < 1e-10


def test_criterion_2_w_reproduction():
    with _Criterion(2, "W closed forms on a 32x32 grid, tangle bound everywhere"):
        sweep = family_sweep("w", default_grid("w", 32))
        assert len(sweep) == 1024
        assert (abs(sweep.numeric - sweep.closed) < 1e-10).all()
        assert sweep.holds[sweep.names.index("thm3")].all()


def test_criterion_3_conjecture_refutation():
    with _Criterion(3, "two-term state refutes the additive conjecture"):
        rho = density_from_pure(two_term_state(np.pi / 4))
        assert abs(l1_coherence(rho) - 1.0) < 1e-12
        c12 = subset_coherence(rho, (1, 2))
        c13 = subset_coherence(rho, (1, 3))
        assert abs(c12 + c13 - 2.0) < 1e-12
        eq4 = verify_additive_conjecture(rho, 1)
        assert not eq4.holds
        thm1 = verify_theorem1(rho)
        assert thm1.holds and abs(thm1.slack) < 1e-10


def test_criterion_4_proved_bounds_on_random_ensembles(three_qubit_property_stats):
    stats = three_qubit_property_stats
    with _Criterion(4, "thm1/eq3/eq5 hold on 10^4 pure + 10^4 mixed states"):
        assert stats["trials"] == 20_000
        assert stats["violations"] == 0
        for name, slack in stats["min_slack"].items():
            assert slack >= -EPS_INEQ, f"{name} slack {slack}"


def test_criterion_5_subset_family_bound_for_higher_n_and_qudits():
    with _Criterion(5, "subset-family bound for every m at 4/5 qubits and qudits"):
        for dims_tuple in ((2, 2, 2, 2), (2, 2, 2, 2, 2), (3, 3, 3), (2, 3, 4)):
            dims = LocalDims(dims_tuple)
            n = dims.n_parties
            states = [density_from_pure(sample_haar_pure(dims, s)) for s in range(500)]
            states += [
                sample_ginibre_mixed(dims, 1 + s % dims.total_dim, 70_000 + s)
                for s in range(500)
            ]
            prefix = "cor1" if dims.all_qubits else "cor2"
            for rho in states:
                for m in range(1, n + 1):
                    r = verify_corollary1(rho, m)
                    assert r.name == f"{prefix}-m{m}"
                    assert r.slack >= -EPS_INEQ, f"{dims_tuple} m={m} slack {r.slack}"


def test_criterion_6_tangle_oracle_equivalence(haar_tangle_ensemble):
    with _Criterion(6, "tangle formula vs monogamy oracle, and D'/2 >= tau"):
        max_diff = 0.0
        tau = np.array([three_tangle(psi) for psi in haar_tangle_ensemble])
        for psi, t in zip(haar_tangle_ensemble, tau.tolist()):
            max_diff = max(max_diff, abs(t - ckw_tangle_oracle(psi)))
        residual = THM1.residual(np.stack([psi.amps for psi in haar_tangle_ensemble]))
        min_slack = (residual - tau).min().item()
        assert max_diff < 1e-8, f"max formula/oracle gap {max_diff}"
        assert min_slack >= -EPS_INEQ


def test_criterion_7_proof_residual_consistency(three_qubit_property_stats):
    stats = three_qubit_property_stats
    with _Criterion(7, "2*C123 - pairwise sum >= D >= 0 on 2x10^4 states"):
        assert stats["min_d"] >= 0.0
        assert stats["min_residual"] >= -EPS_INEQ


def test_criterion_8_search_sanity():
    with _Criterion(8, "search reaches thm1 equality, deep eq4 violation, no false dips"):
        thm1 = minimize_slack("thm1", (2, 2, 2), restarts=50, seed=0)
        assert -EPS_INEQ <= thm1.best_value <= 1e-6, f"thm1 best {thm1.best_value}"

        eq4 = minimize_slack("eq4-pivot1", (2, 2, 2), restarts=50, seed=0)
        assert eq4.best_value <= -0.9, f"eq4 best {eq4.best_value}"

        proved = ["thm2", "cor1-m1", "cor1-m3", "eq3",
                  "eq5-single1", "eq5-single2", "eq5-single3", "thm3", "eq10"]
        for objective in proved:
            out = minimize_slack(objective, (2, 2, 2), restarts=50, seed=0,
                                 iterations=200, rounds=1)
            assert out.best_value >= -EPS_INEQ, f"{objective} best {out.best_value}"


def test_criterion_9_plumbing_round_trips(tmp_path):
    with _Criterion(9, "state-file round trips are bit-stable, same-seed runs identical"):
        # pure and density file round trips
        psi = ghz_state(np.pi / 4)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_state_file(p1, psi)
        loaded = read_state_file(p1)
        assert np.array_equal(loaded.amps, psi.amps)
        write_state_file(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

        rho = sample_ginibre_mixed((2, 2, 2), 5, 321)
        d1, d2 = tmp_path / "c.json", tmp_path / "d.json"
        write_state_file(d1, rho)
        reloaded = read_state_file(d1)
        assert np.array_equal(reloaded.mat, rho.mat)
        write_state_file(d2, reloaded)
        assert d1.read_bytes() == d2.read_bytes()

        # re-verifying a reloaded state reproduces the run bit-exactly
        before = run_suite(rho)
        after = run_suite(reloaded)
        assert [(r.name, r.lhs, r.rhs, r.slack, r.holds) for r in before] == [
            (r.name, r.lhs, r.rhs, r.slack, r.holds) for r in after
        ]

        # same-seed determinism across samplers, ensembles and search
        assert np.array_equal(
            sample_haar_pure((2, 2, 2), 77).amps, sample_haar_pure((2, 2, 2), 77).amps
        )
        assert np.array_equal(
            sample_ginibre_mixed((2, 3), 3, 5).mat, sample_ginibre_mixed((2, 3), 3, 5).mat
        )
        ra = ensemble_reports(LocalDims((2, 2, 2)), trials=20, seed=4)
        rb = ensemble_reports(LocalDims((2, 2, 2)), trials=20, seed=4)
        assert ra == rb
        sa = minimize_slack("thm1", (2, 2, 2), restarts=2, seed=5, iterations=60, rounds=2)
        sb = minimize_slack("thm1", (2, 2, 2), restarts=2, seed=5, iterations=60, rounds=2)
        assert sa.best_value == sb.best_value
        assert np.array_equal(sa.best_state.amps, sb.best_state.amps)
