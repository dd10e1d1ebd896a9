"""The stacked suite engine and the ensembles against the per-state primitives.

The reference is the paper's formulas written out from ``subset_coherence``,
``l1_coherence`` and ``three_tangle`` (``conftest.paper_rhs``), and
``DensityOperator.validate`` for malformed matrices.  Pure states with
``D >= AMPLITUDE_MIN_DIM`` take the amplitude route, whose reference
(``conftest.route_slacks``) reduces each state alone from its amplitudes and
also checks it against the density route within ``ROUTE_RTOL``.
"""

import numpy as np
import pytest
from conftest import complex_normals, route_slacks

from cohtrade import (
    DensityOperator,
    InvalidStateError,
    LocalDims,
    TrialReport,
    ensemble_reports,
    run_suite,
    sample_ginibre_mixed,
    sample_haar_pure,
    suite_names,
    suite_stack,
    three_tangle,
)
from cohtrade import inequalities
from cohtrade.states import sample_haar_stack

WIDE_DIMS = [(2, 2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2, 2)]


def reference_reports(dims, trials, seed, mixed=False, rank=None, tolerance=1e-9):
    """The per-state aggregation: every trial on its own, a strict < scan for the minimum."""
    stats, order = {}, []
    for t in range(trials):
        trial_seed = seed + t
        if mixed:
            full = dims.total_dim
            state = sample_ginibre_mixed(dims, rank if rank is not None else full, trial_seed)
        else:
            state = sample_haar_pure(dims, trial_seed)
        for name, _, _, slack in route_slacks(state):
            if name not in stats:
                stats[name] = [0, 0, float("inf"), trial_seed]
                order.append(name)
            entry = stats[name]
            entry[0] += 1
            if not slack >= -tolerance:
                entry[1] += 1
            if slack < entry[2]:
                entry[2] = slack
                entry[3] = trial_seed
    return [TrialReport(name, *stats[name], tolerance) for name in order]


def assert_stack_matches_suite(dims, states, stack):
    coherence, tau, rhs = suite_stack(dims, stack)
    lhs = coherence[-1]
    names = suite_names(dims, stack.ndim == 2)
    assert (tau is not None) == (stack.ndim == 2 and tuple(dims) == (2, 2, 2))
    for b, state in enumerate(states):
        expected = route_slacks(state)
        got = [
            (name, float(lhs[b]), float(rhs[k, b]), float(lhs[b] - rhs[k, b]))
            for k, name in enumerate(names)
        ]
        assert got == expected
        # run_suite, the one-row stack, takes the same sums as a wide stack
        assert [(r.name, r.lhs, r.rhs, r.slack) for r in run_suite(state)] == expected
        if tau is not None:
            assert tau[b] == three_tangle(state)


def test_haar_stack_rows_equal_single_samples():
    # the per-seed sampler: Box-Muller on one generator, then np.linalg.norm
    for dims in [(2, 2, 2), *WIDE_DIMS, (2,) * 8]:
        stack = sample_haar_stack(dims, range(30, 36))
        for row, seed in zip(stack, range(30, 36)):
            z = complex_normals(np.random.default_rng(seed), LocalDims(dims).total_dim)
            assert np.array_equal(row, z / np.linalg.norm(z))
            assert np.array_equal(row, sample_haar_pure(dims, seed).amps)


@pytest.mark.parametrize("dims", [(2, 2, 2), *WIDE_DIMS])
def test_pure_stack_equals_run_suite(dims):
    seeds = range(500, 540)
    states = [sample_haar_pure(dims, s) for s in seeds]
    assert_stack_matches_suite(dims, states, sample_haar_stack(dims, seeds))
    # a one-row stack takes the same sums as a wide one
    assert_stack_matches_suite(dims, states[:1], sample_haar_stack(dims, seeds[:1]))


@pytest.mark.parametrize("rank", range(1, 9))
def test_three_qubit_ginibre_stack_equals_run_suite(rank):
    states = [sample_ginibre_mixed((2, 2, 2), rank, 900 + s) for s in range(25)]
    assert_stack_matches_suite((2, 2, 2), states, np.stack([s.mat for s in states]))


@pytest.mark.parametrize("dims", WIDE_DIMS)
def test_wide_ginibre_stack_equals_run_suite(dims):
    d = LocalDims(dims).total_dim
    states = [sample_ginibre_mixed(dims, 1 + s % d, 700 + s) for s in range(20)]
    assert_stack_matches_suite(dims, states, np.stack([s.mat for s in states]))


@pytest.mark.parametrize(
    "dims, mixed, rank",
    [
        ((2, 2, 2), False, None),
        ((2, 2, 2), True, None),
        ((2, 2, 2), True, 1),
        ((2, 2, 2), True, 3),
        ((2, 2, 2, 2), False, None),
        ((2, 2, 2, 2), True, 5),
        ((3, 3, 3), False, None),
        ((2, 3, 4), True, None),
        ((3, 3), False, None),
    ],
)
def test_ensemble_reports_equal_per_state_aggregation(dims, mixed, rank):
    dims = LocalDims(dims)
    got = ensemble_reports(dims, 40, 77, mixed, rank)
    assert got == reference_reports(dims, 40, 77, mixed, rank)
    assert all(type(r.min_slack) is float and type(r.argmin_seed) is int for r in got)


def test_ensemble_reports_across_chunks(monkeypatch):
    # five-qubit density matrices hold 64 trials per chunk: 70 trials take two
    five = LocalDims((2,) * 5)
    assert ensemble_reports(five, 70, 3, True) == reference_reports(five, 70, 3, True)
    # three-qubit chunks of 5 trials, pure and mixed, with a ragged last chunk
    monkeypatch.setattr(inequalities, "CHUNK_ENTRIES", 5 * 64)
    three = LocalDims((2, 2, 2))
    assert ensemble_reports(three, 23, 11) == reference_reports(three, 23, 11)
    assert ensemble_reports(three, 23, 11, True, 2) == reference_reports(three, 23, 11, True, 2)


def test_pure_chunks_count_amplitudes_on_the_amplitude_route():
    # a pure state of D >= AMPLITUDE_MIN_DIM forms no D x D matrix
    assert inequalities.chunk_states(LocalDims((2,) * 5), True) == 2**16 // 32
    assert inequalities.chunk_states(LocalDims((2,) * 5), False) == 2**16 // 32**2
    assert inequalities.chunk_states(LocalDims((2,) * 8), True) == 2**16 // 256
    assert inequalities.chunk_states(LocalDims((2,) * 8), False) == 1
    assert inequalities.chunk_states(LocalDims((3, 3, 3)), True) == 2**16 // 27**2


@pytest.mark.parametrize(
    "dims, mixed", [((2,) * 6, False), ((2, 2, 2), False), ((2, 2, 2), True)], ids=str
)
def test_reports_do_not_depend_on_the_chunk(monkeypatch, dims, mixed):
    # the default chunk holds every trial; one trial per chunk folds them across chunks,
    # where a tie (cor1-m3 at three qubits) keeps the earlier seed
    dims = LocalDims(dims)
    whole = ensemble_reports(dims, 24, 123, mixed)
    monkeypatch.setattr(inequalities, "CHUNK_ENTRIES", 1)
    assert inequalities.chunk_states(dims, not mixed) == 1
    assert ensemble_reports(dims, 24, 123, mixed) == whole


def test_zero_slack_ties_report_the_first_seed(monkeypatch):
    # cor1-m3 at three qubits compares C123 with itself: every slack is 0
    monkeypatch.setattr(inequalities, "CHUNK_ENTRIES", 4 * 64)
    for mixed in (False, True):
        reports = {r.name: r for r in ensemble_reports(LocalDims((2, 2, 2)), 13, 40, mixed)}
        assert reports["cor1-m3"].min_slack == 0.0
        assert reports["cor1-m3"].argmin_seed == 40


def test_ensemble_reports_with_no_trials():
    assert ensemble_reports(LocalDims((2, 2, 2)), 0, 1) == []


def test_rank_without_mixed_is_rejected():
    with pytest.raises(ValueError, match="rank applies to mixed ensembles only, got rank=3"):
        ensemble_reports(LocalDims((2, 2, 2)), 5, 0, mixed=False, rank=3)


@pytest.mark.parametrize("trials", [0, 2])
@pytest.mark.parametrize("rank", [99, 0, 2.0])
def test_rank_is_checked_before_any_trial(trials, rank):
    # the sampler's own message, also when no trial is sampled
    with pytest.raises(ValueError) as sampler:
        sample_ginibre_mixed((2, 2, 2), rank, 0)
    with pytest.raises(ValueError) as exc:
        ensemble_reports(LocalDims((2, 2, 2)), trials, 0, mixed=True, rank=rank)
    assert str(exc.value) == str(sampler.value)


def _ginibre_stack(n):
    return np.stack([sample_ginibre_mixed((2, 2, 2), 4, s).mat for s in range(n)])


def _validate_error(mat):
    rho = DensityOperator._trusted(LocalDims((2, 2, 2)), mat)
    with pytest.raises(InvalidStateError) as exc:
        rho.validate()
    with pytest.raises(InvalidStateError) as suite_exc:
        suite_stack((2, 2, 2), mat[None])
    assert str(suite_exc.value) == str(exc.value)
    return str(exc.value)


def test_stack_with_nan_matrix_raises_its_own_message():
    stack = _ginibre_stack(6)
    stack[3, 2, 5] = np.nan
    message = _validate_error(stack[3].copy())
    with pytest.raises(InvalidStateError) as exc:
        suite_stack((2, 2, 2), stack)
    assert str(exc.value) == message


def test_stack_with_non_positive_matrix_raises_its_own_message():
    bad = np.diag([1.25, -0.25, 0, 0, 0, 0, 0, 0]).astype(complex)
    stack = _ginibre_stack(6)
    stack[4] = bad
    message = _validate_error(bad.copy())
    assert "eigenvalue" in message
    with pytest.raises(InvalidStateError) as exc:
        suite_stack((2, 2, 2), stack)
    assert str(exc.value) == message
    # the first failing matrix in stack order is the one reported
    stack[5, 0, 1] = np.inf
    with pytest.raises(InvalidStateError) as exc:
        suite_stack((2, 2, 2), stack)
    assert str(exc.value) == message
