"""The stacked ensemble engine against the per-state suite, which is its reference."""

import numpy as np
import pytest

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
)
from cohtrade import ensemble
from cohtrade.ensemble import suite_stack
from cohtrade.states import complex_normals, sample_haar_stack

WIDE_DIMS = [(2, 2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2, 2)]


def reference_reports(dims, trials, seed, mixed=False, rank=None, tolerance=1e-9):
    """The per-state aggregation: run_suite on every trial, a strict < scan for the minimum."""
    stats, order = {}, []
    for t in range(trials):
        trial_seed = seed + t
        if mixed:
            full = dims.total_dim
            state = sample_ginibre_mixed(dims, rank if rank is not None else full, trial_seed)
        else:
            state = sample_haar_pure(dims, trial_seed)
        for r in run_suite(state, tolerance):
            if r.name not in stats:
                stats[r.name] = [0, 0, float("inf"), trial_seed]
                order.append(r.name)
            entry = stats[r.name]
            entry[0] += 1
            if not r.holds:
                entry[1] += 1
            if r.slack < entry[2]:
                entry[2] = r.slack
                entry[3] = trial_seed
    return [TrialReport(name, *stats[name], tolerance) for name in order]


def assert_stack_matches_suite(dims, states, stack):
    lhs, rhs = suite_stack(dims, stack)
    names = suite_names(dims, stack.ndim == 2)
    for b, state in enumerate(states):
        expected = [(r.name, r.lhs, r.rhs, r.slack) for r in run_suite(state)]
        got = [
            (name, float(lhs[b]), float(rhs[k, b]), float(lhs[b] - rhs[k, b]))
            for k, name in enumerate(names)
        ]
        assert got == expected


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
    # five qubits hold 64 trials per chunk: 70 trials take two
    five = LocalDims((2,) * 5)
    assert ensemble_reports(five, 70, 3) == reference_reports(five, 70, 3)
    # three-qubit chunks of 5 trials, pure and mixed, with a ragged last chunk
    monkeypatch.setattr(ensemble, "CHUNK_ENTRIES", 5 * 64)
    three = LocalDims((2, 2, 2))
    assert ensemble_reports(three, 23, 11) == reference_reports(three, 23, 11)
    assert ensemble_reports(three, 23, 11, True, 2) == reference_reports(three, 23, 11, True, 2)


def test_zero_slack_ties_report_the_first_seed(monkeypatch):
    # cor1-m3 at three qubits compares C123 with itself: every slack is 0
    monkeypatch.setattr(ensemble, "CHUNK_ENTRIES", 4 * 64)
    for mixed in (False, True):
        reports = {r.name: r for r in ensemble_reports(LocalDims((2, 2, 2)), 13, 40, mixed)}
        assert reports["cor1-m3"].min_slack == 0.0
        assert reports["cor1-m3"].argmin_seed == 40


def test_ensemble_reports_with_no_trials():
    assert ensemble_reports(LocalDims((2, 2, 2)), 0, 1) == []


def _ginibre_stack(n):
    return np.stack([sample_ginibre_mixed((2, 2, 2), 4, s).mat for s in range(n)])


def _suite_error(mat):
    with pytest.raises(InvalidStateError) as exc:
        run_suite(DensityOperator._trusted(LocalDims((2, 2, 2)), mat))
    return str(exc.value)


def test_stack_with_nan_matrix_raises_its_own_message():
    stack = _ginibre_stack(6)
    stack[3, 2, 5] = np.nan
    message = _suite_error(stack[3].copy())
    with pytest.raises(InvalidStateError) as exc:
        suite_stack((2, 2, 2), stack)
    assert str(exc.value) == message


def test_stack_with_non_positive_matrix_raises_its_own_message():
    bad = np.diag([1.25, -0.25, 0, 0, 0, 0, 0, 0]).astype(complex)
    stack = _ginibre_stack(6)
    stack[4] = bad
    message = _suite_error(bad.copy())
    assert "eigenvalue" in message
    with pytest.raises(InvalidStateError) as exc:
        suite_stack((2, 2, 2), stack)
    assert str(exc.value) == message
    # the first failing matrix in stack order is the one reported
    stack[5, 0, 1] = np.inf
    with pytest.raises(InvalidStateError) as exc:
        suite_stack((2, 2, 2), stack)
    assert str(exc.value) == message
