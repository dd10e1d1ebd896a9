"""Pure states with D >= AMPLITUDE_MIN_DIM are reduced from their amplitudes.

The references are ``conftest.route_slacks`` (each state reduced alone from
its amplitudes, and checked against the density route within ``ROUTE_RTOL``)
and, at ten qubits, sums taken exactly with ``math.fsum``.
"""

import math

import numpy as np
import pytest
from conftest import ROUTE_RTOL, assert_close, route_slacks

from cohtrade import (
    AMPLITUDE_MIN_DIM,
    LocalDims,
    PureState,
    bounds,
    coherence_stack,
    density_from_pure,
    resolve_objective,
    run_suite,
    sample_haar_pure,
    suite_names,
    suite_stack,
)
from cohtrade.coherence import stack_subsets
from cohtrade.states import sample_haar_stack


def stack_slacks(dims, amps):
    """(name, lhs, rhs, slack) of every bound for each row of a suite_stack call."""
    coherence, _, rhs = suite_stack(dims, amps)
    names = suite_names(dims, True)
    lhs = coherence[-1]
    return [
        [(name, float(x), float(r), float(x - r)) for name, r in zip(names, column)]
        for x, column in zip(lhs, rhs.T)
    ]


def test_route_starts_at_five_qubits():
    assert AMPLITUDE_MIN_DIM == 32
    # sixteen amplitudes: the projector's partial traces, bit for bit
    psi = sample_haar_pure((2, 2, 2, 2), 3)
    rows = suite_stack(psi.dims, psi.amps[None])[0][:, 0]
    density = coherence_stack(psi.dims, density_from_pure(psi).mat[None])[:, 0]
    assert rows.tolist() == density.tolist()


@pytest.mark.parametrize("dims", [(2,) * 5, (2,) * 6])
def test_bound_evaluate_takes_the_suite_route(dims):
    for seed in range(3):
        psi = sample_haar_pure(dims, 40 + seed)
        suite = run_suite(psi)
        assert [bound.evaluate(psi) for bound in bounds(dims, pure=True)] == suite
        for r in suite:
            assert resolve_objective(r.name, dims)(psi) == r
        assert [(r.name, r.lhs, r.rhs, r.slack) for r in suite] == route_slacks(psi)


@pytest.mark.parametrize("dims", [(2, 4, 4), (3, 3, 4), (2, 3, 2, 3)])
def test_qudit_stacks_equal_the_reference(dims):
    seeds = range(60, 70)
    amps = sample_haar_stack(dims, 60, 10)
    assert LocalDims(dims).total_dim >= AMPLITUDE_MIN_DIM
    for got, seed in zip(stack_slacks(dims, amps), seeds):
        assert got == route_slacks(sample_haar_pure(dims, seed))


def test_eight_qubits_agree_across_routes():
    dims = LocalDims((2,) * 8)
    for seed in (0, 1):
        psi = sample_haar_pure(dims, seed)
        assert stack_slacks(dims, psi.amps[None])[0] == route_slacks(psi)
        rows = suite_stack(dims, psi.amps[None])[0][:, 0]
        density = coherence_stack(dims, density_from_pure(psi).mat[None])[:, 0]
        for subset, a, b in zip(stack_subsets(8), rows, density):
            assert_close(a, b, subset.parties)


def test_full_coherence_subtracts_the_squared_norm():
    # a five-qubit GHZ file may be accepted with squared norm 1 + 9e-11: its
    # full coherence is that norm, where subtracting 1 gives 1 + 2 * 9e-11
    amps = np.zeros(32, dtype=complex)
    amps[[0, 31]] = math.sqrt((1 + 9e-11) / 2)
    psi = PureState((2,) * 5, amps)
    lhs = run_suite(psi)[0].lhs
    assert abs(lhs - (1 + 9e-11)) <= 1e-15
    assert_close(lhs, coherence_stack(psi.dims, density_from_pure(psi).mat[None])[-1, 0], "lhs")


def test_ten_qubits_against_exact_sums():
    dims = LocalDims((2,) * 10)
    for seed in (0, 1):
        psi = sample_haar_pure(dims, seed)
        rows = suite_stack(dims, psi.amps[None])[0][:, 0]
        modulus = np.abs(psi.amps).tolist()
        c_full = math.fsum(modulus) ** 2 - math.fsum(m * m for m in modulus)
        assert abs(rows[-1] - c_full) <= ROUTE_RTOL * c_full
        tensor = psi.amps.reshape(dims.dims)
        for party in range(10):
            # the single-party reduction's off-diagonal entry, summed exactly
            zero = np.take(tensor, 0, axis=party).ravel()
            one = np.take(tensor, 1, axis=party).ravel()
            products = zero * one.conj()
            off = complex(math.fsum(products.real), math.fsum(products.imag))
            assert abs(rows[party] - 2 * abs(off)) <= ROUTE_RTOL * rows[party], party


def test_ghz_closed_form_at_six_qubits():
    amps = np.zeros(64, dtype=complex)
    amps[0], amps[63] = math.cos(0.3), math.sin(0.3)
    results = {r.name: r for r in run_suite(PureState((2,) * 6, amps))}
    c_full = 2 * abs(math.cos(0.3) * math.sin(0.3))
    assert abs(results["cor1-m6"].lhs - c_full) <= 1e-15
    # every proper reduction of a GHZ state is diagonal
    assert all(results[f"cor1-m{m}"].rhs == 0.0 for m in range(1, 6))
