"""Each bound's residual (its slack at the entrywise modulus |rho|) and its proved status.

The references are written out here: the residual weight
``w(p) = 1 - #{S in subsets : p within S} / divisor`` of every nonempty set
p of parties in which two basis labels differ, and the slacks
``suite_stack`` reports.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

from cohtrade import EPS_INEQ, LocalDims, bounds, suite_names, suite_stack
from cohtrade.states import sample_ginibre_stack, sample_haar_stack

PROVED_DIMS = [(2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2, 3, 4), (3, 3), (2,), (2,) * 5, (2,) * 6]
STACK_DIMS = [(2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2, 3, 4), (2,) * 5, (2,) * 6]


def pattern_weights(bound):
    """``w(p)`` of every nonempty difference pattern p, a bit mask over the parties."""
    n = bound.dims.n_parties
    masks = [sum(1 << (party - 1) for party in s) for s in bound.subsets]
    return [
        1 - sum(p & mask == p for mask in masks) / bound.divisor for p in range(1, 2**n)
    ]


def tau_free_slack(dims, stack):
    """Every bound's slack without tau on ``stack``, ``(K, B)``, with ``suite_stack``'s bits."""
    coherence, tau, rhs = suite_stack(dims, stack)
    slack = coherence[-1] - rhs
    for k, bound in enumerate(bounds(dims, stack.ndim == 2)):
        if bound.tangle:
            slack[k] += tau
    return slack


@pytest.mark.parametrize("dims", PROVED_DIMS)
@pytest.mark.parametrize("pure", [True, False])
def test_proved_is_false_exactly_for_the_conjecture(dims, pure):
    for bound in bounds(dims, pure):
        assert bound.proved == (min(pattern_weights(bound)) >= 0), bound.name
        assert bound.proved == (not bound.name.startswith("eq4-pivot")), bound.name
    conjectures = [b.name for b in bounds(dims, pure) if not b.proved]
    assert conjectures == (["eq4-pivot1", "eq4-pivot2", "eq4-pivot3"] if dims == (2, 2, 2) else [])


def test_conjecture_weights_are_minus_one_on_its_pivot():
    (eq4,) = [b for b in bounds((2, 2, 2), False) if b.name == "eq4-pivot1"]
    weights = pattern_weights(eq4)
    assert [p for p, w in enumerate(weights, 1) if w < 0] == [0b001]
    assert weights[0] == -1


def test_proved_is_a_field_fixed_at_construction():
    (thm1,) = [b for b in bounds((2, 2, 2), False) if b.name == "thm1"]
    assert "proved" in {f.name for f in fields(thm1) if not f.init}
    assert vars(thm1)["proved"] is True
    with pytest.raises(AttributeError):
        thm1.proved = False


@pytest.mark.parametrize("dims", STACK_DIMS)
def test_slack_is_at_least_the_residual(dims):
    # the triangle inequality, entry by entry: every bound, Haar and
    # full-rank Ginibre stacks
    d = LocalDims(dims).total_dim
    trials = 100 if d <= 32 else 16
    haar = sample_haar_stack(dims, range(trials))
    ginibre = sample_ginibre_stack(dims, d, range(1000, 1000 + trials))
    for stack in (haar, ginibre):
        slack = tau_free_slack(dims, stack)
        for bound, row in zip(bounds(dims, stack.ndim == 2), slack):
            residual = bound.residual(stack)
            assert residual.shape == (trials,)
            assert (row >= residual - EPS_INEQ).all(), bound.name
            if bound.proved:
                assert (residual >= -EPS_INEQ).all(), bound.name


@pytest.mark.parametrize("dims", STACK_DIMS)
def test_residual_is_the_slack_of_the_moduli(dims):
    # bit for bit, on both routes (density below D = 32, amplitudes from it)
    stack = sample_haar_stack(dims, range(300, 316))
    slack = tau_free_slack(dims, np.abs(stack))
    for bound, row in zip(bounds(dims, True), slack):
        if not bound.tangle:  # a tangle bound's slack holds tau(|a|), which is not 0
            assert bound.residual(stack).tolist() == row.tolist(), bound.name


def test_residual_of_an_empty_stack():
    for bound in bounds((2, 2, 2), True):
        assert bound.residual(np.zeros((0, 8), dtype=complex)).shape == (0,)


@pytest.mark.parametrize("n", range(3, 9))
def test_w_state_slack_is_n_minus_m(n):
    # equal-weight W_n: C_S = |S| (|S| - 1) / n, so cor1-m{m} has slack
    # n - 1 - (m - 1) exactly, here to a few roundoffs of the sums; its
    # amplitudes are >= 0, so the residual is the slack
    dims = (2,) * n
    amps = np.zeros((1, 2**n), dtype=complex)
    amps[0, [1 << k for k in range(n)]] = 1 / math.sqrt(n)
    coherence, _, rhs = suite_stack(dims, amps)
    names = suite_names(dims, True)
    table = {b.name: b for b in bounds(dims, True)}
    for m in range(1, n + 1):
        k = names.index(f"cor1-m{m}")
        slack = (coherence[-1] - rhs[k]).item()
        assert abs(slack - (n - m)) <= 2e-15 * n, (n, m, slack)
        assert table[f"cor1-m{m}"].residual(amps).item() == slack
