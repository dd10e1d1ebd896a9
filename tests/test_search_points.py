"""The states the search evaluates: its points normalized, and nothing else changed."""

import math

import numpy as np
import pytest

from cohtrade import EPS_NORM, InvalidStateError, PureState, minimize_slack
from cohtrade import search
from conftest import complex_normals


def test_best_state_is_the_normalized_point():
    out = minimize_slack("thm1", (2, 2, 2), restarts=1, seed=2, iterations=30, rounds=1)
    amps = out.best_state.amps
    assert not amps.flags.writeable
    assert abs(np.vdot(amps, amps).real - 1.0) <= EPS_NORM
    # the checked constructor keeps the same bits
    assert np.array_equal(PureState(out.best_state.dims, amps).amps, amps)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_point_raises_the_constructor_message(monkeypatch, value):
    def starts(seed, count, shape):  # stands in for the restarts' Gaussian draw
        z = np.ones((count,) + shape, dtype=complex)
        z[:, 3] = value
        return z

    monkeypatch.setattr(search, "_gaussians", starts)
    with pytest.raises(InvalidStateError, match="every amplitude entry must be finite"):
        minimize_slack("thm1", (2, 2, 2), restarts=1, seed=0, iterations=5, rounds=1)


@pytest.mark.parametrize("restarts", [1, 2, 4, 6, 7, 50])
@pytest.mark.parametrize("seed", [0, 3, 12345, 2**64 - 3])
@pytest.mark.parametrize(
    "dims, objective",
    [((2, 2, 2), "thm1"), ((2, 2, 2, 2), "cor1-m2"), ((2, 3, 4), "cor2-m2"), ((3, 3, 3), "thm2")],
)
def test_restart_r_starts_from_its_own_seed(monkeypatch, dims, objective, restarts, seed):
    # one stacked draw for all restarts, bit for bit the per-seed reference
    # (a stack that reaches 2^64 falls back to default_rng); the descent is
    # stubbed out to record each restart's start
    starts = []

    def descend(f, x0, iterations, rounds):
        starts.append(x0)
        return x0, 0.0, 1

    monkeypatch.setattr(search, "_descend", descend)
    minimize_slack(objective, dims, restarts=restarts, seed=seed)
    assert len(starts) == restarts
    d = math.prod(dims)
    for r, x0 in enumerate(starts):
        z = complex_normals(np.random.default_rng(seed + r), d)
        assert np.array_equal(x0, np.concatenate([z.real, z.imag])), r


def test_numpy_uint64_seed_near_two_to_the_64_searches_as_a_python_int():
    # a numpy uint64 seed plus the restarts wrapped, and the search died on a None state
    seed = 2**64 - 2
    got = minimize_slack("thm1", (2, 2, 2), 3, np.uint64(seed), 2, 1)
    want = minimize_slack("thm1", (2, 2, 2), 3, seed, 2, 1)
    assert (got.best_value, got.evaluations, got.seed) == (want.best_value, want.evaluations, seed)
    assert got.best_state.amps.tobytes() == want.best_state.amps.tobytes()
