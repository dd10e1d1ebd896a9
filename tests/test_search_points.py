"""The states the search evaluates: its points normalized, and nothing else changed."""

import math

import numpy as np
import pytest

from cohtrade import EPS_NORM, InvalidStateError, PureState, minimize_slack
from cohtrade import search


def test_best_state_is_the_normalized_point():
    out = minimize_slack("thm1", (2, 2, 2), restarts=1, seed=2, iterations=30, rounds=1)
    amps = out.best_state.amps
    assert not amps.flags.writeable
    assert abs(np.vdot(amps, amps).real - 1.0) <= EPS_NORM
    # the checked constructor keeps the same bits
    assert np.array_equal(PureState(out.best_state.dims, amps).amps, amps)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_point_raises_the_constructor_message(monkeypatch, value):
    def start(rng, d):
        z = np.ones(d, dtype=complex)
        z[3] = value
        return z

    monkeypatch.setattr(search, "complex_normals", start)
    with pytest.raises(InvalidStateError, match="every amplitude entry must be finite"):
        minimize_slack("thm1", (2, 2, 2), restarts=1, seed=0, iterations=5, rounds=1)
