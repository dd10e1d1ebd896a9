import hashlib
import math

import numpy as np
import pytest

from cohtrade import minimize_slack, resolve_objective, sample_haar_pure
from cohtrade.search import _nelder_mead

EPS = 1e-9


def test_same_seed_runs_are_identical():
    a = minimize_slack("thm1", (2, 2, 2), restarts=1, seed=7, iterations=60, rounds=2)
    b = minimize_slack("thm1", (2, 2, 2), restarts=1, seed=7, iterations=60, rounds=2)
    assert a.best_value == b.best_value
    assert a.evaluations == b.evaluations
    assert np.array_equal(a.best_state.amps, b.best_state.amps)


def test_best_value_matches_reevaluated_objective():
    out = minimize_slack("eq5-single2", (2, 2, 2), restarts=3, seed=1, iterations=80, rounds=3)
    runner = resolve_objective("eq5-single2", (2, 2, 2))
    assert abs(runner(out.best_state).slack - out.best_value) < 1e-12


def test_theorem1_search_approaches_equality():
    out = minimize_slack("thm1", (2, 2, 2), restarts=12, seed=0)
    assert -EPS <= out.best_value <= 1e-4


def test_conjecture_search_finds_deep_violation():
    out = minimize_slack("eq4-pivot1", (2, 2, 2), restarts=10, seed=0)
    assert out.best_value <= -0.49


def test_proved_bound_not_driven_negative():
    for objective in ("thm3", "eq3"):
        out = minimize_slack(objective, (2, 2, 2), restarts=5, seed=3, iterations=100, rounds=3)
        assert out.best_value >= -EPS


def test_unknown_objective_raises():
    with pytest.raises(ValueError, match="unknown objective"):
        minimize_slack("thm9", (2, 2, 2), restarts=1, seed=0)
    with pytest.raises(ValueError, match="unknown objective"):
        minimize_slack("thm1", (2, 2), restarts=1, seed=0)  # thm1 needs three qubits


def test_restart_validation():
    with pytest.raises(ValueError):
        minimize_slack("thm1", (2, 2, 2), restarts=0, seed=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"iterations": -7}, "iterations must be >= 0, got -7"),
        ({"rounds": 0}, "rounds must be >= 1, got 0"),
        ({"rounds": -3}, "rounds must be >= 1, got -3"),
    ],
)
def test_iteration_and_round_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        minimize_slack("thm1", (2, 2, 2), restarts=1, seed=0, **kwargs)


def test_zero_iterations_evaluate_the_start_and_its_simplex():
    out = minimize_slack("thm1", (2, 2, 2), restarts=1, seed=0, iterations=0, rounds=1)
    assert out.evaluations == 1 + 17  # the start, then the 16-dimensional initial simplex


def test_objective_aliases():
    thm2 = resolve_objective("thm2", (2, 2, 2))
    cor = resolve_objective("cor1-m2", (2, 2, 2))
    psi = sample_haar_pure((2, 2, 2), 11)
    assert thm2(psi).slack == cor(psi).slack

    qudit = resolve_objective("cor2-m1", (3, 3))
    psi = sample_haar_pure((3, 3), 4)
    assert qudit(psi).name == "cor2-m1"


def test_search_at_non_qubit_dims():
    out = minimize_slack("cor2-m1", (2, 3), restarts=3, seed=2, iterations=80, rounds=2)
    assert out.best_value >= -EPS
    assert out.best_state.dims.dims == (2, 3)


# Golden search paths, recorded before the simplex moved onto arrays:
# (objective, dims, restarts, seed, iterations, rounds, best_value.hex(),
# evaluations, sha256 of best_state.amps.tobytes() to 16 hex digits).
# cor1-m3 and cor2-m2 (m = n) have slack 0 everywhere, so every value ties
# and their runs take shrink steps; the second thm1 run reaches 1e-9.
GOLDEN_SEARCHES = [
    ("thm1", (2, 2, 2), 1, 0, 30, 12, "0x1.a4662688beb50p-1", 256, "a407d62106d10ebd"),
    ("thm1", (2, 2, 2), 1, 1, 200, 12, "0x1.1c3db40000000p-30", 2252, "3c455bd7405bcfcd"),
    ("eq4-pivot1", (2, 2, 2), 1, 0, 30, 12, "0x1.5ed54045939c0p-3", 381, "aabf8ad1a5065b32"),
    ("thm2", (2, 2, 2), 2, 0, 30, 1, "0x1.632ff3cfae074p+0", 100, "ddb84457ea30e897"),
    ("cor1-m1", (2, 2, 2), 2, 0, 30, 1, "0x1.33e8ae8d3829bp+1", 99, "2b8ec265474e9b85"),
    ("cor1-m3", (2, 2, 2), 2, 0, 30, 1, "0x0.0p+0", 1080, "6190e352239611f1"),
    ("eq3", (2, 2, 2), 2, 0, 30, 1, "0x1.33e8ae8d3829bp+1", 99, "2b8ec265474e9b85"),
    ("eq5-single1", (2, 2, 2), 2, 0, 30, 1, "0x1.45384dd091beep+0", 99, "c83129af94a6c78b"),
    ("eq5-single2", (2, 2, 2), 2, 0, 30, 1, "0x1.ca4bea9c6b164p+0", 100, "c7af3e82c4672c11"),
    ("eq5-single3", (2, 2, 2), 2, 0, 30, 1, "0x1.10094160c2a2ap+1", 99, "96ca398caba17d2c"),
    ("thm3", (2, 2, 2), 2, 0, 30, 1, "0x1.6b0f85081ef4ep+0", 100, "d38152d18efbe2ea"),
    ("eq10", (2, 2, 2), 2, 0, 30, 1, "0x1.1f20c46b156f5p+1", 97, "f72287cfd4dd2515"),
    ("cor2-m1", (2, 3), 2, 2, 30, 2, "0x1.4ff17a2f34960p-1", 188, "4f4a581f8421724d"),
    ("cor2-m2", (3, 3), 1, 5, 30, 2, "0x0.0p+0", 600, "c781edc1a8dc3a9e"),
    ("thm2", (2, 2, 2, 2), 1, 3, 30, 2, "0x1.402e100e3fd0ap+2", 128, "44fe4494c6806aca"),
]


@pytest.mark.parametrize("case", GOLDEN_SEARCHES, ids=lambda c: f"{c[0]}-{c[1]}-s{c[3]}")
def test_search_path_is_pinned(case):
    objective, dims, restarts, seed, iterations, rounds, value_hex, evaluations, digest = case
    out = minimize_slack(objective, dims, restarts, seed, iterations, rounds)
    assert type(out.best_value) is float
    assert (out.best_value.hex(), out.evaluations) == (value_hex, evaluations)
    assert hashlib.sha256(out.best_state.amps.tobytes()).hexdigest()[:16] == digest


def test_simplex_path_with_infinite_and_tied_values_is_pinned():
    # inf where x[0] > 0.4 (as for a zero-norm point), and values rounded to
    # 0.1 so that vertices tie: the run reflects, contracts and shrinks
    def f(x):
        if x[0] > 0.4:
            return math.inf
        return round(float(np.abs(x - 0.3).max()), 1)

    x, value, evals = _nelder_mead(f, np.zeros(3), 0.5, 40)
    assert tuple(float(t).hex() for t in x) == (
        "0x1.e84bda12f684ap-3", "0x1.8fcd6e9e06523p-3", "0x1.69e06522c3f36p-3"
    )
    assert (type(value), value.hex(), evals) == (float, "0x1.999999999999ap-4", 151)
