"""Property tests: every bound's slack under local phases and party relabelling,
and every reduction of a state is a state."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohtrade import (
    DensityOperator,
    LocalDims,
    PureState,
    bounds,
    density_from_pure,
    partial_trace,
    sample_ginibre_mixed,
    sample_haar_pure,
)

DIMS = LocalDims((2, 2, 2))
TOL = 1e-12
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=50, deadline=None, database=None)

states = st.tuples(
    st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, DIMS.total_dim)
).map(
    lambda t: sample_haar_pure(DIMS, t[0]) if t[1] else sample_ginibre_mixed(DIMS, t[2], t[0])
)


def slacks(state) -> dict[str, float]:
    """Every applicable bound's slack from :meth:`Bound.evaluate`."""
    return {b.name: b.evaluate(state).slack for b in bounds(DIMS, isinstance(state, PureState))}


def transformed(state, unitary=None, perm=None):
    """``U state U^dag``, or the parties reordered so that new party i is old party perm[i]."""
    if isinstance(state, PureState):
        amps = state.amps
        if unitary is not None:
            amps = unitary @ amps
        if perm is not None:
            amps = amps.reshape(DIMS.dims).transpose(perm).reshape(-1)
        return PureState(DIMS, amps)
    mat = state.mat
    if unitary is not None:
        mat = unitary @ mat @ unitary.conj().T
    if perm is not None:
        axes = list(perm) + [3 + p for p in perm]
        mat = mat.reshape(DIMS.dims * 2).transpose(axes).reshape(8, 8)
    return DensityOperator(DIMS, mat)


@PROPERTY_SETTINGS
@given(states, st.lists(st.floats(0.0, 2 * np.pi), min_size=6, max_size=6))
def test_slacks_invariant_under_local_diagonal_phases(state, angles):
    phases = np.exp(1j * np.array(angles)).reshape(3, 2)
    unitary = np.diag(np.kron(np.kron(phases[0], phases[1]), phases[2]))
    before, after = slacks(state), slacks(transformed(state, unitary=unitary))
    assert list(after) == list(before)
    for name, slack in before.items():
        assert abs(after[name] - slack) <= TOL, name


@PROPERTY_SETTINGS
@given(states, st.sampled_from(list(itertools.permutations(range(3)))))
def test_slacks_follow_party_permutations(state, perm):
    before, after = slacks(state), slacks(transformed(state, perm=perm))
    new_label = {p + 1: perm.index(p) + 1 for p in range(3)}
    relabelled = {}
    for name in before:
        for prefix in ("eq4-pivot", "eq5-single"):
            if name.startswith(prefix):
                relabelled[name] = f"{prefix}{new_label[int(name[len(prefix):])]}"
    assert set(relabelled.values()) == set(relabelled)
    assert set(after) == set(before)
    for name, slack in before.items():
        assert abs(after[relabelled.get(name, name)] - slack) <= TOL, name


@PROPERTY_SETTINGS
@given(
    st.sampled_from([(2, 2, 2), (2, 2, 2, 2), (3, 3), (2, 3, 4), (3, 3, 3)]),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.data(),
)
def test_every_reduction_of_a_state_is_a_state(dims, seed, rank_share, data):
    d = LocalDims(dims).total_dim
    rank = round(rank_share * d)  # 0: a Haar pure state
    if rank:
        rho = sample_ginibre_mixed(dims, rank, seed)
    else:
        rho = density_from_pure(sample_haar_pure(dims, seed))
    n = len(dims)
    keep = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=n - 1, unique=True))
    reduced = partial_trace(rho, sorted(keep))
    assert reduced.dims.dims == tuple(dims[p - 1] for p in sorted(keep))
    assert reduced.validate() is reduced
