"""Property tests: every bound's slack under local phases and party relabelling,
every reduction of a state is a state, and ``verify``'s exit code."""

import contextlib
import io
import itertools
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohtrade import (
    DensityOperator,
    LocalDims,
    PureState,
    bounds,
    cli_main,
    density_from_pure,
    ghz_state,
    is_conjecture,
    partial_trace,
    read_state_file,
    run_suite,
    sample_ginibre_mixed,
    sample_haar_pure,
    state_to_dict,
    two_term_state,
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


def run_verify(payload, tolerance):
    """``cohtrade verify`` on ``payload`` written as a file.

    Returns the exit code, stdout, stderr and the state read back from the
    file (None when verify exits 2).
    """
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(["verify", path, f"--tolerance={tolerance!r}"])
        state = read_state_file(path) if rc != 2 else None
    return rc, out.getvalue(), err.getvalue(), state


def stretched(psi, excess):
    """``psi`` with squared norm ``1 + excess``, which files may carry within ``EPS_NORM``."""
    return PureState(psi.dims, psi.amps * math.sqrt(1 + excess))


# States whose proved bounds hold, and GHZ files stretched within EPS_NORM,
# whose tangle bounds then sit at slack -excess: forgiven by a tolerance of
# at least excess, violated below it
well_formed = st.one_of(
    states,
    st.integers(0, 2**32 - 1).map(lambda s: sample_haar_pure((2,) * 5, s)),
    st.floats(0.0, 2 * np.pi, exclude_max=True).map(two_term_state),
    st.floats(-9e-11, 9e-11).map(lambda e: stretched(ghz_state(np.pi / 4), e)),
    st.floats(1e-12, 9e-11).map(lambda e: stretched(ghz_state(np.pi / 4), e)),
)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(well_formed, st.one_of(st.sampled_from([0.0, 1e-9]), st.floats(0.0, 1e-10)))
def test_verify_exits_zero_iff_every_proved_bound_holds(state, tolerance):
    rc, out, err, read = run_verify(state_to_dict(state), tolerance)
    results = run_suite(read, tolerance)
    failed = [r.name for r in results if not r.holds and not is_conjecture(r.name)]
    assert rc == (1 if failed else 0)
    assert err.splitlines() == [line for line in err.splitlines() if line.startswith("bound")]
    assert [line.split()[2] for line in err.splitlines()] == failed
    assert all(f"{r.name:<14}" in out for r in results)


def malformed(state, fault, entry):
    """``state``'s file payload with one fault, placed by ``entry``."""
    payload = state_to_dict(state)
    data = payload["data"]
    k = entry % len(data)
    if fault == "non-finite":
        data[k] = [math.nan, 0.0] if entry % 2 else [0.0, math.inf]
    elif fault == "length":
        del data[k]
    elif fault == "scale":  # the squared norm or the trace moves by 1e-3 or more
        payload["data"] = [[1.001 * re, 1.001 * im] for re, im in data]
    elif fault == "kind":
        payload["kind"] = "ket"
    elif fault == "dims":
        payload["dims"] = payload["dims"] + [1]
    elif fault == "boolean":  # a basis state written in JSON true/false, which complex() takes
        d = math.isqrt(len(data)) if payload["kind"] == "density" else len(data)
        i = entry % d
        payload["data"] = [[False, False]] * len(data)
        payload["data"][i * (d + 1) if payload["kind"] == "density" else i] = [True, False]
    else:  # truncated JSON
        return json.dumps(payload)[: entry % 40]
    return payload


@PROPERTY_SETTINGS
@given(
    states,
    st.sampled_from(["non-finite", "length", "scale", "kind", "dims", "boolean", "json"]),
    st.integers(0, 10**6),
)
def test_verify_exits_two_on_malformed_files(state, fault, entry):
    rc, out, err, _ = run_verify(malformed(state, fault, entry), 1e-9)
    assert rc == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
