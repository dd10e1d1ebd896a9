import math
import re

import numpy as np
import pytest

from cohtrade import (
    AMPLITUDE_MIN_DIM,
    DensityOperator,
    InvalidStateError,
    LocalDims,
    SubsystemSet,
    coherence_stack,
    density_from_pure,
    ghz_state,
    l1_coherence,
    partial_trace,
    run_suite,
    sample_ginibre_mixed,
    sample_haar_pure,
    subset_coherence,
    suite_names,
    suite_stack,
    two_term_state,
    w_state,
)
from cohtrade.coherence import _coherence_rows, stack_subsets
from cohtrade.states import sample_haar_stack
from conftest import kron, table_bound

EPS = 1e-9


def maximally_coherent(d):
    return DensityOperator(LocalDims((d,)), np.full((d, d), 1.0 / d))


def diagonal_state(dims, seed=0):
    rng = np.random.default_rng(seed)
    p = rng.random(LocalDims(dims).total_dim)
    return DensityOperator(LocalDims(dims), np.diag(p / p.sum()))


# ---------------------------------------------------------------------------
# l1_coherence
# ---------------------------------------------------------------------------

def test_diagonal_states_have_zero_coherence():
    assert l1_coherence(diagonal_state((2, 2, 2))) == 0.0
    assert l1_coherence(diagonal_state((3, 2))) == 0.0


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_maximally_coherent_state_attains_dimension_bound(d):
    assert l1_coherence(maximally_coherent(d)) == pytest.approx(d - 1, abs=1e-12)


def test_ghz_coherence_closed_form():
    for phi in np.linspace(0, 2 * np.pi, 17, endpoint=False):
        rho = density_from_pure(ghz_state(phi))
        assert l1_coherence(rho) == pytest.approx(2 * abs(np.sin(phi) * np.cos(phi)), abs=1e-12)


def test_coherence_range_on_random_states(ginibre_three_qubit):
    for rho in ginibre_three_qubit[:50]:
        c = l1_coherence(rho)
        assert 0.0 <= c <= 7.0 + EPS


def test_l1_coherence_in_any_memory_layout():
    mat = sample_ginibre_mixed((2, 2, 2), 5, 8).mat
    spaced = np.zeros((16, 16), dtype=complex)
    spaced[::2, ::2] = mat
    for layout in (mat, np.asfortranarray(mat), spaced[::2, ::2]):
        off = np.abs(layout)
        np.fill_diagonal(off, 0.0)
        rho = DensityOperator._trusted(LocalDims((2, 2, 2)), layout)
        assert l1_coherence(rho) == float(off.sum())


def test_diagonal_unitary_invariance(haar_three_qubit):
    rng = np.random.default_rng(11)
    for psi in haar_three_qubit[:20]:
        rho = density_from_pure(psi)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        u = np.diag(phases)
        rotated = DensityOperator(rho.dims, u @ rho.mat @ u.conj().T)
        assert abs(l1_coherence(rotated) - l1_coherence(rho)) < 1e-10


# ---------------------------------------------------------------------------
# subset_coherence
# ---------------------------------------------------------------------------

def test_ghz_subset_coherences_vanish():
    rho = density_from_pure(ghz_state(np.pi / 4))
    for parties in ((1, 2), (1, 3), (2, 3), (1,), (2,), (3,)):
        assert subset_coherence(rho, parties) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("parties", [(1, 2, 4), (2, 3, 4), (1, 4)])
def test_subset_coherence_rejects_parties_beyond_the_state(parties):
    # three labels at three parties are not the full set unless they are 1, 2, 3
    rho = density_from_pure(ghz_state(np.pi / 4))
    with pytest.raises(ValueError, match=rf"^subsystem \({parties[0]}, .* out of range for 3"):
        subset_coherence(rho, parties)


def test_w_pair_coherence_closed_form():
    for theta in np.linspace(0.1, np.pi - 0.1, 7):
        for phi in np.linspace(0, 2 * np.pi, 9, endpoint=False):
            rho = density_from_pure(w_state(theta, phi))
            expected = 2 * abs(np.sin(theta) ** 2 * np.sin(phi) * np.cos(phi))
            assert subset_coherence(rho, (1, 2)) == pytest.approx(expected, abs=1e-12)


def test_two_term_coherences():
    for alpha in np.linspace(0, np.pi / 2, 9):
        rho = density_from_pure(two_term_state(alpha))
        expected = 2 * abs(np.cos(alpha) * np.sin(alpha))
        assert l1_coherence(rho) == pytest.approx(expected, abs=1e-12)
        assert subset_coherence(rho, (1, 2)) == pytest.approx(expected, abs=1e-12)
        assert subset_coherence(rho, (1, 3)) == pytest.approx(expected, abs=1e-12)
        assert subset_coherence(rho, (2, 3)) == pytest.approx(0.0, abs=1e-14)


def test_monotonicity_under_reduction(haar_three_qubit, ginibre_three_qubit):
    nested = [((1,), (1, 2)), ((2,), (1, 2)), ((3,), (1, 3)), ((1, 2), (1, 2, 3)),
              ((2, 3), (1, 2, 3)), ((1,), (1, 2, 3))]
    states = [density_from_pure(p) for p in haar_three_qubit[:40]] + ginibre_three_qubit[:40]
    for rho in states:
        for small, big in nested:
            assert subset_coherence(rho, big) >= subset_coherence(rho, small) - EPS
    # qudit dims as well
    for seed in range(20):
        rho = sample_ginibre_mixed((2, 3, 2), 1 + seed % 12, seed)
        for small, big in nested:
            assert subset_coherence(rho, big) >= subset_coherence(rho, small) - EPS


# ---------------------------------------------------------------------------
# coherence_stack
# ---------------------------------------------------------------------------

def profile(rho):
    """The coherence_stack of one matrix, keyed by subset."""
    rows = coherence_stack(rho.dims, rho.mat[None])
    assert rows.shape == (2**rho.dims.n_parties - 1, 1)
    return dict(zip(stack_subsets(rho.dims.n_parties), rows[:, 0].tolist()))


def test_profile_of_diagonal_product_is_zero():
    q = diagonal_state((2,), seed=1)
    rho = kron(kron(q, diagonal_state((2,), seed=2)), diagonal_state((2,), seed=3))
    by_subset = profile(rho)
    assert len(by_subset) == 7
    assert all(v == 0.0 for v in by_subset.values())


def test_profile_ghz():
    by_subset = profile(density_from_pure(ghz_state(np.pi / 4)))
    assert by_subset[SubsystemSet((1, 2, 3))] == pytest.approx(1.0, abs=1e-12)
    for subset, value in by_subset.items():
        if len(subset) < 3:
            assert value == pytest.approx(0.0, abs=1e-14)


def test_profile_counts_all_subsets_for_four_parties():
    psi = sample_haar_pure((2, 2, 2, 2), 3)
    by_subset = profile(density_from_pure(psi))
    assert len(by_subset) == 15
    assert by_subset[SubsystemSet((1, 2, 3, 4))] == pytest.approx(
        l1_coherence(density_from_pure(psi)), abs=1e-12
    )


def test_profile_full_set_matches_l1():
    rho = sample_ginibre_mixed((2, 3), 3, 9)
    assert profile(rho)[SubsystemSet((1, 2))] == l1_coherence(rho)


def test_stack_subsets_order():
    assert [s.parties for s in stack_subsets(3)] == [
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)
    ]


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2, 3, 4), (2,) * 5])
def test_stack_rows_equal_subset_coherence(dims):
    d = LocalDims(dims).total_dim
    states = [density_from_pure(sample_haar_pure(dims, 40 + s)) for s in range(6)]
    states += [sample_ginibre_mixed(dims, 1 + s % d, 50 + s) for s in range(6)]
    rows = coherence_stack(LocalDims(dims), np.stack([rho.mat for rho in states]))
    subsets = stack_subsets(len(dims))
    assert rows.shape == (len(subsets), len(states))
    for b, rho in enumerate(states):
        assert rows[:, b].tolist() == [subset_coherence(rho, s) for s in subsets]


@pytest.mark.parametrize("dims", [(2,), (2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2, 3, 4)])
def test_amplitude_rows_below_the_route_equal_their_projectors(dims):
    dims = LocalDims(dims)
    assert dims.total_dim < AMPLITUDE_MIN_DIM
    amps = sample_haar_stack(dims, range(30, 37))
    projectors = amps[:, :, None] * amps.conj()[:, None, :]
    rows = coherence_stack(dims, amps)
    assert rows.tobytes() == coherence_stack(dims, projectors).tobytes()


ROW_REQUESTS = [(6,), (5, 0, 6), (3, 3, 1), (6, 2, 4, 5, 1, 0, 3), ()]


@pytest.mark.parametrize("rows", ROW_REQUESTS)
@pytest.mark.parametrize("kind", ["density", "projector rows", "amplitude rows"])
def test_rows_are_those_rows_of_the_full_call(kind, rows):
    if kind == "amplitude rows":  # five qubits: every third of the 31 rows, 0 the full set
        dims, rows = LocalDims((2,) * 5), tuple(30 - 3 * r for r in rows)
        states = sample_haar_stack(dims, range(5))
    elif kind == "projector rows":
        dims, states = LocalDims((2, 2, 2)), sample_haar_stack((2, 2, 2), range(5))
    else:
        dims = LocalDims((2, 2, 2))
        states = np.stack([sample_ginibre_mixed(dims, 1 + s, 60 + s).mat for s in range(5)])
    full = coherence_stack(dims, states)
    some = _coherence_rows(dims, states, rows)  # Bound.evaluate's call
    assert len(some) == len(rows) and all(row.shape == (5,) for row in some)
    assert [row.tobytes() for row in some] == [full[r].tobytes() for r in rows]


@pytest.mark.parametrize("rows", [None, (0, 6), (2,), ()])
@pytest.mark.parametrize("shape", [(0, 8), (0, 8, 8), (0, 32)])
def test_empty_stacks_give_empty_rows(shape, rows):
    dims = LocalDims((2,) * (5 if 32 in shape else 3))
    states = np.zeros(shape, dtype=complex)
    if rows is None:
        assert coherence_stack(dims, states).shape == (2**dims.n_parties - 1, 0)
    else:
        some = _coherence_rows(dims, states, rows)
        assert len(some) == len(rows) and all(row.shape == (0,) for row in some)


def closed_form_rows(dims, b):
    """Every :func:`coherence_stack` row of the nonnegative amplitudes ``b``, in closed form.

    ``rho_S[i, j] = sum_k b_ik b_jk``, with i over the values of S's parties
    and k over the others', has no negative entry, so
    ``C_S = sum_k (sum_i b_ik)^2 - |b|^2``: a marginal sum of the amplitude tensor.
    """
    tensor = b.reshape(dims.dims)
    norm = b @ b
    rows = []
    for subset in stack_subsets(dims.n_parties):
        marginal = tensor.sum(axis=tuple(p - 1 for p in subset)).ravel()
        rows.append(marginal @ marginal - norm)
    return np.array(rows)


@pytest.mark.parametrize("dims", [(2,) * 3, (2,) * 6, (2,) * 10, (2,) * 12, (3, 3, 3), (2, 3, 4)])
def test_every_row_has_the_closed_form_on_nonnegative_amplitudes(dims):
    # amplitude rows take the amplitude route from D = 32 on; their
    # projectors, and amplitude rows below D = 32, the density route
    dims = LocalDims(dims)
    b = np.abs(sample_haar_stack(dims, (7,)))
    expected = closed_form_rows(dims, b[0])
    assert expected.min() > 0.0
    stacks = [b.astype(complex)]
    if dims.total_dim <= 64:
        stacks.append((b[:, :, None] * b[:, None, :]).astype(complex))
    for stack in stacks:
        rows = coherence_stack(dims, stack)[:, 0]
        worst = np.max(np.abs(rows - expected) / expected)
        assert worst <= 1e-13, (stack.shape, worst)


# ---------------------------------------------------------------------------
# the paper's residual D of Theorem 1: twice the thm1 residual
# ---------------------------------------------------------------------------

THM1 = table_bound("thm1")

#: How far the thm1 residual may lie from the paper's weighted sum of moduli:
#: it is computed as a difference of coherences, the sum term by term (both
#: are about 1; they agreed within 3.6e-15 over 4000 Ginibre states).
RESIDUAL_TOL = 1e-14


def slack_d(rho):
    return 2 * THM1.residual(rho.mat[None]).item()


def test_d_terms_match_combinatorial_generation(haar_three_qubit, ginibre_three_qubit):
    # weight of |rho[r, c]| is 2 minus the number of parties where the labels
    # agree; entries with zero weight are absent
    generated = {}
    for r in range(8):
        for c in range(8):
            if r == c:
                continue
            agreements = sum((r >> b) & 1 == (c >> b) & 1 for b in range(3))
            weight = 2 - agreements
            if weight > 0:
                generated[(r, c)] = weight
    assert len(generated) == 32
    assert sum(1 for w in generated.values() if w == 2) == 8
    assert all(w == (r ^ c).bit_count() - 1 for (r, c), w in generated.items())
    states = [density_from_pure(p) for p in haar_three_qubit] + ginibre_three_qubit
    mats = np.stack([rho.mat for rho in states])
    residual = THM1.residual(mats)
    for rho, value in zip(states, residual.tolist()):
        d = math.fsum(w * abs(rho.mat[r, c]) for (r, c), w in generated.items())
        assert abs(value - d / 2) <= RESIDUAL_TOL


def test_slack_d_examples():
    assert slack_d(diagonal_state((2, 2, 2))) == 0.0
    assert slack_d(density_from_pure(ghz_state(np.pi / 4))) == pytest.approx(2.0, abs=1e-12)


def test_slack_d_rejects_wrong_dims():
    message = "state stack has shape (1, 4, 4), expected (B, 8) or (B, 8, 8)"
    with pytest.raises(InvalidStateError, match=f"^{re.escape(message)}$"):
        slack_d(sample_ginibre_mixed((2, 2), 2, 0))
    for shape in ((8,), (1, 4), (1, 8, 4), (1, 1, 8, 8)):
        with pytest.raises(InvalidStateError, match=re.escape(f"state stack has shape {shape},")):
            THM1.residual(np.zeros(shape))


def test_slack_d_bounded_by_double_residual(haar_three_qubit, ginibre_three_qubit):
    states = [density_from_pure(p) for p in haar_three_qubit] + ginibre_three_qubit
    for rho in states:
        pairs = sum(subset_coherence(rho, p) for p in ((1, 2), (1, 3), (2, 3)))
        d = slack_d(rho)
        assert d >= 0.0
        assert 2 * l1_coherence(rho) - pairs - d >= -EPS


# ---------------------------------------------------------------------------
# correlated coherence C_AB - C_A - C_B: the slack of the subset-family bound
# at m = 1 on two parties (cor1-m1 for qubits, cor2-m1 for qudits)
# ---------------------------------------------------------------------------

def correlated_coherence(state):
    (result,) = [r for r in run_suite(state) if r.name.endswith("-m1")]
    return result.slack


def test_correlated_coherence_of_product_of_maximally_coherent_qubits():
    q = maximally_coherent(2)
    rho = kron(q, q)
    assert l1_coherence(rho) == pytest.approx(3.0, abs=1e-12)
    assert correlated_coherence(rho) == pytest.approx(1.0, abs=1e-12)


def test_correlated_coherence_of_diagonal_state_is_zero():
    assert correlated_coherence(diagonal_state((2, 2))) == 0.0


def test_correlated_coherence_of_w_reduction():
    rho_ab = partial_trace(density_from_pure(w_state(np.pi / 2, np.pi / 4)), (1, 2))
    assert correlated_coherence(rho_ab) == pytest.approx(1.0, abs=1e-12)


def test_correlated_coherence_nonnegative_on_ensembles():
    # pure and mixed, qubit and qutrit pairs, each ensemble as one stack
    count = 0
    for dims, name in (((2, 2), "cor1-m1"), ((3, 3), "cor2-m1")):
        d = LocalDims(dims).total_dim
        seeds = range(2500)
        pure = sample_haar_stack(dims, seeds)
        mixed = np.stack([sample_ginibre_mixed(dims, 1 + s % d, s).mat for s in seeds])
        for stack, is_pure in ((pure, True), (mixed, False)):
            coherence, _, rhs = suite_stack(dims, stack)
            slack = coherence[-1] - rhs[suite_names(dims, is_pure).index(name)]
            assert slack.shape == (2500,)
            assert slack.min() >= -EPS
            count += len(slack)
    assert count == 10_000
