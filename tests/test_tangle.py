import hashlib
import itertools

import numpy as np
import pytest

from cohtrade import (
    LocalDims,
    PureState,
    ckw_tangle_oracle,
    density_from_pure,
    dprime_slack,
    ghz_state,
    l1_coherence,
    sample_ginibre_mixed,
    sample_haar_pure,
    subset_coherence,
    theorem1_slack_D,
    three_tangle,
    w_state,
    wootters_concurrence,
)
from cohtrade.states import sample_haar_stack
from cohtrade.tangle import _SYSY, three_tangle_stack

EPS = 1e-9
THREE_QUBITS = LocalDims((2, 2, 2))


def spin_flip_spectrum_direct(rho):
    """Descending sqrt-eigenvalues of rho (sysy) rho* (sysy) via a general eigensolve.

    Reference route for cross-checking :func:`wootters_concurrence`; accurate
    only to ~1e-7 absolute for rank-deficient inputs.
    """
    flipped = _SYSY @ rho.mat.conj() @ _SYSY
    evals = np.linalg.eigvals(rho.mat @ flipped)
    return np.sort(np.sqrt(np.clip(evals.real, 0.0, None)))[::-1]


def permute_qubits(psi, perm):
    tensor = psi.amps.reshape(2, 2, 2).transpose(perm)
    return PureState(THREE_QUBITS, tensor.reshape(8))


# ---------------------------------------------------------------------------
# three_tangle
# ---------------------------------------------------------------------------

def test_ghz_tangle_closed_form():
    for phi in np.linspace(0, 2 * np.pi, 33, endpoint=False):
        tau = three_tangle(ghz_state(phi))
        assert tau == pytest.approx(4 * (np.cos(phi) * np.sin(phi)) ** 2, abs=1e-12)


def test_w_tangle_vanishes():
    for theta in np.linspace(0.05, np.pi - 0.05, 6):
        for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            assert three_tangle(w_state(theta, phi)) == 0.0


def test_product_states_have_zero_tangle():
    for i in range(2):
        for jk in range(4):
            amps = np.zeros(8)
            amps[4 * i + jk] = 1.0
            assert three_tangle(PureState(THREE_QUBITS, amps)) == 0.0
    # random |a> x |chi_BC> products
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        chi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps = np.kron(a / np.linalg.norm(a), chi / np.linalg.norm(chi))
        assert three_tangle(PureState(THREE_QUBITS, amps)) < 1e-14


def test_tangle_lies_in_unit_interval(haar_three_qubit):
    for psi in haar_three_qubit:
        tau = three_tangle(psi)
        assert type(tau) is float
        assert 0.0 <= tau <= 1.0 + EPS


def test_tangle_permutation_invariance(haar_three_qubit):
    for psi in haar_three_qubit[:40]:
        tau = three_tangle(psi)
        for perm in itertools.permutations(range(3)):
            assert abs(three_tangle(permute_qubits(psi, perm)) - tau) < 1e-10


def test_tangle_local_phase_invariance(haar_three_qubit):
    rng = np.random.default_rng(5)
    for psi in haar_three_qubit[:40]:
        tau = three_tangle(psi)
        t1, t2, t3 = rng.uniform(0, 2 * np.pi, 3)
        phases = np.array(
            [np.exp(1j * (t1 * i + t2 * j + t3 * k))
             for i in range(2) for j in range(2) for k in range(2)]
        )
        rotated = PureState(THREE_QUBITS, psi.amps * phases)
        assert abs(three_tangle(rotated) - tau) < 1e-10


def test_three_tangle_rejects_wrong_dims():
    with pytest.raises(ValueError):
        three_tangle(sample_haar_pure((2, 2), 0))


# ---------------------------------------------------------------------------
# wootters_concurrence and the monogamy oracle
# ---------------------------------------------------------------------------

def test_concurrence_of_bell_state():
    bell = PureState(LocalDims((2, 2)), np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert wootters_concurrence(density_from_pure(bell)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_of_product_state_is_zero():
    prod = PureState(LocalDims((2, 2)), np.array([1.0, 0, 0, 0]))
    assert wootters_concurrence(density_from_pure(prod)) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_matches_direct_spin_flip_spectrum():
    # the production route must agree with the literal eigensolve of
    # rho (sysy) rho* (sysy) wherever the latter is numerically trustworthy
    for seed in range(100):
        rho = sample_ginibre_mixed((2, 2), 4, seed)
        lam = spin_flip_spectrum_direct(rho)
        direct = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
        assert abs(wootters_concurrence(rho) - direct) < 1e-7


def test_ckw_oracle_ghz():
    assert ckw_tangle_oracle(ghz_state(np.pi / 4)) == pytest.approx(1.0, abs=1e-10)


def test_ckw_oracle_w_state():
    assert ckw_tangle_oracle(w_state(np.pi / 2, np.pi / 4)) == pytest.approx(0.0, abs=1e-10)


def test_ckw_oracle_basis_state():
    amps = np.zeros(8)
    amps[0] = 1.0
    assert ckw_tangle_oracle(PureState(THREE_QUBITS, amps)) == pytest.approx(0.0, abs=1e-12)


def test_tangle_formula_matches_ckw_oracle(haar_three_qubit):
    worst = 0.0
    for psi in haar_three_qubit:
        worst = max(worst, abs(three_tangle(psi) - ckw_tangle_oracle(psi)))
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# dprime_slack
# ---------------------------------------------------------------------------

def test_dprime_slack_single_amplitude():
    amps = np.zeros(8)
    amps[0] = 1.0
    assert dprime_slack(PureState(THREE_QUBITS, amps)) == 0.0


def test_dprime_slack_ghz():
    assert dprime_slack(ghz_state(np.pi / 4)) == pytest.approx(1.0, abs=1e-12)


def test_dprime_dominates_tangle(haar_three_qubit):
    for psi in haar_three_qubit:
        assert dprime_slack(psi) >= three_tangle(psi) - EPS


def test_dprime_is_half_the_density_residual(haar_three_qubit):
    # for pure states the density-level residual collapses to twice D'/2
    for psi in haar_three_qubit[:50]:
        rho = density_from_pure(psi)
        assert theorem1_slack_D(rho) == pytest.approx(2 * dprime_slack(psi), abs=1e-12)


def test_dprime_consistent_with_pairwise_bound(haar_three_qubit):
    for psi in haar_three_qubit[:50]:
        rho = density_from_pure(psi)
        pairs = sum(subset_coherence(rho, p) for p in ((1, 2), (1, 3), (2, 3)))
        assert l1_coherence(rho) >= pairs / 2 + dprime_slack(psi) - EPS


def test_dprime_rejects_wrong_dims():
    with pytest.raises(ValueError):
        dprime_slack(sample_haar_pure((2, 2), 1))


def test_stacked_tangle_equals_scalar_formula():
    # 10^4 Haar states, stacked whole and in small stacks (a one-row stack
    # must fold its terms in the same order as a wide one)
    amps = sample_haar_stack(THREE_QUBITS, range(10_000))
    reference = [three_tangle(PureState(THREE_QUBITS, row)) for row in amps]
    assert three_tangle_stack(amps).tolist() == reference
    for start, size in ((0, 1), (17, 2), (40, 3), (123, 8)):
        part = three_tangle_stack(amps[start : start + size]).tolist()
        assert part == reference[start : start + size]
    assert three_tangle_stack(np.array([ghz_state(np.pi / 4).amps])).tolist() == [
        three_tangle(ghz_state(np.pi / 4))
    ]


def test_stacked_tangle_bits_are_pinned():
    # sha256 of tau over 10^4 uniform (unnormalized) rows, recorded with the
    # stacked polynomial this row-by-row form replaced
    rng = np.random.default_rng(20201)
    amps = rng.uniform(-1.0, 1.0, (10_000, 16)).view(np.complex128)
    digest = hashlib.sha256(three_tangle_stack(amps).tobytes()).hexdigest()
    assert digest == "c90c93d2cdc258c7ed7c6e6cce0c6155e8077147a1e0a4d03e670385d1c8fe2a"


def test_stacked_tangle_of_empty_stack():
    tau = three_tangle_stack(np.zeros((0, 8), dtype=complex))
    assert tau.shape == (0,) and tau.dtype == np.float64


def test_stacked_tangle_takes_real_rows_and_views():
    amps = sample_haar_stack(THREE_QUBITS, range(64))
    real = np.ascontiguousarray(amps.real)
    assert three_tangle_stack(real).tolist() == three_tangle_stack(real.astype(complex)).tolist()
    view = amps[::3]
    assert not view.flags.c_contiguous
    expected = three_tangle_stack(np.ascontiguousarray(view, dtype=np.complex128))
    assert three_tangle_stack(view).tolist() == expected.tolist()


def test_stacked_tangle_rejects_other_shapes():
    with pytest.raises(ValueError, match="three-qubit"):
        three_tangle_stack(np.zeros((2, 4), dtype=complex))
