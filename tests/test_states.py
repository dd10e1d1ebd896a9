import math

import numpy as np
import pytest

from cohtrade import (
    DensityOperator,
    InvalidStateError,
    LocalDims,
    PureState,
    SubsystemSet,
    decode_index,
    density_from_pure,
    encode_index,
    ghz_state,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    sample_ginibre_mixed,
    sample_haar_pure,
)

from conftest import random_hermitian


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def ptrace_by_loops(mat, dims, keep):
    """Partial trace by explicit index summation; independent of einsum."""
    n = len(dims)
    keep0 = [p - 1 for p in keep]
    traced = [i for i in range(n) if i not in keep0]
    kept_dims = [dims[i] for i in keep0]
    dk = math.prod(kept_dims)
    out = np.zeros((dk, dk), dtype=complex)

    def all_digits(ds):
        if not ds:
            yield ()
            return
        for head in range(ds[0]):
            for tail in all_digits(ds[1:]):
                yield (head,) + tail

    for row_kept in all_digits(kept_dims):
        for col_kept in all_digits(kept_dims):
            r_out = encode_index(row_kept, kept_dims)
            c_out = encode_index(col_kept, kept_dims)
            for t in all_digits([dims[i] for i in traced]):
                row = [0] * n
                col = [0] * n
                for pos, val in zip(keep0, row_kept):
                    row[pos] = val
                for pos, val in zip(keep0, col_kept):
                    col[pos] = val
                for pos, val in zip(traced, t):
                    row[pos] = val
                    col[pos] = val
                out[r_out, c_out] += mat[encode_index(row, dims), encode_index(col, dims)]
    return out


def charpoly_roots(mat):
    """Eigenvalues via Newton's identities and the companion matrix (np.roots).

    Coefficients of l^d + c1 l^(d-1) + ... + cd come from the power sums
    p_k = tr(M^k) through c_k = -(p_k + sum_i c_i p_{k-i}) / k.
    """
    d = mat.shape[0]
    p = [float(np.trace(np.linalg.matrix_power(mat, k)).real) for k in range(1, d + 1)]
    coeffs = [1.0]
    for k in range(1, d + 1):
        s = p[k - 1] + sum(coeffs[i] * p[k - i - 1] for i in range(1, k))
        coeffs.append(-s / k)
    return np.sort(np.roots(coeffs).real)[::-1]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_local_dims_rejects_degenerate_parties():
    with pytest.raises(InvalidStateError):
        LocalDims((2, 1, 2))
    with pytest.raises(InvalidStateError):
        LocalDims(())


@pytest.mark.parametrize("dims", [(2.7, 2), (2.0, 2), (True, 2), ("2", "2")])
def test_local_dims_rejects_non_integer_entries(dims):
    with pytest.raises(InvalidStateError, match="integer"):
        LocalDims(dims)


def test_local_dims_accepts_numpy_integers():
    assert LocalDims(tuple(np.array([2, 3]))).dims == (2, 3)


def test_local_dims_totals():
    dims = LocalDims((2, 3, 4))
    assert dims.n_parties == 3
    assert dims.total_dim == 24
    assert not dims.all_qubits
    assert LocalDims((2, 2)).all_qubits


def test_subsystem_set_invariants():
    with pytest.raises(ValueError):
        SubsystemSet(())
    with pytest.raises(ValueError):
        SubsystemSet((2, 2))
    with pytest.raises(ValueError):
        SubsystemSet((3, 1))
    with pytest.raises(ValueError):
        SubsystemSet((0, 1))


def test_subsystem_set_rejects_non_integer_labels():
    with pytest.raises(ValueError, match="integer"):
        SubsystemSet((1.7, 2.2))
    with pytest.raises(ValueError, match="integer"):
        SubsystemSet((True, 2))
    assert SubsystemSet(np.array([1, 3])).parties == (1, 3)
    assert all(type(p) is int for p in SubsystemSet((np.int64(2), np.int32(4))).parties)


def test_pure_state_requires_unit_norm():
    with pytest.raises(InvalidStateError):
        PureState(LocalDims((2,)), np.array([1.0, 1.0]))
    with pytest.raises(InvalidStateError):
        PureState(LocalDims((2, 2)), np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(InvalidStateError, match="finite"):
        PureState(LocalDims((2, 2)), np.array([bad, 0.5, 0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_checks_reject_non_finite_entries(bad):
    dims = LocalDims((2,))
    for mat in (np.diag([bad, bad]), np.array([[0.5, bad], [bad, 0.5]])):
        with pytest.raises(InvalidStateError, match="finite"):
            DensityOperator(dims, mat)
        with pytest.raises(InvalidStateError, match="finite"):
            DensityOperator._trusted(dims, mat.astype(np.complex128)).validate()
        with pytest.raises(InvalidStateError, match="finite"):
            hermitian_eigenvalues(mat)


def test_density_operator_structural_checks():
    dims = LocalDims((2,))
    with pytest.raises(InvalidStateError):
        DensityOperator(dims, np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidStateError):
        DensityOperator(dims, np.eye(2))  # trace 2
    with pytest.raises(InvalidStateError):
        DensityOperator(dims, np.eye(3) / 3)  # wrong shape
    bad = DensityOperator(dims, np.diag([1.5, -0.5]))  # Hermitian, trace 1, not PSD
    with pytest.raises(InvalidStateError, match="eigenvalue"):
        bad.validate()
    good = DensityOperator(dims, np.diag([0.25, 0.75]))
    assert good.validate() is good


# ---------------------------------------------------------------------------
# index codec
# ---------------------------------------------------------------------------

def test_encode_index_examples():
    assert encode_index((0, 0, 0), (2, 2, 2)) == 0
    assert encode_index((1, 1, 1), (2, 2, 2)) == 7
    # positional arithmetic: 1*9 + 0*3 + 2
    assert encode_index((1, 0, 2), (2, 3, 3)) == 11


def test_encode_index_rejects_out_of_range_digits():
    with pytest.raises(ValueError):
        encode_index((0, 3, 0), (2, 3, 3))
    with pytest.raises(ValueError):
        encode_index((0, 0), (2, 2, 2))


@pytest.mark.parametrize("dims", [(2,), (2, 2, 2), (3, 3, 3, 3), (2, 3, 3), (5, 4, 2)])
def test_codec_roundtrip_exhaustive(dims):
    local = LocalDims(dims)
    assert local.total_dim <= 81
    for flat in range(local.total_dim):
        digits = decode_index(flat, local)
        assert all(0 <= d < dim for d, dim in zip(digits, dims))
        assert encode_index(digits, local) == flat


def test_decode_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        decode_index(8, (2, 2, 2))
    with pytest.raises(ValueError):
        decode_index(-1, (2, 2, 2))


# ---------------------------------------------------------------------------
# density_from_pure
# ---------------------------------------------------------------------------

def test_density_from_pure_basis_state():
    psi = PureState(LocalDims((2,)), np.array([1.0, 0.0]))
    assert np.allclose(density_from_pure(psi).mat, np.diag([1.0, 0.0]))


def test_density_from_pure_plus_state():
    psi = PureState(LocalDims((2,)), np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.allclose(density_from_pure(psi).mat, np.full((2, 2), 0.5), atol=1e-15)


def test_density_from_pure_ghz_matches_outer_product_oracle():
    psi = ghz_state(np.pi / 4)
    rho = density_from_pure(psi).mat
    expected = np.zeros((8, 8), dtype=complex)
    for r in range(8):
        for c in range(8):
            expected[r, c] = psi.amps[r] * np.conj(psi.amps[c])
    assert np.array_equal(rho, expected)
    for r, c in ((0, 0), (0, 7), (7, 0), (7, 7)):
        assert abs(rho[r, c] - 0.5) < 1e-15
    assert abs(rho).sum() == pytest.approx(2.0)


def test_density_from_pure_is_rank_one():
    psi = sample_haar_pure((2, 2, 2), 5)
    eigs = hermitian_eigenvalues(density_from_pure(psi).mat)
    assert eigs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(eigs[1:]).max() < 1e-12


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_state():
    psi = PureState(LocalDims((2, 2, 2)), np.eye(8)[0])
    reduced = partial_trace(density_from_pure(psi), (1, 2))
    assert reduced.dims.dims == (2, 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(reduced.mat, expected)


def test_partial_trace_ghz_marginal():
    rho = density_from_pure(ghz_state(np.pi / 4))
    reduced = partial_trace(rho, (1,))
    oracle = ptrace_by_loops(rho.mat, (2, 2, 2), (1,))
    assert np.allclose(reduced.mat, np.diag([0.5, 0.5]), atol=1e-15)
    assert np.allclose(reduced.mat, oracle, atol=1e-14)


def test_partial_trace_keep_all_is_identity():
    rho = sample_ginibre_mixed((2, 3), 4, 0)
    assert np.allclose(partial_trace(rho, (1, 2)).mat, rho.mat)


@pytest.mark.parametrize(
    "dims,keep",
    [((2, 2, 2), (2,)), ((2, 2, 2), (1, 3)), ((2, 3, 2), (2, 3)), ((3, 2, 4), (1,)), ((2, 3), (2,))],
)
def test_partial_trace_matches_loop_oracle(dims, keep):
    rho = sample_ginibre_mixed(dims, math.prod(dims) // 2 + 1, 42)
    reduced = partial_trace(rho, keep)
    assert np.allclose(reduced.mat, ptrace_by_loops(rho.mat, dims, keep), atol=1e-13)
    assert reduced.dims.dims == tuple(dims[p - 1] for p in keep)


def test_partial_trace_preserves_trace_and_hermiticity():
    for seed in range(25):
        rho = sample_ginibre_mixed((2, 2, 2), 1 + seed % 8, seed)
        for keep in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3)):
            red = partial_trace(rho, keep)
            assert abs(np.trace(red.mat) - 1.0) < 1e-12
            assert np.abs(red.mat - red.mat.conj().T).max() < 1e-12


def test_partial_trace_of_kron_recovers_factor():
    for seed in range(10):
        a = sample_ginibre_mixed((2, 2), 3, seed)
        b = sample_ginibre_mixed((3,), 2, 100 + seed)
        prod = kron(a, b)
        assert np.abs(partial_trace(prod, (1, 2)).mat - a.mat).max() < 1e-10
        assert np.abs(partial_trace(prod, (3,)).mat - b.mat).max() < 1e-10


def test_sequential_reduction_equals_direct():
    for seed in range(10):
        rho = sample_ginibre_mixed((2, 2, 2), 5, seed)
        step1 = partial_trace(rho, (1, 2))  # drop party 3
        step2 = partial_trace(step1, (1,))  # then drop party 2
        direct = partial_trace(rho, (1,))
        assert np.abs(step2.mat - direct.mat).max() < 1e-10


def test_partial_trace_rejects_invalid_subset():
    rho = sample_ginibre_mixed((2, 2), 2, 0)
    with pytest.raises(ValueError):
        partial_trace(rho, (1, 3))
    with pytest.raises(ValueError):
        partial_trace(rho, ())


# ---------------------------------------------------------------------------
# kron
# ---------------------------------------------------------------------------

def test_kron_diagonal_example():
    a = DensityOperator(LocalDims((2,)), np.diag([1.0, 0.0]))
    b = DensityOperator(LocalDims((2,)), np.diag([0.0, 1.0]))
    out = kron(a, b)
    assert out.dims.dims == (2, 2)
    assert np.allclose(out.mat, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_maximally_coherent_qubits():
    q = DensityOperator(LocalDims((2,)), np.full((2, 2), 0.5))
    assert np.allclose(kron(q, q).mat, np.full((4, 4), 0.25), atol=1e-15)


# ---------------------------------------------------------------------------
# hermitian_eigenvalues
# ---------------------------------------------------------------------------

def test_hermitian_eigenvalues_trivial_cases():
    assert np.allclose(hermitian_eigenvalues(np.diag([1.0, 0.0])), [1.0, 0.0])
    assert np.allclose(hermitian_eigenvalues(np.full((2, 2), 0.5)), [1.0, 0.0], atol=1e-15)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigenvalues_sum_to_trace():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4, 6, 8):
        mat = random_hermitian(rng, d)
        eigs = hermitian_eigenvalues(mat)
        assert list(eigs) == sorted(eigs, reverse=True)
        assert abs(eigs.sum() - np.trace(mat).real) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_eigenvalues_match_charpoly_roots(d):
    rng = np.random.default_rng(17)
    for _ in range(5):
        mat = random_hermitian(rng, d)
        assert np.allclose(hermitian_eigenvalues(mat), charpoly_roots(mat), atol=1e-8)


def test_wootters_matrix_spectrum_matches_charpoly_roots():
    # Hermitian form sqrt(rho) rho_tilde sqrt(rho) of the spin-flip product
    from cohtrade.tangle import _SYSY

    for seed in range(5):
        rho = sample_ginibre_mixed((2, 2), 4, seed)
        w, v = np.linalg.eigh(rho.mat)
        sqrt_rho = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
        flipped = _SYSY @ rho.mat.conj() @ _SYSY
        herm = sqrt_rho @ flipped @ sqrt_rho
        herm = (herm + herm.conj().T) / 2
        assert np.allclose(hermitian_eigenvalues(herm), charpoly_roots(herm), atol=1e-8)


def test_density_operator_spectra_are_nonnegative():
    for seed in range(20):
        rho = sample_ginibre_mixed((2, 2, 2), 1 + seed % 8, seed)
        assert hermitian_eigenvalues(rho.mat)[-1] >= -1e-10


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_haar_sampler_is_deterministic_per_seed():
    a = sample_haar_pure((2, 2), 123)
    b = sample_haar_pure((2, 2), 123)
    c = sample_haar_pure((2, 2), 124)
    assert np.array_equal(a.amps, b.amps)
    assert not np.array_equal(a.amps, c.amps)


def test_haar_samples_are_normalized():
    for seed in range(50):
        psi = sample_haar_pure((2, 3, 2), seed)
        assert abs(np.sum(np.abs(psi.amps) ** 2) - 1.0) < 1e-10


def test_haar_first_amplitude_moment():
    # E|amp_0|^2 = 1/D for Haar states
    total = 0.0
    for seed in range(10_000):
        total += abs(sample_haar_pure((2, 2), seed).amps[0]) ** 2
    assert abs(total / 10_000 - 0.25) < 0.02


def test_ginibre_rank_one_is_pure():
    rho = sample_ginibre_mixed((2, 2, 2), 1, 7)
    assert abs(rho.purity() - 1.0) < 1e-10


def test_ginibre_full_rank_is_mixed():
    rho = sample_ginibre_mixed((2, 2, 2), 8, 7)
    assert rho.purity() < 1.0


def test_ginibre_samples_validate():
    for seed in range(20):
        sample_ginibre_mixed((2, 2, 2), 1 + seed % 8, seed).validate()
        sample_ginibre_mixed((3, 3), 4, seed).validate()


def test_ginibre_is_deterministic_per_seed():
    a = sample_ginibre_mixed((2, 2), 3, 9)
    b = sample_ginibre_mixed((2, 2), 3, 9)
    assert np.array_equal(a.mat, b.mat)


def test_ginibre_rejects_bad_rank():
    with pytest.raises(ValueError):
        sample_ginibre_mixed((2, 2), 0, 0)
    with pytest.raises(ValueError):
        sample_ginibre_mixed((2, 2), 5, 0)
