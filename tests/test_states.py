import hashlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from cohtrade import (
    FAMILIES,
    DensityOperator,
    InvalidStateError,
    LocalDims,
    PureState,
    SubsystemSet,
    cli_main,
    default_grid,
    density_from_pure,
    ensemble_reports,
    ghz_state,
    minimize_slack,
    partial_trace,
    sample_ginibre_mixed,
    sample_haar_pure,
    write_state_file,
)
from cohtrade.coherence import _row_keeps, coherence_stack, l1_coherence_stack, stack_rows
from cohtrade.coherence import stack_subsets
from cohtrade.families import _amplitudes
from cohtrade.inequalities import chunk_states
from cohtrade.states import _reduce, _reduction_plan, sample_ginibre_stack, sample_haar_stack
from cohtrade.states import validate_rows, validate_stack

from conftest import complex_normals, kron, random_hermitian


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def encode_index(digits, dims):
    """Flat basis index of per-party labels, party 1 most significant."""
    if len(digits) != len(dims):
        raise ValueError(f"got {len(digits)} digits for {len(dims)} parties")
    flat = 0
    for digit, dim in zip(digits, dims):
        if not 0 <= digit < dim:
            raise ValueError(f"digit {digit} out of range for local dimension {dim}")
        flat = flat * dim + digit
    return flat


def decode_index(index, dims):
    """Inverse of :func:`encode_index`."""
    if not 0 <= index < math.prod(dims):
        raise ValueError(f"index {index} out of range for dims {dims}")
    digits = []
    for dim in reversed(dims):
        index, digit = divmod(index, dim)
        digits.append(digit)
    return tuple(reversed(digits))


def ptrace_by_loops(mat, dims, keep):
    """Partial trace by explicit index summation; independent of the library's gather.

    ``mat`` is one matrix or a stack of them (the loop runs over the last two
    axes, so each matrix of a stack is summed as it would be alone).
    """
    kept = [p - 1 for p in keep]
    traced = [i for i in range(len(dims)) if i not in kept]
    kept_dims = [dims[i] for i in kept]
    dk = math.prod(kept_dims)
    out = np.zeros(mat.shape[:-2] + (dk, dk), dtype=complex)
    for row in range(math.prod(dims)):
        r = decode_index(row, dims)
        for col in range(math.prod(dims)):
            c = decode_index(col, dims)
            if all(r[i] == c[i] for i in traced):
                r_out = encode_index([r[i] for i in kept], kept_dims)
                c_out = encode_index([c[i] for i in kept], kept_dims)
                out[..., r_out, c_out] += mat[..., row, col]
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


def test_density_operator_structural_checks():
    dims = LocalDims((2,))
    with pytest.raises(InvalidStateError):
        DensityOperator(dims, np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidStateError):
        DensityOperator(dims, np.eye(2))  # trace 2
    with pytest.raises(InvalidStateError):
        DensityOperator(dims, np.eye(3) / 3)  # wrong shape
    not_psd = np.diag([1.5, -0.5])  # Hermitian, trace 1, not PSD
    with pytest.raises(InvalidStateError, match="eigenvalue"):
        DensityOperator(dims, not_psd)
    bad = DensityOperator._trusted(dims, not_psd.astype(np.complex128))
    with pytest.raises(InvalidStateError, match="eigenvalue"):
        bad.validate()
    good = DensityOperator(dims, np.diag([0.25, 0.75]))
    assert good.validate() is good


def test_overflowing_density_entries_raise_without_a_warning(tmp_path, capsys):
    # m - m^dag and the trace overflow to inf, which fails the checks without a RuntimeWarning
    dims = LocalDims((2,))
    cases = {
        "skew": (np.array([[0.5, 1e308], [-1e308, 0.5]]), "matrix is not Hermitian within "),
        "huge": (np.diag([1e308, 1e308]), "trace (inf+0j) deviates from 1 by more than "),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, (mat, message) in cases.items():
            with pytest.raises(InvalidStateError, match=re.escape(message)):
                DensityOperator(dims, mat)
            path = tmp_path / f"{name}.json"
            write_state_file(path, DensityOperator._trusted(dims, mat.astype(np.complex128)))
            assert cli_main(["verify", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: " + message) and err.count("\n") == 1


def with_min_eigenvalue(d, min_eig, seed=0):
    """Hermitian unit-trace ``U diag(min_eig, w, ..., w) U^dag`` for a random unitary U."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    eig = np.full(d, (1.0 - min_eig) / (d - 1))
    eig[0] = min_eig
    m = (q * eig) @ q.conj().T
    return (m + m.conj().T) / 2.0


def named_eigenvalue(exc) -> float:
    message = str(exc.value)
    assert message.startswith("minimum eigenvalue ")
    assert message.endswith(" below -1e-10: matrix is not positive")
    return float(message.split()[2])


@pytest.mark.parametrize("n", [3, 6, 8])
def test_positivity_boundary_is_minus_eps_psd(n):
    dims = LocalDims((2,) * n)
    for min_eig in (-0.5e-10, -0.9e-10):
        DensityOperator(dims, with_min_eigenvalue(dims.total_dim, min_eig))
    for min_eig in (-1.1e-10, -2e-10):
        with pytest.raises(InvalidStateError) as exc:
            DensityOperator(dims, with_min_eigenvalue(dims.total_dim, min_eig))
        assert named_eigenvalue(exc) == pytest.approx(min_eig, rel=1e-3)


@pytest.mark.parametrize("n", [3, 6, 8, 10])
def test_haar_projectors_are_positive(n):
    amps = sample_haar_pure((2,) * n, n).amps
    DensityOperator(LocalDims((2,) * n), np.outer(amps, amps.conj()))


def test_stack_names_the_eigenvalue_of_its_first_non_positive_matrix():
    spectra = [0.01, 0.0, -0.25, -0.5, 0.02]
    stack = np.stack([with_min_eigenvalue(8, e, seed) for seed, e in enumerate(spectra)])
    with pytest.raises(InvalidStateError) as exc:
        validate_stack(stack)
    assert named_eigenvalue(exc) == pytest.approx(-0.25)
    validate_stack(stack[:2])


def test_stack_starting_with_nan_matrix_keeps_its_message():
    stack = np.stack([with_min_eigenvalue(8, e, seed) for seed, e in enumerate([0.01, -0.25])])
    stack[0, 1, 2] = np.nan
    with pytest.raises(InvalidStateError) as exc:
        validate_stack(stack)
    assert str(exc.value) == "every matrix entry must be finite, got NaN or inf"


def test_empty_stack_is_valid():
    validate_stack(np.empty((0, 8, 8), dtype=np.complex128))
    validate_rows(np.empty((0, 8), dtype=np.complex128))


# ---------------------------------------------------------------------------
# states the library builds pass the checks that run_suite, ensembles and sweeps skip
# ---------------------------------------------------------------------------

#: (dims, Ginibre ranks): every rank at three qubits, else 1, D // 2 and D,
#: at every dims that the ensembles sample in the benchmark.
GINIBRE_RANKS = [((2, 2, 2), range(1, 9))] + [
    (dims, (1, math.prod(dims) // 2, math.prod(dims)))
    for dims in ((3, 3, 3), (2, 3, 4), (2,) * 5, (2,) * 6, (2,) * 8)
]


@pytest.mark.parametrize("dims, ranks", GINIBRE_RANKS, ids=lambda x: str(tuple(x)))
def test_sampled_and_derived_states_pass_the_checks(dims, ranks):
    # ensemble_reports evaluates sampled stacks without these checks
    seeds = range(8 if len(dims) == 8 else 64)
    for rank in ranks:
        validate_stack(sample_ginibre_stack(dims, rank, seeds))
    validate_rows(sample_haar_stack(dims, seeds))
    validate_stack(np.stack([density_from_pure(sample_haar_pure(dims, s)).mat for s in seeds]))
    n = len(dims)
    for seed in seeds:
        rho = sample_ginibre_mixed(dims, ranks[seed % len(ranks)], seed)
        for m in range(1, n):
            for keep in itertools.combinations(range(1, n + 1), m):
                validate_stack(partial_trace(rho, keep).mat[None])


@pytest.mark.parametrize("family", FAMILIES)
def test_family_rows_pass_the_checks(family):
    # family_sweep evaluates these rows without the check, on parameters _grid_point checked
    validate_rows(_amplitudes(family, default_grid(family, 257)))


# ---------------------------------------------------------------------------
# index codec of the loop oracle
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
    assert math.prod(dims) <= 81
    for flat in range(math.prod(dims)):
        digits = decode_index(flat, dims)
        assert all(0 <= d < dim for d, dim in zip(digits, dims))
        assert encode_index(digits, dims) == flat
        assert flat == np.ravel_multi_index(digits, dims)


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
    eigs = np.linalg.eigvalsh(density_from_pure(psi).mat)
    assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(eigs[:-1]).max() < 1e-12


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


REDUCTION_DIMS = [(2, 2), (2, 2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2)]


def reduction_stack(dims, kind, batch):
    """``batch`` density matrices of one kind, and the stack that ``coherence_stack`` takes.

    Haar projectors go to ``coherence_stack`` as their amplitude rows, which
    it projects itself.
    """
    d = math.prod(dims)
    if kind == "projector":
        amps = sample_haar_stack(dims, range(40, 40 + batch))
        return amps[:, :, None] * amps.conj()[:, None, :], amps
    mats = sample_ginibre_stack(dims, 1 if kind == "rank 1" else d, range(50, 50 + batch))
    return mats, mats


@pytest.mark.parametrize("batch", [1, 2, 7])
@pytest.mark.parametrize("kind", ["rank 1", "full rank", "projector"])
@pytest.mark.parametrize("dims", REDUCTION_DIMS)
def test_every_reduction_is_the_loop_sum_bit_for_bit(dims, kind, batch):
    mats, stack = reduction_stack(dims, kind, batch)
    rows = coherence_stack(LocalDims(dims), stack)
    for row, subset in enumerate(stack_subsets(len(dims))[:-1]):
        loops = ptrace_by_loops(mats, dims, subset.parties)
        assert np.array_equal(rows[row], l1_coherence_stack(loops)), subset.parties
        for mat, loop in zip(mats, loops):
            reduced = partial_trace(DensityOperator._trusted(LocalDims(dims), mat), subset)
            assert np.array_equal(np.abs(reduced.mat), np.abs(loop)), subset.parties


@pytest.mark.parametrize(
    "dims,kind", [((2, 2, 2), "projector"), ((2, 2, 2), "full rank"), ((3, 3, 3), "rank 1")]
)
def test_a_full_chunk_reduces_to_the_loop_sums_in_blocks(dims, kind):
    dims = LocalDims(dims)
    chunk = chunk_states(dims, kind == "projector")
    mats, stack = reduction_stack(dims.dims, kind, chunk)
    keeps = _row_keeps(dims.n_parties, None)
    blocks = {block.start: block.stop for _, block, _ in _reduce(dims, stack, keeps)}
    assert len(blocks) > 1 and chunk % blocks[0] != 0  # a last, shorter block
    rows = coherence_stack(dims, stack)
    for row, subset in enumerate(stack_subsets(dims.n_parties)[:-1]):
        loops = ptrace_by_loops(mats, dims.dims, subset.parties)
        assert np.array_equal(rows[row], l1_coherence_stack(loops)), subset.parties


def test_eight_qubits_reduce_from_factored_offsets_to_the_loop_sums():
    dims = LocalDims((2,) * 8)
    mats, _ = reduction_stack(dims.dims, "rank 1", 1)
    _, batches = _reduction_plan(dims.dims, _row_keeps(8, None))
    assert all(isinstance(index, tuple) for _, _, index in batches if index is not None)
    rows = coherence_stack(dims, mats)
    for keep in [(1, 4), (2, 3, 5, 6, 7, 8)]:
        loops = ptrace_by_loops(mats, dims.dims, keep)
        assert np.array_equal(rows[stack_rows(8)[SubsystemSet(keep)]], l1_coherence_stack(loops))
        reduced = partial_trace(DensityOperator._trusted(dims, mats[0]), keep)
        assert np.array_equal(np.abs(reduced.mat), np.abs(loops[0]))


def plan_entries(plan):
    """Array entries that a :func:`_reduction_plan` result holds."""
    arrays = []
    for members, _, index in plan[1]:
        arrays.append(members)
        if isinstance(index, tuple):  # factored offsets
            arrays.extend(index)
        elif index is not None:
            arrays.append(index)
    return sum(a.size for a in arrays), sum(a.nbytes for a in arrays)


def test_the_reduction_plan_holds_o3n_offsets():
    # built uncached: the plan alone, with no state evaluated
    _, nbytes = plan_entries(_reduction_plan.__wrapped__((2,) * 8, _row_keeps(8, None)))
    assert nbytes < 4 * 2**20
    entries, _ = plan_entries(_reduction_plan.__wrapped__((2,) * 12, _row_keeps(12, None)))
    assert entries <= 3 * 3**12 + 2**12  # kept and traced offsets: 2 d_S + d_S^c per subset


# ---------------------------------------------------------------------------
# kron (the tests' tensor-product helper)
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
# Hermitian eigenvalues (the spectrum behind DensityOperator.validate)
# ---------------------------------------------------------------------------

def test_hermitian_eigenvalues_trivial_cases():
    assert np.allclose(np.linalg.eigvalsh(np.diag([1.0, 0.0])), [0.0, 1.0])
    assert np.allclose(np.linalg.eigvalsh(np.full((2, 2), 0.5)), [0.0, 1.0], atol=1e-15)


def test_hermitian_eigenvalues_rejects_non_hermitian():
    # validate takes no spectrum of a matrix that is not Hermitian
    rho = DensityOperator._trusted(LocalDims((2,)), np.array([[1.0, 1.0], [0.0, 0.0]]) + 0j)
    with pytest.raises(InvalidStateError, match="not Hermitian"):
        rho.validate()


def test_hermitian_eigenvalues_sum_to_trace():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4, 6, 8):
        mat = random_hermitian(rng, d)
        eigs = np.linalg.eigvalsh(mat)
        assert list(eigs) == sorted(eigs)
        assert abs(eigs.sum() - np.trace(mat).real) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_eigenvalues_match_charpoly_roots(d):
    rng = np.random.default_rng(17)
    for _ in range(5):
        mat = random_hermitian(rng, d)
        assert np.allclose(np.linalg.eigvalsh(mat)[::-1], charpoly_roots(mat), atol=1e-8)


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
        assert np.allclose(np.linalg.eigvalsh(herm)[::-1], charpoly_roots(herm), atol=1e-8)


def test_density_operator_spectra_are_nonnegative():
    for seed in range(20):
        rho = sample_ginibre_mixed((2, 2, 2), 1 + seed % 8, seed)
        assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-10


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
    assert abs(np.trace(rho.mat @ rho.mat).real - 1.0) < 1e-10


def test_ginibre_full_rank_is_mixed():
    rho = sample_ginibre_mixed((2, 2, 2), 8, 7)
    assert np.trace(rho.mat @ rho.mat).real < 1.0


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
    for rank in (2.7, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="rank must be an integer"):
            sample_ginibre_mixed((2, 2), rank, 0)


def test_ginibre_accepts_numpy_integer_rank():
    expected = sample_ginibre_mixed((2, 2), 2, 9).mat
    for rank in (np.int64(2), np.int32(2)):
        assert np.array_equal(sample_ginibre_mixed((2, 2), rank, 9).mat, expected)


def ginibre_by_seed(dims, rank, seed):
    """The per-seed Ginibre formula: one generator, G G^dag, trace division, hermitization."""
    g = complex_normals(np.random.default_rng(seed), (math.prod(dims), rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return (m + m.conj().T) / 2.0


# (dims, rank, seeds, sha256 of the matrices sample_ginibre_mixed(dims, rank,
# s).mat for s in range(seeds), concatenated, to 16 hex digits), recorded
# with ginibre_by_seed's formula on x86_64 (numpy 2.4, OpenBLAS)
GOLDEN_GINIBRE = [
    ((2, 2, 2), 1, 512, "435713c944619025"),
    ((2, 2, 2), 2, 512, "20a8710e099a95d7"),
    ((2, 2, 2), 3, 512, "d5f7a530a717dace"),
    ((2, 2, 2), 4, 512, "48b5fe49d843ea8a"),
    ((2, 2, 2), 5, 512, "0946b815110ad65e"),
    ((2, 2, 2), 6, 512, "ddd0f90eb2c1df38"),
    ((2, 2, 2), 7, 512, "a12899c8fcea75ac"),
    ((2, 2, 2), 8, 512, "cdc59a97e917e1e1"),
    ((2,) * 5, 32, 32, "8bb9d2194c948478"),
    ((3, 3, 3), 27, 32, "88018598da31dce3"),
    ((2, 3, 4), 5, 32, "1b4a83a41a64531c"),
    ((2,) * 6, 64, 8, "060a5043d42d67f8"),
    ((2,) * 8, 256, 2, "2fa34528037220b6"),
]


@pytest.mark.parametrize("case", GOLDEN_GINIBRE, ids=lambda c: f"{c[0]}-r{c[1]}")
def test_ginibre_samples_are_pinned(case):
    dims, rank, seeds, digest = case
    singles = hashlib.sha256()
    for seed in range(seeds):
        singles.update(sample_ginibre_mixed(dims, rank, seed).mat.tobytes())
    assert singles.hexdigest()[:16] == digest
    stack = sample_ginibre_stack(dims, rank, range(seeds))
    assert hashlib.sha256(stack.tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "dims, rank", [((2, 2, 2), 1), ((2, 2, 2), 4), ((2, 2, 2), 8), ((2, 3, 4), 5), ((2,) * 5, 32)]
)
def test_ginibre_stack_rows_equal_per_seed_formula(dims, rank):
    stack = sample_ginibre_stack(dims, rank, range(40, 56))
    assert stack.shape == (16,) + (math.prod(dims),) * 2
    for mat, seed in zip(stack, range(40, 56)):
        assert mat.tobytes() == ginibre_by_seed(dims, rank, seed).tobytes()


def test_ginibre_row_does_not_depend_on_its_neighbours():
    alone = sample_ginibre_mixed((2, 2, 2), 3, 7).mat.tobytes()
    for seeds in ([7], [7, 8, 9], [0, 7], [5, 6, 1, 2, 7], [7] * 4):
        stack = sample_ginibre_stack((2, 2, 2), 3, seeds)
        for mat, seed in zip(stack, seeds):
            assert (mat.tobytes() == alone) == (seed == 7)
    assert sample_ginibre_stack((2, 2, 2), 3, []).shape == (0, 8, 8)


def test_ginibre_checks_rank_before_seed():
    with pytest.raises(ValueError, match="^rank must be in 1..8, got 9$"):
        sample_ginibre_mixed((2, 2, 2), 9, -1)
    with pytest.raises(ValueError, match="^rank must be an integer, got 2.0$"):
        sample_ginibre_mixed((2, 2, 2), 2.0, "1")


SEED_ENTRY_POINTS = {
    "sample_haar_pure": lambda s: sample_haar_pure((2, 2), s),
    "sample_ginibre_mixed": lambda s: sample_ginibre_mixed((2, 2), 2, s),
    # no trials: the seed is checked before any work
    "ensemble_reports": lambda s: ensemble_reports((2, 2), 0, s),
    "minimize_slack": lambda s: minimize_slack("cor1-m1", (2, 2), 1, s, iterations=2, rounds=1),
}


@pytest.mark.parametrize("seed", [-1, True, 1.0, "1"])
@pytest.mark.parametrize("entry", list(SEED_ENTRY_POINTS))
def test_every_seed_entry_point_rejects_bad_seed(entry, seed):
    with pytest.raises(ValueError) as exc:
        SEED_ENTRY_POINTS[entry](seed)
    assert str(exc.value) == f"seed must be a non-negative integer, got {seed!r}"
    SEED_ENTRY_POINTS[entry](np.int64(2**40))  # while a large numpy integer is a seed


COUNT_ENTRY_POINTS = {
    "trials": lambda n: ensemble_reports((2, 2, 2), n, 0),
    "restarts": lambda n: minimize_slack("thm1", (2, 2, 2), n, 0, iterations=2, rounds=1),
    "iterations": lambda n: minimize_slack("thm1", (2, 2, 2), 1, 0, iterations=n, rounds=1),
    "rounds": lambda n: minimize_slack("thm1", (2, 2, 2), 1, 0, iterations=2, rounds=n),
    "points": lambda n: default_grid("ghz", n),
}


@pytest.mark.parametrize("value", [True, 2.0, 2.5, math.nan])
@pytest.mark.parametrize("name", list(COUNT_ENTRY_POINTS))
def test_every_count_argument_must_be_an_integer(name, value):
    with pytest.raises(ValueError) as exc:
        COUNT_ENTRY_POINTS[name](value)
    assert str(exc.value) == f"{name} must be an integer, got {value!r}"
    COUNT_ENTRY_POINTS[name](np.int64(2))  # while a numpy integer is a count
