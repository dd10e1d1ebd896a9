import math
from itertools import combinations

import numpy as np
import pytest

from cohtrade import (
    AMPLITUDE_MIN_DIM,
    CSV_HEADER,
    DensityOperator,
    InequalityResult,
    LocalDims,
    PureState,
    bounds,
    density_from_pure,
    l1_coherence,
    partial_trace,
    sample_ginibre_mixed,
    sample_haar_pure,
    subset_coherence,
    three_tangle,
)


@pytest.fixture(scope="session")
def haar_three_qubit():
    """Small shared ensemble of Haar pure three-qubit states."""
    return [sample_haar_pure((2, 2, 2), seed) for seed in range(200)]


@pytest.fixture(scope="session")
def ginibre_three_qubit():
    """Small shared ensemble of mixed three-qubit states of assorted ranks."""
    return [sample_ginibre_mixed((2, 2, 2), 1 + seed % 8, 10_000 + seed) for seed in range(200)]


def complex_normals(rng: np.random.Generator, size) -> np.ndarray:
    """Standard complex Gaussians from one generator via Box-Muller: all of u1, then all of u2.

    The per-seed reference of the stacked samplers: row t of a stack drawn
    from seeds must equal this on ``np.random.default_rng(seeds[t])``.
    """
    u1 = rng.random(size)
    u2 = rng.random(size)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.exp(2j * np.pi * u2)


#: sigma_y x sigma_y, whose entries are 0 and +-1, as a real matrix.
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SYSY = np.kron(SIGMA_Y, SIGMA_Y).real


def reference_concurrence(rho: DensityOperator) -> float:
    """Two-qubit concurrence of one state, by one ``eigh`` and one ``svd``.

    The per-state reference of ``tangle.concurrence_stack``: the l_i are the
    singular values of Psi^T (sigma_y x sigma_y) Psi for rho = Psi Psi^dag.
    """
    w, v = np.linalg.eigh(rho.mat)
    psi = v * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(psi.T @ SYSY @ psi, compute_uv=False)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def reference_ckw_tangle(psi: PureState) -> float:
    """Tangle via the monogamy identity 4 det(rho_A) - C(rho_AB)^2 - C(rho_AC)^2, per state.

    The per-state reference of ``tangle.ckw_tangle_oracle_stack``.
    """
    rho = density_from_pure(psi)
    rho_a = partial_trace(rho, (1,)).mat
    det_a = (rho_a[0, 0] * rho_a[1, 1] - rho_a[0, 1] * rho_a[1, 0]).real
    c_ab = reference_concurrence(partial_trace(rho, (1, 2)))
    c_ac = reference_concurrence(partial_trace(rho, (1, 3)))
    return max(0.0, 4.0 * det_a - c_ab**2 - c_ac**2)


def table_bound(name, dims=(2, 2, 2), pure=False):
    """The entry ``name`` of the bound table at ``dims`` and purity."""
    (bound,) = [b for b in bounds(dims, pure) if b.name == name]
    return bound


def proved(dims, pure):
    """``Bound.proved`` of each entry of the bound table at ``dims`` and purity, by name."""
    return {b.name: b.proved for b in bounds(dims, pure)}


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def kron(a, b):
    """Tensor product of two density operators; ``a``'s parties come first."""
    return DensityOperator(LocalDims(a.dims.dims + b.dims.dims), np.kron(a.mat, b.mat))


def read_results_csv(fh):
    """The result rows of a ``CSV_HEADER`` file, as written by ``write_results_csv``."""
    assert fh.readline().rstrip("\n") == CSV_HEADER
    results = []
    for line in fh:
        name, lhs, rhs, slack, holds, tol = line.rstrip("\n").split(",")
        assert holds in ("true", "false")
        results.append(
            InequalityResult(name, float(lhs), float(rhs), float(slack), holds == "true", float(tol))
        )
    return results


def amplitude_coherence(psi, parties):
    """Coherence of the reduction of the pure state ``psi`` to ``parties``, from its amplitudes.

    The pair (S, S^c) is reshaped with the member that ``stack_subsets``
    lists first (the smaller, or at equal size the one holding party 1)
    ahead, to P of shape ``(d_first, D / d_first)``: the first member's
    reduction is ``P P^dag``, and ``P^dag P`` is the conjugate of the
    second's.  The full set's coherence is ``(sum |a|)^2 - sum |a|^2``.
    """
    dims, n = psi.dims.dims, psi.dims.n_parties
    parties = tuple(parties)
    if len(parties) == n:
        modulus = np.abs(psi.amps)
        return float(modulus.sum() ** 2 - modulus @ modulus)
    rest = tuple(p for p in range(1, n + 1) if p not in parties)
    first, second = sorted((parties, rest), key=lambda s: (len(s), s))
    tensor = psi.amps.reshape(dims).transpose([p - 1 for p in first + second])
    p = tensor.reshape(math.prod(dims[p - 1] for p in first), -1)
    gram = p @ p.conj().T if parties == first else p.conj().T @ p
    off = np.abs(gram)
    np.fill_diagonal(off, 0.0)
    return float(off.sum())


def paper_rhs(rho, psi=None, coherence=None):
    """Every applicable bound's right-hand side, written out from the paper.

    ``coherence(parties)`` gives the coherence of a reduction; by default
    ``subset_coherence`` on ``rho``.
    """

    def c(*parties):
        return coherence(parties) if coherence else subset_coherence(rho, parties)

    dims, n = rho.dims, rho.dims.n_parties
    rhs = {}
    if dims.dims == (2, 2, 2):
        rhs["thm1"] = (c(1, 2) + c(1, 3) + c(2, 3)) / 2
        rhs["eq3"] = c(1) + c(2) + c(3)
        rhs["eq4-pivot1"] = c(1, 2) + c(1, 3)
        rhs["eq4-pivot2"] = c(1, 2) + c(2, 3)
        rhs["eq4-pivot3"] = c(1, 3) + c(2, 3)
        rhs["eq5-single1"] = c(1) + c(2, 3)
        rhs["eq5-single2"] = c(2) + c(1, 3)
        rhs["eq5-single3"] = c(3) + c(1, 2)
    for m in range(1, n + 1):
        total = 0.0
        for subset in combinations(range(1, n + 1), m):
            total += c(*subset)
        rhs[f"cor{1 if dims.all_qubits else 2}-m{m}"] = total / math.comb(n - 1, m - 1)
    if psi is not None and dims.dims == (2, 2, 2):
        tau = three_tangle(psi)
        rhs["thm3"] = (c(1, 2) + c(1, 3) + c(2, 3)) / 2 + tau
        rhs["eq10"] = c(1) + c(2) + c(3) + tau
    return rhs


#: How far the two routes' lhs and rhs may differ, relative to the larger.
ROUTE_RTOL = 1e-12


def assert_close(x, y, what):
    assert abs(x - y) <= ROUTE_RTOL * max(abs(x), abs(y)), f"{what}: {x!r} vs {y!r}"


def route_slacks(state):
    """(name, lhs, rhs, slack) of every bound, on the route ``suite_stack`` takes for ``state``.

    A pure state with ``D >= AMPLITUDE_MIN_DIM`` is reduced from its
    amplitudes (``amplitude_coherence``), and then every lhs and rhs must
    also agree with the density route's within ``ROUTE_RTOL``.  Any other
    state is reduced from its density matrix.
    """
    pure = state if isinstance(state, PureState) else None
    density = state if pure is None else density_from_pure(state)
    lhs, rhs = l1_coherence(density), paper_rhs(density, pure)
    if pure is not None and pure.dims.total_dim >= AMPLITUDE_MIN_DIM:
        density_lhs, density_rhs = lhs, rhs
        lhs = amplitude_coherence(pure, range(1, pure.dims.n_parties + 1))
        rhs = paper_rhs(density, pure, lambda parties: amplitude_coherence(pure, parties))
        assert_close(lhs, density_lhs, "lhs")
        for name, value in rhs.items():
            assert_close(value, density_rhs[name], name)
    return [(name, lhs, value, lhs - value) for name, value in rhs.items()]
