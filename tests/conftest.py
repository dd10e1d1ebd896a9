import math
from itertools import combinations

import numpy as np
import pytest

from cohtrade import (
    CSV_HEADER,
    DensityOperator,
    InequalityResult,
    LocalDims,
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


def paper_rhs(rho, psi=None):
    """Every applicable bound's right-hand side, written out from the paper."""

    def c(*parties):
        return subset_coherence(rho, parties)

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
