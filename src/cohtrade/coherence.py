"""l1-norm coherence of full states and reductions, plus residual slack terms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .states import (
    DensityOperator,
    LocalDims,
    SubsystemSet,
    _as_subsystem,
    partial_trace,
)

EPS_INEQ = 1e-9


def l1_coherence(rho: DensityOperator) -> float:
    """Sum of the absolute values of all off-diagonal entries."""
    off = np.abs(rho.mat)
    np.fill_diagonal(off, 0.0)
    return float(off.sum())


def subset_coherence(rho: DensityOperator, parties: "SubsystemSet | Iterable[int]") -> float:
    """Coherence of the reduced state on ``parties``."""
    parties = _as_subsystem(parties)
    if len(parties) == rho.dims.n_parties:
        return l1_coherence(rho)
    return l1_coherence(partial_trace(rho, parties))


@dataclass(frozen=True)
class SubsetFamily:
    """All size-m subsets of n party labels, in lexicographic order."""

    m: int
    n: int
    members: tuple[SubsystemSet, ...]


@lru_cache(maxsize=None)
def gamma(m: int, n: int) -> SubsetFamily:
    # cached: every suite walks the same families, and building their
    # SubsystemSets per state cost 5-10% of a mixed-state suite
    if not 1 <= m <= n:
        raise ValueError(f"subset size m={m} out of range 1..{n}")
    members = tuple(SubsystemSet(c) for c in combinations(range(1, n + 1), m))
    return SubsetFamily(m, n, members)


@dataclass(frozen=True, eq=False)
class CoherenceProfile:
    """Coherence of every requested reduction, keyed by subsystem."""

    dims: LocalDims
    by_subset: Mapping[SubsystemSet, float]

    def value(self, parties: "SubsystemSet | Iterable[int]") -> float:
        return self.by_subset[_as_subsystem(parties)]

    def sum_over_size(self, m: int) -> float:
        return sum(v for s, v in self.by_subset.items() if len(s) == m)


def coherence_profile(
    rho: DensityOperator, sizes: Sequence[int] | None = None
) -> CoherenceProfile:
    """Compute C_a for every subset a of each requested size (default: all sizes)."""
    n = rho.dims.n_parties
    if sizes is None:
        sizes = range(1, n + 1)
    by_subset: dict[SubsystemSet, float] = {}
    for m in sizes:
        for subset in gamma(m, n).members:
            by_subset[subset] = subset_coherence(rho, subset)
    return CoherenceProfile(rho.dims, by_subset)


# Weights of the three-qubit residuals: entry (r, c) pairs the basis labels
# r and c (binary i1 i2 i3) and weighs their Hamming distance minus one, so
# labels differing in two parties enter once and in all three parties twice.
RESIDUAL_WEIGHTS = np.array(
    [[max(0, (r ^ c).bit_count() - 1) for c in range(8)] for r in range(8)], dtype=float
)
RESIDUAL_WEIGHTS.setflags(write=False)

#: (row, col, weight) for every |rho[row, col]| entering the half-sum residual D.
THEOREM1_D_TERMS: tuple[tuple[int, int, int], ...] = tuple(
    (r, c, int(w)) for (r, c), w in np.ndenumerate(RESIDUAL_WEIGHTS) if w
)


def theorem1_slack_D(rho: DensityOperator) -> float:
    """Residual D of the half-sum bound: 2*C123 - (C12+C13+C23) >= D >= 0."""
    if rho.dims.dims != (2, 2, 2):
        raise ValueError(f"three-qubit state required, got dims {rho.dims.dims}")
    return float((RESIDUAL_WEIGHTS * np.abs(rho.mat)).sum())


def correlated_coherence(rho: DensityOperator) -> float:
    """Bipartite coherence minus both marginal coherences; expected nonnegative."""
    if rho.dims.n_parties != 2:
        raise ValueError(f"bipartite state required, got {rho.dims.n_parties} parties")
    c_full = l1_coherence(rho)
    c_a = l1_coherence(partial_trace(rho, (1,)))
    c_b = l1_coherence(partial_trace(rho, (2,)))
    return c_full - c_a - c_b
