"""l1-norm coherence of full states and reductions, plus residual slack terms."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable

import numpy as np

from .states import DensityOperator, LocalDims, SubsystemSet, _as_subsystem, partial_trace
from .states import _reduction_plan, _require_three_qubits

EPS_INEQ = 1e-9


def l1_coherence(rho: DensityOperator) -> float:
    """Sum of the absolute values of all off-diagonal entries."""
    return _l1_sum(rho.mat)


def _l1_sum(mat: np.ndarray) -> float:
    """:func:`l1_coherence` of a bare square matrix."""
    off = np.abs(mat)
    # off is freshly allocated in mat's C or F order, so its memory-order
    # ravel is a view in which every diagonal entry is d + 1 after the last
    off.ravel(order="K")[:: len(off) + 1] = 0.0
    return float(off.sum())


def l1_coherence_stack(mats: np.ndarray) -> np.ndarray:
    """:func:`l1_coherence` of every matrix of a ``(B, d, d)`` stack.

    Each matrix is summed in the order of a lone C-contiguous one, so the
    results are bit-identical to the per-state ones.
    """
    b, d, _ = mats.shape
    off = np.abs(np.ascontiguousarray(mats))
    off.reshape(b, d * d)[:, :: d + 1] = 0.0  # a view, since off is C-contiguous
    return off.sum(axis=(1, 2))


def subset_coherence(rho: DensityOperator, parties: "SubsystemSet | Iterable[int]") -> float:
    """Coherence of the reduced state on ``parties``."""
    parties = _as_subsystem(parties)
    if len(parties) == rho.dims.n_parties:
        return l1_coherence(rho)
    return l1_coherence(partial_trace(rho, parties))


@lru_cache(maxsize=None)
def gamma(m: int, n: int) -> tuple[SubsystemSet, ...]:
    """All size-m subsets of n party labels, in lexicographic order."""
    # cached: every suite walks the same families, and building their
    # SubsystemSets per state cost 5-10% of a mixed-state suite
    if not 1 <= m <= n:
        raise ValueError(f"subset size m={m} out of range 1..{n}")
    return tuple(SubsystemSet(c) for c in combinations(range(1, n + 1), m))


@lru_cache(maxsize=None)
def stack_subsets(n: int) -> tuple[SubsystemSet, ...]:
    """Row order of :func:`coherence_stack`: sizes 1..n in turn, each as :func:`gamma` lists it."""
    return tuple(s for m in range(1, n + 1) for s in gamma(m, n))


def coherence_stack(dims: LocalDims, rho: np.ndarray) -> np.ndarray:
    """l1 coherence of every reduction of each matrix in a ``(B, D, D)`` stack, ``(2^n - 1, B)``.

    Row i is subset ``stack_subsets(n)[i]``, so the last row is the full
    coherence.  Every entry is bit-identical to :func:`subset_coherence` on
    that matrix alone.
    """
    tensor = rho.reshape((len(rho),) + dims.dims + dims.dims)
    rows = []
    for subset in stack_subsets(dims.n_parties)[:-1]:
        # partial_trace's einsum behind a batch axis: the traced indices
        # are summed in the same order, so each matrix reduces as alone
        subscripts, out, kept_dims = _reduction_plan(dims, subset)
        reduced = np.einsum(tensor, [Ellipsis, *subscripts], [Ellipsis, *out])
        d = kept_dims.total_dim
        rows.append(l1_coherence_stack(reduced.reshape(len(rho), d, d)))
    rows.append(l1_coherence_stack(rho))
    return np.stack(rows)


# Weights of the three-qubit residuals: entry (r, c) pairs the basis labels
# r and c (binary i1 i2 i3) and weighs their Hamming distance minus one, so
# labels differing in two parties enter once and in all three parties twice.
RESIDUAL_WEIGHTS = np.array(
    [[max(0, (r ^ c).bit_count() - 1) for c in range(8)] for r in range(8)], dtype=float
)
RESIDUAL_WEIGHTS.setflags(write=False)


def theorem1_slack_D(rho: DensityOperator) -> float:
    """Residual D of the half-sum bound: 2*C123 - (C12+C13+C23) >= D >= 0."""
    _require_three_qubits(rho.dims)
    return float((RESIDUAL_WEIGHTS * np.abs(rho.mat)).sum())
