"""l1-norm coherence of full states and reductions, plus residual slack terms."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Iterable

import numpy as np

from .states import DensityOperator, LocalDims, SubsystemSet, _as_subsystem, _is_integer
from .states import _reduction_plan, _require_three_qubits, partial_trace

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


@lru_cache(maxsize=None, typed=True)
def gamma(m: int, n: int) -> tuple[SubsystemSet, ...]:
    """All size-m subsets of n party labels, in lexicographic order."""
    # cached: every suite walks the same families, and building their
    # SubsystemSets per state cost 5-10% of a mixed-state suite; typed, so
    # that True and 2.0 are checked rather than served as 1 and 2
    if not _is_integer(m):
        raise ValueError(f"subset size m must be an integer, got {m!r}")
    if not 1 <= m <= n:
        raise ValueError(f"subset size m={m} out of range 1..{n}")
    return tuple(SubsystemSet(c) for c in combinations(range(1, n + 1), m))


@lru_cache(maxsize=None)
def stack_subsets(n: int) -> tuple[SubsystemSet, ...]:
    """Row order of :func:`coherence_stack`: sizes 1..n in turn, each as :func:`gamma` lists it."""
    return tuple(s for m in range(1, n + 1) for s in gamma(m, n))


@lru_cache(maxsize=None)
def stack_rows(n: int) -> MappingProxyType:
    """The :func:`coherence_stack` row of each subset of n parties: the one subset-to-row map."""
    return MappingProxyType({s: i for i, s in enumerate(stack_subsets(n))})


def coherence_stack(dims: LocalDims, rho: np.ndarray) -> np.ndarray:
    """l1 coherence of every reduction of each matrix in a ``(B, D, D)`` stack, ``(2^n - 1, B)``.

    Row i is subset ``stack_subsets(n)[i]``, so the last row is the full
    coherence.  Every entry is bit-identical to :func:`subset_coherence` on
    that matrix alone.  This is the density route; pure states with
    ``D >= AMPLITUDE_MIN_DIM`` are reduced by :func:`amplitude_coherence_stack`
    instead, whose rows agree with these to roundoff only.
    """
    tensor = rho.reshape((len(rho),) + dims.dims + dims.dims)
    rows = []
    for subset in stack_subsets(dims.n_parties)[:-1]:
        # partial_trace's einsum behind a batch axis: the traced indices
        # are summed in the same order, so each matrix reduces as alone
        subscripts, out, _, d = _reduction_plan(dims, subset)
        reduced = np.einsum(tensor, [Ellipsis, *subscripts], [Ellipsis, *out])
        rows.append(l1_coherence_stack(reduced.reshape(len(rho), d, d)))
    rows.append(l1_coherence_stack(rho))
    return np.stack(rows)


#: Pure states of this total dimension and up are reduced from their
#: amplitudes (:func:`amplitude_coherence_stack`); smaller ones, like every
#: mixed state, from their density matrix, so that below it every result
#: keeps the per-state primitives' bits: the three-qubit acceptance gates,
#: the sweeps and the search goldens all run there.
AMPLITUDE_MIN_DIM = 32

#: Gram-matrix entries that one batch of subset pairs and states may hold
#: (256 KiB): larger batches run slower, out of cache.  A pair that alone
#: exceeds it is reduced one state at a time.
GRAM_ENTRIES = 1 << 14


@lru_cache(maxsize=None)
def _amplitude_plan(dims: LocalDims, rows: "tuple[int, ...] | None") -> tuple:
    """The subset pairs (S, S^c) that hold ``rows`` (all if None), batched by shape.

    A pair is listed once, under the member that :func:`stack_subsets` lists
    first, so each member is always reduced by the same arithmetic.  Each
    batch is ``(index, d, first, second)``: row g of ``index`` gathers the
    flat amplitudes of pair g with the first member's parties ahead, ``d``
    is the first members' dimension, and ``first``/``second`` are the two
    members' rows, or empty when ``rows`` holds none of them.
    """
    n, total = dims.n_parties, dims.total_dim
    subsets = stack_subsets(n)
    row = stack_rows(n)
    wanted = set(range(len(subsets)) if rows is None else rows)
    flat = np.arange(total).reshape(dims.dims)
    pairs: dict[int, list] = {}
    for first in subsets[:-1]:
        second = SubsystemSet(tuple(p for p in range(1, n + 1) if p not in first.parties))
        if row[second] > row[first] and {row[first], row[second]} & wanted:
            axes = [p - 1 for p in (*first, *second)]
            d = math.prod(dims[p - 1] for p in first)
            pairs.setdefault(d, []).append((flat.transpose(axes).ravel(), row[first], row[second]))
    plan = []
    for d, members in pairs.items():
        size = max(1, GRAM_ENTRIES // (d * d + (total // d) ** 2))
        for start in range(0, len(members), size):
            index, *sides = zip(*members[start : start + size])
            first, second = (list(side) if wanted.intersection(side) else [] for side in sides)
            plan.append((np.stack(index), d, first, second))
    return tuple(plan)


def amplitude_coherence_stack(
    dims: LocalDims, amps: np.ndarray, rows: "tuple[int, ...] | None" = None
) -> np.ndarray:
    """:func:`coherence_stack` of the pure states with amplitude rows ``amps`` ``(B, D)``.

    Given ``rows``, only those rows are computed and returned, ``(len(rows), B)``.
    No ``D x D`` matrix is formed.  For the pair (S, S^c), P is the amplitude
    tensor with S's parties first, reshaped to ``(d_S, D / d_S)``: then
    ``rho_S = P P^dag``, and ``P^dag P`` is the conjugate of ``rho_{S^c}``,
    with the same l1 sum, so one gather serves both.  The full coherence is
    ``(sum |a|)^2 - sum |a|^2``, which also holds for rows whose squared norm
    is within ``EPS_NORM`` of 1 but not 1.  The sums are taken in another
    order than the density route's, so rows agree with :func:`coherence_stack`
    to roundoff, not bit for bit.  A state's rows depend neither on the other
    states of the stack nor on ``rows``.
    """
    b, total = amps.shape
    out = np.empty((2**dims.n_parties - 1, b))
    for index, d, first, second in _amplitude_plan(dims, rows):
        step = max(1, GRAM_ENTRIES // (len(index) * (d * d + (total // d) ** 2)))
        for start in range(0, b, step):
            block = slice(start, start + step)
            p = amps[block, index].reshape(-1, len(index), d, total // d)
            p_dag = p.conj().swapaxes(2, 3)
            for members, left, right in ((first, p, p_dag), (second, p_dag, p)):
                if members:
                    gram = left @ right
                    k = gram.shape[-1]
                    l1 = l1_coherence_stack(gram.reshape(-1, k, k))
                    out[members, block] = l1.reshape(len(p), -1).T
    if rows is None or len(out) - 1 in rows:
        modulus = np.abs(amps)
        out[-1] = modulus.sum(axis=1) ** 2 - np.vecdot(modulus, modulus)
    return out if rows is None else out[list(rows)]


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
