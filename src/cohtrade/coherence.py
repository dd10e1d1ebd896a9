"""l1-norm coherence of full states and reductions; each bound's residual is ``Bound.residual``."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

from .states import DensityOperator, LocalDims, SubsystemSet, _as_dims, _is_integer
from .states import _reduce, check_stack, partial_trace

EPS_INEQ = 1e-9


def l1_coherence(rho: DensityOperator) -> float:
    """Sum of the absolute values of all off-diagonal entries: a one-row l1_coherence_stack."""
    return l1_coherence_stack(rho.mat[None]).item()


def l1_coherence_stack(mats: np.ndarray) -> np.ndarray:
    """:func:`l1_coherence` of every matrix of a ``(..., d, d)`` stack, shaped ``(...)``.

    Each matrix is summed in the order of a lone C-contiguous one, so the
    results are bit-identical to the per-state ones.
    """
    d = mats.shape[-1]
    off = np.abs(np.ascontiguousarray(mats).reshape(mats.shape[:-2] + (d * d,)))
    off[..., :: d + 1] = 0.0
    return np.add.reduce(off, axis=-1)


def subset_coherence(rho: DensityOperator, parties: "SubsystemSet | Iterable[int]") -> float:
    """Coherence of the reduced state on ``parties``; all parties give :func:`l1_coherence`."""
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


#: Pure states of this total dimension and up are reduced from their
#: amplitudes (:func:`_amplitude_coherence_stack`); smaller ones, like every
#: mixed state, from their density matrix, so that below it every result
#: keeps the per-state primitives' bits: the three-qubit acceptance gates,
#: the sweeps and the search goldens all run there.  ``chunk_states`` counts
#: D entries for a pure state of this dimension and up, not D^2.
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


def _amplitude_coherence_stack(
    dims: LocalDims, amps: np.ndarray, rows: "tuple[int, ...] | None"
) -> np.ndarray:
    """:func:`coherence_stack` of the amplitude rows ``amps`` ``(B, D)``, with no ``D x D`` matrix.

    For the pair (S, S^c), P is the amplitude tensor with S's parties first,
    reshaped to ``(d_S, D / d_S)``: then ``rho_S = P P^dag``, and ``P^dag P``
    is the conjugate of ``rho_{S^c}``, with the same l1 sum, so one gather
    serves both.  The full coherence is ``(sum |a|)^2 - sum |a|^2``, which
    also holds for rows whose squared norm is within ``EPS_NORM`` of 1 but
    not 1.  These sums run in another order than the density route's.
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
                    out[members, block] = l1_coherence_stack(left @ right).T
    if rows is None or len(out) - 1 in rows:
        modulus = np.abs(amps)
        out[-1] = modulus.sum(axis=1) ** 2 - np.vecdot(modulus, modulus)
    return out if rows is None else out[list(rows)]


def coherence_stack(dims: "LocalDims | Sequence[int]", states: np.ndarray) -> np.ndarray:
    """l1 coherence of every reduction of each state of a stack, ``(2^n - 1, B)``: the one kernel.

    ``states`` holds amplitude rows ``(B, D)`` or density matrices ``(B, D, D)``,
    unchecked; any other shape raises ``InvalidStateError`` naming both shapes.
    Row i is subset ``stack_subsets(n)[i]``, the last row the full coherence.
    """
    dims, states = _as_dims(dims), np.asarray(states)
    check_stack(states, (dims.total_dim,), (dims.total_dim,) * 2)
    return _coherence_rows(dims, states, None)


@lru_cache(maxsize=None)
def _row_keeps(n: int, rows: "tuple[int, ...] | None") -> tuple[tuple[int, ...], ...]:
    """The parties of each of :func:`coherence_stack`'s ``rows`` (all if None), in that order."""
    subsets = stack_subsets(n)
    return tuple(subsets[r].parties for r in (range(len(subsets)) if rows is None else rows))


def _coherence_rows(
    dims: LocalDims, states: np.ndarray, rows: "tuple[int, ...] | None"
) -> np.ndarray:
    """:func:`coherence_stack`'s ``rows`` (all if None), in that order: ``(len(rows), B)``.

    Only here is a route picked: pure rows with ``D >= AMPLITUDE_MIN_DIM`` are
    reduced from their amplitudes, to roundoff of the density route; every
    other state from its density matrix (a pure row from its projector) by
    ``states._reduce``, bit for bit as :func:`subset_coherence` on that
    matrix alone.  Each block of states and batch of subsets that it
    gathers together takes one ``abs`` and one l1 sum.  A state's rows
    depend neither on the rest of the stack nor on ``rows``.
    """
    if states.ndim == 2 and dims.total_dim >= AMPLITUDE_MIN_DIM:
        return _amplitude_coherence_stack(dims, states, rows)
    keeps = _row_keeps(dims.n_parties, rows)
    out = np.empty((len(keeps), len(states)))
    for members, block, reduced in _reduce(dims, states, keeps):
        out[members, block] = l1_coherence_stack(reduced).T
    return out
