"""Seeded random ensembles, evaluated on stacks of trials.

:func:`ensemble_reports` samples trial t from seed ``seed + t``, exactly as
``sample_haar_pure`` and ``sample_ginibre_mixed`` do, stacks the trials of a
chunk and evaluates every bound of :func:`inequalities.bounds` on the whole
stack at once.  Every lhs, rhs and slack is bit-identical to
:func:`run_suite` on the trial's own state: the stacked partial traces and
l1 sums add in the same order as the per-state ones, and the stacked
three-tangle rounds as the scalar one does.  ``run_suite`` stays the
per-state path and the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .coherence import EPS_INEQ, gamma, l1_coherence_stack
from .inequalities import bounds, suite_names
from .states import (
    LocalDims,
    _as_dims,
    _reduction_plan,
    sample_ginibre_mixed,
    sample_haar_stack,
    validate_stack,
)
from .tangle import three_tangle_stack

#: Matrix entries per stacked chunk (16 B each): at most ``CHUNK_ENTRIES // D^2``
#: trials are held at once, so memory does not grow with the number of trials.
CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class TrialReport:
    """Per-verifier aggregate over a random ensemble."""

    name: str
    trials: int
    violations: int
    min_slack: float
    argmin_seed: int
    tolerance: float


def coherence_stack(dims: LocalDims, rho: np.ndarray) -> np.ndarray:
    """l1 coherence of every reduction of each matrix in a ``(B, D, D)`` stack, ``(2^n - 1, B)``.

    Row i holds subset i of the sizes 1..n in turn, each size in
    lexicographic order (the order of :func:`gamma`), so the last row is the
    full coherence.
    """
    n = dims.n_parties
    tensor = rho.reshape((len(rho),) + dims.dims + dims.dims)
    rows = []
    for m in range(1, n):
        for subset in gamma(m, n).members:
            # partial_trace's einsum behind a batch axis: the traced indices
            # are summed in the same order, so each matrix reduces as alone
            subscripts, out, kept_dims = _reduction_plan(dims, subset)
            reduced = np.einsum(tensor, [Ellipsis, *subscripts], [Ellipsis, *out])
            d = kept_dims.total_dim
            rows.append(l1_coherence_stack(reduced.reshape(len(rho), d, d)))
    rows.append(l1_coherence_stack(rho))
    return np.stack(rows)


@lru_cache(maxsize=None)
def _fold_plan(dims: LocalDims, pure: bool):
    """The bound table as arrays over the rows of :func:`coherence_stack`.

    ``Bound.rhs`` folds a bound's subset coherences left to right, divides
    once and adds tau for the tangle bounds.  Here the fold runs for every
    bound at once as one cumulative sum along each bound's row indices
    (padded to a common width), read at the bound's own length.
    """
    table = bounds(dims, pure)
    n = dims.n_parties
    row = {s: i for i, s in enumerate(s for m in range(1, n + 1) for s in gamma(m, n).members)}
    width = max(len(b.subsets) for b in table)
    index = np.array([[row[s] for s in b.subsets] + [0] * (width - len(b.subsets)) for b in table])
    last = (np.arange(len(table)), np.array([len(b.subsets) - 1 for b in table]))
    divisor = np.array([[float(b.divisor)] for b in table])
    tangle = np.array([k for k, b in enumerate(table) if b.tangle], dtype=np.intp)
    return index, last, divisor, tangle


def suite_stack(
    dims: "LocalDims | Sequence[int]", states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every bound of :func:`bounds` on a stack of states: lhs ``(B,)`` and rhs ``(K, B)``.

    ``states`` holds amplitude rows ``(B, D)`` of pure states, taken as
    checked (:func:`sample_haar_stack` checks every row, as ``PureState``
    checks its amplitudes), or density matrices ``(B, D, D)``, which are
    validated first, as :func:`run_suite` validates a ``DensityOperator``.
    Row k of rhs is bound k of ``bounds(dims, pure)``; the slack of bound k
    on trial b is ``lhs[b] - rhs[k, b]``.
    """
    dims = _as_dims(dims)
    states = np.ascontiguousarray(states, dtype=np.complex128)
    pure = states.ndim == 2
    if pure:
        rho = states[:, :, None] * states.conj()[:, None, :]
    else:
        validate_stack(dims, states)
        rho = states
    index, last, divisor, tangle = _fold_plan(dims, pure)
    coherence = coherence_stack(dims, rho)
    rhs = np.add.accumulate(coherence[index], axis=1)[last] / divisor
    if tangle.size:
        rhs[tangle] += three_tangle_stack(states)
    return coherence[-1], rhs


def ensemble_reports(
    dims: "LocalDims | Sequence[int]",
    trials: int,
    seed: int,
    mixed: bool = False,
    rank: int | None = None,
    tolerance: float = EPS_INEQ,
) -> list[TrialReport]:
    """Run the bound table on ``trials`` sampled states; trial t uses seed + t.

    Haar states are sampled as a stack; Ginibre states (full rank unless
    ``rank`` is given) one by one, then stacked.  Each report counts the
    trials whose slack is below ``-tolerance`` and keeps the first trial
    with the smallest slack.
    """
    dims = _as_dims(dims)
    d = dims.total_dim
    chunk = max(1, CHUNK_ENTRIES // (d * d))
    names = suite_names(dims, not mixed) if trials > 0 else []
    bound_rows = np.arange(len(names))
    violations = np.zeros(len(names), dtype=np.int64)
    min_slack = np.full(len(names), np.inf)
    argmin_seed = [seed] * len(names)
    rank = d if rank is None else rank
    for start in range(seed, seed + trials, chunk):
        seeds = range(start, min(start + chunk, seed + trials))
        if mixed:
            states = np.stack([sample_ginibre_mixed(dims, rank, s).mat for s in seeds])
        else:
            states = sample_haar_stack(dims, seeds)
        lhs, rhs = suite_stack(dims, states)
        slack = lhs - rhs
        violations += len(seeds) - np.count_nonzero(slack >= -tolerance, axis=1)
        first = slack.argmin(axis=1)  # the first trial at the minimum, as a strict < scan keeps
        low = slack[bound_rows, first]
        for k in (low < min_slack).nonzero()[0]:
            min_slack[k] = low[k]
            argmin_seed[k] = start + int(first[k])
    return [
        TrialReport(name, trials, int(v), float(s), a, tolerance)
        for name, v, s, a in zip(names, violations, min_slack, argmin_seed)
    ]
