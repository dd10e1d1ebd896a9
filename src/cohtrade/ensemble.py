"""Seeded random ensembles, evaluated on stacks of trials.

:func:`ensemble_reports` samples trial t from seed ``seed + t``, exactly as
``sample_haar_pure`` and ``sample_ginibre_mixed`` do, a chunk of at most
``CHUNK_ENTRIES`` entries at a time, and evaluates each chunk as
:func:`inequalities.suite_stack` does, without checking the states again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coherence import EPS_INEQ
from .inequalities import _evaluate_stack, check_tolerance, chunk_states, suite_names
from .states import LocalDims, _as_dims, check_count, check_rank, check_seed
from .states import sample_ginibre_stack, sample_haar_stack


@dataclass(frozen=True)
class TrialReport:
    """Per-verifier aggregate over a random ensemble."""

    name: str
    trials: int
    violations: int
    min_slack: float
    argmin_seed: int
    tolerance: float


def ensemble_reports(
    dims: "LocalDims | Sequence[int]",
    trials: int,
    seed: int,
    mixed: bool = False,
    rank: int | None = None,
    tolerance: float = EPS_INEQ,
) -> list[TrialReport]:
    """Run the bound table on ``trials`` sampled states; trial t uses seed + t.

    Haar and Ginibre states (full rank unless ``rank`` is given) are
    sampled a chunk at a time, as stacks.  Each report counts the
    trials whose slack is below ``-tolerance`` and keeps the first trial
    with the smallest slack.
    """
    check_count("trials", trials, 0)
    if rank is not None and not mixed:
        raise ValueError(f"rank applies to mixed ensembles only, got rank={rank!r}")
    tolerance = check_tolerance(tolerance)
    seed = int(check_seed(seed))  # also when there are no trials to sample
    dims = _as_dims(dims)
    rank = dims.total_dim if rank is None else rank
    check_rank(dims, rank)  # also when there are no trials to sample
    chunk = chunk_states(dims, not mixed)
    names = suite_names(dims, not mixed) if trials > 0 else []
    bound_rows = np.arange(len(names))
    violations = np.zeros(len(names), dtype=np.int64)
    min_slack = np.full(len(names), np.inf)
    argmin = np.zeros(len(names), dtype=np.int64)  # offsets from seed: a seed may exceed int64
    for start in range(seed, seed + trials, chunk):
        seeds = range(start, min(start + chunk, seed + trials))
        # not checked again: Haar rows are divided by their own norm, and G G^dag / tr
        # is made exactly Hermitian, of trace 1 and PSD up to roundoff far inside EPS_*
        if mixed:
            states = sample_ginibre_stack(dims, rank, seeds)
        else:
            states = sample_haar_stack(dims, seeds)
        coherence, _, rhs = _evaluate_stack(dims, states)
        slack = coherence[-1] - rhs
        violations += len(seeds) - np.count_nonzero(slack >= -tolerance, axis=1)
        first = slack.argmin(axis=1)  # the first trial at the minimum, as a strict < scan keeps
        low = slack[bound_rows, first]
        lower = low < min_slack  # strict: a tie keeps the earlier chunk's seed
        np.copyto(min_slack, low, where=lower)
        np.copyto(argmin, first + (start - seed), where=lower)
    return [
        TrialReport(name, trials, v, s, seed + a, tolerance)
        for name, v, s, a in zip(names, violations.tolist(), min_slack.tolist(), argmin.tolist())
    ]
