"""Extremal-slack search over pure states via derivative-free simplex descent."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .inequalities import InequalityResult, bounds, corollary_name
from .states import LocalDims, PureState, _as_dims, _gaussians, check_count, check_seed

Objective = Callable[[PureState], InequalityResult]

REFLECTION = 1.0
CONTRACTION = 0.5
SHRINK = 0.5
DIAMETER_TOL = 1e-9
DEFAULT_ITERATIONS = 200
DEFAULT_ROUNDS = 12
INITIAL_STEP = 0.5


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    """Best slack found for one objective over all restarts."""

    objective: str
    best_value: float
    best_state: PureState
    evaluations: int
    seed: int


def resolve_objective(name: str, dims: "LocalDims | Sequence[int]") -> Objective:
    """Map a bound name to a pure-state slack evaluator at the given dims.

    The evaluator computes only that bound's subset coherences.  Either
    corollary prefix names the size-m subset-family bound, and ``thm2`` is
    its m = n-1 member.
    """
    dims = _as_dims(dims)
    n = dims.n_parties
    table = {b.name: b for b in bounds(dims, pure=True)}
    for m in range(1, n + 1):
        table[f"cor1-m{m}"] = table[f"cor2-m{m}"] = table[corollary_name(dims, m)]
    if n >= 2:
        table["thm2"] = table[corollary_name(dims, n - 1)]

    try:
        bound = table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown objective {name!r} at dims {dims.dims}; known: {known}")
    return bound.evaluate


def _nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    step: float,
    iterations: int,
) -> tuple[np.ndarray, float, int]:
    """Reflection/contraction/shrink simplex descent; returns (x, f(x), evals)."""
    dim = x0.size
    points = np.vstack([x0, x0 + step * np.eye(dim)])  # one vertex per row
    values = np.array([f(x) for x in points])
    evals = dim + 1

    for _ in range(iterations):
        order = np.argsort(values)
        points, values = points[order], values[order]
        spread = np.abs(points[1:] - points[0]).max()
        if spread < DIAMETER_TOL:
            break

        centroid = points[:-1].sum(axis=0) / dim  # np.mean's arithmetic, without its overhead
        reflected = centroid + REFLECTION * (centroid - points[-1])
        f_reflected = f(reflected)
        evals += 1
        if f_reflected < values[-2]:
            points[-1], values[-1] = reflected, f_reflected
            continue

        contracted = centroid + CONTRACTION * (points[-1] - centroid)
        f_contracted = f(contracted)
        evals += 1
        if f_contracted < values[-1]:
            points[-1], values[-1] = contracted, f_contracted
            continue

        points[1:] = points[0] + SHRINK * (points[1:] - points[0])
        values[1:] = [f(p) for p in points[1:]]
        evals += dim

    best = int(np.argmin(values))
    return points[best], float(values[best]), evals


def _descend(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    iterations: int,
    rounds: int,
) -> tuple[np.ndarray, float, int]:
    """Run simplex rounds, re-inflating a fresh simplex at each round's best.

    A single simplex stagnates on this objective family (the simplex flattens
    long before reaching an equality manifold), so each round rebuilds it
    around the incumbent with a step matched to the incumbent value.
    """
    x, value = x0, f(x0)
    evals = 1
    step = INITIAL_STEP
    for r in range(rounds):
        x_new, v_new, e = _nelder_mead(f, x, step, iterations)
        evals += e
        improved = v_new < value - 0.05 * abs(value)
        if v_new < value:
            x, value = x_new, v_new
        step = max(min(step * 0.5, abs(value)), 1e-10)
        if step <= 1e-9 or (r >= 2 and not improved):
            break
    return x, value, evals


def minimize_slack(
    objective: str,
    dims: "LocalDims | Sequence[int]",
    restarts: int,
    seed: int,
    iterations: int = DEFAULT_ITERATIONS,
    rounds: int = DEFAULT_ROUNDS,
) -> SearchOutcome:
    """Minimize a verifier's slack over pure states from Haar-random starts.

    The search parameterizes a state by 2D real coordinates (real and
    imaginary amplitude parts), normalizing before each evaluation.
    Restart r draws its start from seed + r, as row r of one stacked draw,
    so runs are reproducible and restarts may be distributed.
    """
    check_count("restarts", restarts, 1)
    check_count("iterations", iterations, 0)
    check_count("rounds", rounds, 1)
    seed = int(check_seed(seed))  # a numpy uint64 seed plus the restarts would wrap
    dims = _as_dims(dims)
    d = dims.total_dim
    runner = resolve_objective(objective, dims)

    def to_state(x: np.ndarray) -> PureState | None:
        amps = x[:d] + 1j * x[d:]
        norm = np.linalg.norm(amps)
        if norm < 1e-12:
            return None
        if not math.isfinite(norm):
            PureState(dims, amps)  # raises the constructor's message
        return PureState._trusted(dims, amps / norm)

    def f(x: np.ndarray) -> float:
        psi = to_state(x)
        if psi is None:
            return math.inf
        return runner(psi).slack

    best_x: np.ndarray | None = None
    best_value = math.inf
    evaluations = 0
    for z in _gaussians(seed, restarts, (d,)):
        x0 = np.concatenate([z.real, z.imag])
        x, value, evals = _descend(f, x0, iterations, rounds)
        evaluations += evals
        if value < best_value:
            best_x, best_value = x, value

    best_state = to_state(best_x)
    assert best_state is not None
    return SearchOutcome(objective, best_value, best_state, evaluations, seed)
