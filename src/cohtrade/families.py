"""Parameterized three-qubit state families and closed-form sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .coherence import EPS_INEQ, stack_rows
from .inequalities import _evaluate_stack, check_tolerance, chunk_states, suite_names
from .states import LocalDims, PureState, SubsystemSet, check_count

#: Each family's parameter names, in the order its functions take them.
FAMILY_PARAMETERS = {"ghz": ("phi",), "w": ("theta", "phi"), "two-term": ("alpha",)}
FAMILIES = tuple(FAMILY_PARAMETERS)

_TWO_PI = 2.0 * math.pi
#: The domain [0, upper) of each parameter, as (upper, its label).
_DOMAINS = {"phi": (_TWO_PI, "2pi"), "theta": (math.pi, "pi"), "alpha": (_TWO_PI, "2pi")}
_THREE_QUBITS = LocalDims((2, 2, 2))

#: Sweep quantities with known closed forms, in emission order.
QUANTITIES = ("c123", "c12", "c13", "c23", "tau")
#: The coherence_stack rows of c123, c12, c13 and c23.
_QUANTITY_ROWS = [stack_rows(3)[SubsystemSet(p)] for p in ((1, 2, 3), (1, 2), (1, 3), (2, 3))]


def _amplitudes(family: str, grid: Sequence[Sequence[float]]) -> np.ndarray:
    """The family's amplitude rows ``(len(grid), 8)``, one per point of ``grid``."""
    amps = np.zeros((len(grid), 8), dtype=np.complex128)
    if family == "w":  # |100>, |010>, |001>
        amps[:, [4, 2, 1]] = [
            (math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)) for t, p in grid
        ]
    else:  # cos |000> + sin |111> for ghz, |100> for two-term
        amps[:, [0, 7 if family == "ghz" else 4]] = [(math.cos(a), math.sin(a)) for (a,) in grid]
    return amps


def ghz_state(phi: float) -> PureState:
    """cos(phi)|000> + sin(phi)|111>."""
    return PureState(_THREE_QUBITS, _amplitudes("ghz", [(phi,)])[0])


def w_state(theta: float, phi: float) -> PureState:
    """sin(theta)cos(phi)|100> + sin(theta)sin(phi)|010> + cos(theta)|001>."""
    return PureState(_THREE_QUBITS, _amplitudes("w", [(theta, phi)])[0])


def two_term_state(alpha: float) -> PureState:
    """cos(alpha)|000> + sin(alpha)|100>."""
    return PureState(_THREE_QUBITS, _amplitudes("two-term", [(alpha,)])[0])


def _family_params(family: str, params: Sequence[float]) -> tuple[float, ...]:
    """``params`` as floats, checked against the family's parameter count."""
    if family not in FAMILY_PARAMETERS:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    names = FAMILY_PARAMETERS[family]
    params = tuple(float(p) for p in params)
    if len(params) != len(names):
        count = f"{len(names)} parameter{'s' * (len(names) > 1)}"
        raise ValueError(f"{family} takes {count} ({', '.join(names)}), got {len(params)}")
    return params


def _grid_point(family: str, params: Sequence[float]) -> tuple[float, ...]:
    """``params`` as floats, checked against the family's parameter count and domains."""
    params = _family_params(family, params)
    for name, value in zip(FAMILY_PARAMETERS[family], params):
        upper, label = _DOMAINS[name]
        if not 0.0 <= value < upper:
            raise ValueError(f"{family} parameter {name}={value} outside [0, {label})")
    return params


def closed_forms(family: str, params: Sequence[float]) -> dict[str, float]:
    """Closed-form c123, c12, c13, c23 and tau at the given parameters."""
    params = _family_params(family, params)
    if family == "ghz":
        (phi,) = params
        s, c = math.sin(phi), math.cos(phi)
        return {
            "c123": 2.0 * abs(s * c),
            "c12": 0.0,
            "c13": 0.0,
            "c23": 0.0,
            "tau": 4.0 * abs(c * c * s * s),
        }
    if family == "w":
        theta, phi = params
        st, ct = math.sin(theta), math.cos(theta)
        sp, cp = math.sin(phi), math.cos(phi)
        c12 = 2.0 * abs(st * st * sp * cp)
        c13 = 2.0 * abs(st * ct * cp)
        c23 = 2.0 * abs(st * ct * sp)
        return {"c123": c12 + c13 + c23, "c12": c12, "c13": c13, "c23": c23, "tau": 0.0}
    (alpha,) = params
    c = 2.0 * abs(math.cos(alpha) * math.sin(alpha))
    return {"c123": c, "c12": c, "c13": c, "c23": 0.0, "tau": 0.0}


@dataclass(frozen=True, eq=False)
class Sweep:
    """A family sweep in grid order: closed forms, numeric values and every bound's slack.

    ``closed`` and ``numeric`` are ``(5, P)``, with rows in ``QUANTITIES``
    order; ``slack`` and ``holds`` are ``(K, P)``, row k for bound
    ``names[k]``.  ``holds`` means ``slack >= -tolerance``.  ``len(sweep)``
    is the number of points P.
    """

    family: str
    params: list[tuple[float, ...]]
    names: tuple[str, ...]
    closed: np.ndarray
    numeric: np.ndarray
    slack: np.ndarray
    holds: np.ndarray
    tolerance: float

    def __len__(self) -> int:
        return len(self.params)


def default_grid(family: str, points: int) -> list[tuple[float, ...]]:
    """Evenly spaced parameter grid; the w family gets a points x points grid."""
    check_count("points", points, 1)
    if family == "ghz":
        return [(phi,) for phi in np.linspace(0.0, _TWO_PI, points, endpoint=False)]
    if family == "w":
        thetas = np.linspace(0.0, math.pi, points, endpoint=False)
        phis = np.linspace(0.0, _TWO_PI, points, endpoint=False)
        return [(float(t), float(p)) for t in thetas for p in phis]
    if family == "two-term":
        return [(a,) for a in np.linspace(0.0, math.pi / 2.0, points)]
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def family_sweep(
    family: str,
    grid: Iterable[Sequence[float]],
    tolerance: float = EPS_INEQ,
) -> Sweep:
    """Run the full verifier suite at every grid point.

    The points are evaluated in stacked chunks, whose coherence rows and tau
    also give the numeric quantities; each chunk's amplitudes are built inside
    the loop, so only ``params`` and the arrays grow with the grid.
    """
    tolerance = check_tolerance(tolerance)  # also for an empty grid
    params = [_grid_point(family, point) for point in grid]
    names = tuple(suite_names(_THREE_QUBITS, pure=True))
    closed = np.empty((len(QUANTITIES), len(params)))
    numeric = np.empty_like(closed)
    slack = np.empty((len(names), len(params)))
    chunk = chunk_states(_THREE_QUBITS, pure=True)
    for start in range(0, len(params), chunk):
        part = params[start : start + chunk]
        columns = slice(start, start + len(part))
        # not checked again: _grid_point checked each parameter, so rows are unit-norm to roundoff
        coherence, tau, rhs = _evaluate_stack(_THREE_QUBITS, _amplitudes(family, part))
        # closed forms per point on math, whose sin and cos do not vary with numpy's SIMD paths
        closed[:, columns] = np.transpose([list(closed_forms(family, p).values()) for p in part])
        numeric[:, columns] = np.vstack((coherence[_QUANTITY_ROWS], tau))
        slack[:, columns] = coherence[-1] - rhs
    return Sweep(family, params, names, closed, numeric, slack, slack >= -tolerance, tolerance)
