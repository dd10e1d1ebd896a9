"""Parameterized three-qubit state families and closed-form sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .coherence import EPS_INEQ, stack_rows
from .inequalities import InequalityResult, check_tolerance, chunk_states, stack_results
from .inequalities import suite_names, suite_stack
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


@dataclass(frozen=True, eq=False)
class FamilyPoint:
    """One member of a parameterized family, with its realized state."""

    family: str
    params: tuple[float, ...]
    state: PureState


def ghz_state(phi: float) -> PureState:
    """cos(phi)|000> + sin(phi)|111>."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = math.cos(phi)
    amps[7] = math.sin(phi)
    return PureState(_THREE_QUBITS, amps)


def w_state(theta: float, phi: float) -> PureState:
    """sin(theta)cos(phi)|100> + sin(theta)sin(phi)|010> + cos(theta)|001>."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[4] = math.sin(theta) * math.cos(phi)
    amps[2] = math.sin(theta) * math.sin(phi)
    amps[1] = math.cos(theta)
    return PureState(_THREE_QUBITS, amps)


def two_term_state(alpha: float) -> PureState:
    """cos(alpha)|000> + sin(alpha)|100>."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = math.cos(alpha)
    amps[4] = math.sin(alpha)
    return PureState(_THREE_QUBITS, amps)


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


def family_point(family: str, params: Sequence[float]) -> FamilyPoint:
    params = _family_params(family, params)
    for name, value in zip(FAMILY_PARAMETERS[family], params):
        upper, label = _DOMAINS[name]
        if not 0.0 <= value < upper:
            raise ValueError(f"{family} parameter {name}={value} outside [0, {label})")
    state = {"ghz": ghz_state, "w": w_state, "two-term": two_term_state}[family](*params)
    return FamilyPoint(family, params, state)


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
class SweepRecord:
    """One grid point: state, closed forms, numeric values and suite results."""

    point: FamilyPoint
    closed: dict[str, float]
    numeric: dict[str, float]
    results: tuple[InequalityResult, ...]


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
) -> list[SweepRecord]:
    """Run the full verifier suite at every grid point.

    The points are evaluated in stacked chunks of :func:`suite_stack`, whose
    coherence rows and tau also give the numeric quantities.
    """
    tolerance = check_tolerance(tolerance)  # also for an empty grid
    points = [family_point(family, params) for params in grid]
    names = suite_names(_THREE_QUBITS, pure=True)
    chunk = chunk_states(_THREE_QUBITS, pure=True)
    records = []
    for start in range(0, len(points), chunk):
        part = points[start : start + chunk]
        coherence, tau, rhs = suite_stack(_THREE_QUBITS, np.stack([p.state.amps for p in part]))
        numeric = np.vstack((coherence[_QUANTITY_ROWS], tau)).T.tolist()
        results = stack_results(names, coherence, rhs, tolerance)
        for point, values, point_results in zip(part, numeric, results):
            records.append(
                SweepRecord(
                    point,
                    closed_forms(family, point.params),
                    dict(zip(QUANTITIES, values)),
                    tuple(point_results),
                )
            )
    return records
