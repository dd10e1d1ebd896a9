"""Every coherence trade-off bound as one entry of an ordered table.

All bounds share one shape, ``C_full >= (sum of C_S over a subset family) / k``,
with the three-tangle tau added on the right for the pure-state bounds; a
:class:`Bound` holds the dims it is stated for (it rejects states of other
dims), the family, the divisor k and whether tau is added.  :func:`bounds`
lists the entries that apply to an input, in the order results are
reported.  Names are stable identifiers used for CSV rows, CLI addressing
and search objectives:

* ``thm1``             half-sum pairwise bound, three qubits
* ``eq3``              sum of single-party coherences, three qubits
* ``eq4-pivot{p}``     additive two-pair conjecture (documented false)
* ``eq5-single{s}``    single + complement split, three qubits
* ``cor1-m{m}``        size-m subset-family bound, any number of qubits
* ``cor2-m{m}``        the same bound when any local dimension exceeds 2
* ``thm2``             alias for the m = n-1 subset-family bound
* ``thm3``             tangle-strengthened half-sum bound, pure three qubits
* ``eq10``             tangle-strengthened singles bound, pure three qubits
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Iterable, Sequence, TextIO, Union

import numpy as np

from .coherence import AMPLITUDE_MIN_DIM, EPS_INEQ, _l1_sum, amplitude_coherence_stack
from .coherence import coherence_stack, gamma, stack_rows
from .states import DensityOperator, LocalDims, PureState, SubsystemSet, _as_dims, _is_integer
from .states import _reduce, density_from_pure, validate_stack
from .tangle import three_tangle, three_tangle_stack

State = Union[PureState, DensityOperator]

#: Verifiers excluded from pass/fail exit policies: their violations are data.
CONJECTURE_PREFIX = "eq4"

#: Matrix entries per stacked chunk (16 B each): callers of :func:`suite_stack`
#: hold at most :func:`chunk_states` states at once, so memory does not grow
#: with the number of states.
CHUNK_ENTRIES = 1 << 16


def chunk_states(dims: LocalDims) -> int:
    """States per stacked chunk at ``dims``: ``CHUNK_ENTRIES // D^2``, at least one."""
    return max(1, CHUNK_ENTRIES // dims.total_dim**2)


@dataclass(frozen=True)
class InequalityResult:
    """Outcome of one verified bound; ``holds`` means slack >= -tolerance."""

    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    tolerance: float


def check_tolerance(tolerance: float) -> float:
    """Return ``tolerance`` if it is a finite number >= 0, else raise ``ValueError``."""
    if not 0.0 <= tolerance < math.inf:  # NaN fails this test
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    return tolerance


def _result(name: str, lhs: float, rhs: float, tolerance: float) -> InequalityResult:
    check_tolerance(tolerance)
    slack = lhs - rhs
    return InequalityResult(name, lhs, rhs, slack, slack >= -tolerance, tolerance)


def is_conjecture(name: str) -> bool:
    return name.startswith(CONJECTURE_PREFIX)


@dataclass(frozen=True)
class Bound:
    """C_full >= (sum of C_S over ``subsets``) / ``divisor``, plus tau if ``tangle``, at ``dims``.

    ``rows`` holds each subset's :func:`coherence_stack` row, from :func:`stack_rows`.
    """

    name: str
    dims: LocalDims
    subsets: tuple[SubsystemSet, ...]
    divisor: int
    tangle: bool = False
    rows: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        dims = _as_dims(self.dims)
        row = stack_rows(dims.n_parties)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "rows", tuple(row[s.check_against(dims)] for s in self.subsets))

    def evaluate(self, state: State, tolerance: float = EPS_INEQ) -> InequalityResult:
        """This bound alone on ``state``, which is not validated.

        A tangle bound adds ``three_tangle(state)``, so it takes pure
        three-qubit states only (``TypeError`` on a density operator).  Any
        other state whose dims are not the bound's raises ``ValueError``.
        A pure state with ``D >= AMPLITUDE_MIN_DIM`` is reduced from its
        amplitudes, as :func:`suite_stack` reduces it; any other pure state
        is projected.  A matrix's subset coherences equal
        :func:`subset_coherence` bit for bit: the same einsum reduction of the
        density matrix and the same l1 sum, without the intermediate state
        objects.  The rhs folds them left to right in subset order, divides
        once and then adds tau for a tangle bound (the builtin sum()
        compensates float sums from Python 3.12 on, and sum(x) / k differs
        from sum(x / k), either of which would move slacks in the last bit).
        """
        if self.tangle:
            if not isinstance(state, PureState):
                raise TypeError("pure state required: the tangle bound does not cover mixed states")
            tau = three_tangle(state)
        dims = state.dims
        if dims.dims != self.dims.dims:
            raise ValueError(
                f"bound {self.name} is stated for dims {self.dims.dims}, "
                f"got a state of dims {dims.dims}"
            )
        if isinstance(state, PureState) and dims.total_dim >= AMPLITUDE_MIN_DIM:
            # the numbers suite_stack takes for this state, computed for this bound only
            rows = (*self.rows, 2**dims.n_parties - 2)
            *values, lhs = amplitude_coherence_stack(dims, state.amps[None], rows)[:, 0].tolist()
        else:
            mat = (density_from_pure(state) if isinstance(state, PureState) else state).mat
            n, tensor = dims.n_parties, mat.reshape(dims.dims * 2)
            values = []
            for s in self.subsets:
                values.append(_l1_sum(mat if len(s.parties) == n else _reduce(dims, tensor, s)))
            lhs = _l1_sum(mat)
        total = 0.0
        for value in values:
            total += value
        total /= self.divisor
        rhs = total + tau if self.tangle else total
        return _result(self.name, lhs, rhs, tolerance)


_Q3 = LocalDims((2, 2, 2))
_PAIRS = gamma(2, 3)
_THM1 = Bound("thm1", _Q3, _PAIRS, 2)
_EQ4 = {p: Bound(f"eq4-pivot{p}", _Q3, tuple(s for s in _PAIRS if p in s), 1) for p in (1, 2, 3)}
_EQ5 = {
    s: Bound(f"eq5-single{s}", _Q3, (SubsystemSet((s,)), SubsystemSet(sorted({1, 2, 3} - {s}))), 1)
    for s in (1, 2, 3)
}
_THM3 = Bound("thm3", _Q3, _PAIRS, 2, tangle=True)
_EQ10 = Bound("eq10", _Q3, gamma(1, 3), 1, tangle=True)


def _singles_bound(dims: LocalDims) -> Bound:
    return Bound("eq3", dims, gamma(1, dims.n_parties), 1)


def corollary_name(dims, m: int) -> str:
    return f"cor1-m{m}" if dims.all_qubits else f"cor2-m{m}"


def _corollary_bound(dims: LocalDims, m: int) -> Bound:
    n = dims.n_parties
    return Bound(corollary_name(dims, m), dims, gamma(m, n), math.comb(n - 1, m - 1))


def bounds(dims: "LocalDims | Sequence[int]", pure: bool) -> list[Bound]:
    """Every bound that applies to a pure or mixed input at ``dims``, in report order.

    The three-qubit bounds come first, then the subset-family bound for every
    m; the tangle bounds follow for pure three-qubit input only.  Each is
    built for ``dims`` and rejects states of other dims.
    """
    return list(_bound_table(_as_dims(dims), bool(pure)))


@lru_cache(maxsize=None)
def _bound_table(dims: LocalDims, pure: bool) -> tuple[Bound, ...]:
    # cached: the suite looks the table up for every state or stacked chunk
    three_qubit = dims.dims == (2, 2, 2)
    table: list[Bound] = []
    if three_qubit:
        table += [_THM1, _singles_bound(dims), *_EQ4.values(), *_EQ5.values()]
    table += [_corollary_bound(dims, m) for m in range(1, dims.n_parties + 1)]
    if pure and three_qubit:
        table += [_THM3, _EQ10]
    return tuple(table)


def verify_theorem1(rho: DensityOperator, tolerance: float = EPS_INEQ) -> InequalityResult:
    """C123 >= (C12 + C13 + C23) / 2 for any three-qubit state."""
    return _THM1.evaluate(rho, tolerance)


def verify_singles_sum(rho: DensityOperator, tolerance: float = EPS_INEQ) -> InequalityResult:
    """Full coherence >= sum of all single-party coherences."""
    return _singles_bound(rho.dims).evaluate(rho, tolerance)


def verify_additive_conjecture(
    rho: DensityOperator, pivot: int, tolerance: float = EPS_INEQ
) -> InequalityResult:
    """C123 >= sum of the two pairwise coherences containing ``pivot``.

    This bound is known to be violated; results document the violation
    rather than signalling failure.
    """
    if not _is_integer(pivot) or pivot not in _EQ4:
        raise ValueError(f"pivot must be 1, 2 or 3, got {pivot!r}")
    return _EQ4[pivot].evaluate(rho, tolerance)


def verify_marginal_split(
    rho: DensityOperator, single: int, tolerance: float = EPS_INEQ
) -> InequalityResult:
    """C123 >= C_single + C_complement for any three-qubit state."""
    if not _is_integer(single) or single not in _EQ5:
        raise ValueError(f"single must be 1, 2 or 3, got {single!r}")
    return _EQ5[single].evaluate(rho, tolerance)


def verify_corollary1(
    rho: DensityOperator, m: int, tolerance: float = EPS_INEQ
) -> InequalityResult:
    """Full coherence >= (sum of C_a over all size-m subsets) / C(n-1, m-1).

    Works for arbitrary local dimensions; m = n-1 reproduces the (n-1)-partite
    bound and m = 2, n = 3 reproduces the half-sum bound.
    """
    return _corollary_bound(rho.dims, m).evaluate(rho, tolerance)


def verify_theorem3(psi: PureState, tolerance: float = EPS_INEQ) -> InequalityResult:
    """C123 >= (C12 + C13 + C23) / 2 + tau for pure three-qubit states."""
    return _THM3.evaluate(psi, tolerance)


def verify_eq10(psi: PureState, tolerance: float = EPS_INEQ) -> InequalityResult:
    """C123 >= C1 + C2 + C3 + tau for pure three-qubit states."""
    return _EQ10.evaluate(psi, tolerance)


def suite_names(dims, pure: bool) -> list[str]:
    """Table-ordered names of the bounds applicable to the given input."""
    return [b.name for b in bounds(dims, pure)]


@lru_cache(maxsize=None)
def _fold_plan(dims: LocalDims, pure: bool):
    """The bound table as arrays over the rows of :func:`coherence_stack`.

    :meth:`Bound.evaluate` folds a bound's subset coherences left to right,
    divides once and adds tau for the tangle bounds.  Here the fold runs for
    every bound at once as one cumulative sum along each bound's row indices
    (padded to a common width), read at the bound's own length.
    """
    table = bounds(dims, pure)
    width = max(len(b.rows) for b in table)
    index = np.array([b.rows + (0,) * (width - len(b.rows)) for b in table])
    last = (np.arange(len(table)), np.array([len(b.rows) - 1 for b in table]))
    divisor = np.array([[float(b.divisor)] for b in table])
    tangle = np.array([k for k, b in enumerate(table) if b.tangle], dtype=np.intp)
    return index, last, divisor, tangle


def suite_stack(
    dims: "LocalDims | Sequence[int]", states: np.ndarray
) -> tuple[np.ndarray, "np.ndarray | None", np.ndarray]:
    """Every bound of :func:`bounds` on a stack of states: coherence rows, tau and rhs.

    ``states`` holds pure-state amplitude rows ``(B, D)``, taken as checked,
    or density matrices ``(B, D, D)``, validated first by
    :func:`validate_stack` (the first malformed one raises its own message).
    Returns the ``(2^n - 1, B)`` coherence rows in :func:`coherence_stack`'s
    order, whose last row is every bound's lhs; tau ``(B,)`` for pure
    three-qubit input, else None; and rhs ``(K, B)``, row k for bound k of
    ``bounds(dims, pure)``.

    Pure states with ``D >= AMPLITUDE_MIN_DIM`` are reduced from their
    amplitudes (:func:`amplitude_coherence_stack`), so their numbers agree
    with the density route to roundoff and equal :meth:`Bound.evaluate`'s.
    Every other number is bit-identical to the per-state primitives
    (:func:`subset_coherence`, :func:`three_tangle`, :meth:`Bound.evaluate`).
    Either way a state's numbers do not depend on the rest of the stack.
    """
    dims = _as_dims(dims)
    states = np.ascontiguousarray(states, dtype=np.complex128)
    pure = states.ndim == 2
    if pure and dims.total_dim >= AMPLITUDE_MIN_DIM:
        coherence = amplitude_coherence_stack(dims, states)
    elif pure:
        coherence = coherence_stack(dims, states[:, :, None] * states.conj()[:, None, :])
    else:
        validate_stack(states)
        coherence = coherence_stack(dims, states)
    index, last, divisor, tangle = _fold_plan(dims, pure)
    rhs = np.add.accumulate(coherence[index], axis=1)[last] / divisor
    tau = None
    if tangle.size:
        tau = three_tangle_stack(states)
        rhs[tangle] += tau
    return coherence, tau, rhs


def stack_results(
    names: Sequence[str], coherence: np.ndarray, rhs: np.ndarray, tolerance: float
) -> list[list[InequalityResult]]:
    """The results of a :func:`suite_stack` call, one table-ordered list per state."""
    return [
        [_result(name, lhs, r, tolerance) for name, r in zip(names, column)]
        for lhs, column in zip(coherence[-1].tolist(), rhs.T.tolist())
    ]


def run_suite(state: State, tolerance: float = EPS_INEQ) -> list[InequalityResult]:
    """Evaluate every bound of :func:`bounds`, in table order.

    The state is evaluated as a one-row :func:`suite_stack`, which validates
    a density operator up front: the samplers and :func:`partial_trace`
    return operators that skipped construction.  A pure state is checked at
    construction.
    """
    if isinstance(state, PureState):
        stack = state.amps[None]
    elif isinstance(state, DensityOperator):
        stack = state.mat[None]
    else:
        raise TypeError(f"expected PureState or DensityOperator, got {type(state).__name__}")
    coherence, _, rhs = suite_stack(state.dims, stack)
    names = suite_names(state.dims, isinstance(state, PureState))
    return stack_results(names, coherence, rhs, tolerance)[0]


# ---------------------------------------------------------------------------
# CSV schema: a record's fields in order (name,lhs,rhs,slack,holds,tolerance
# for a result), reals with 17 significant digits, enough for exact double
# round-trips.  Aggregate rows are prefixed "AGG".
# ---------------------------------------------------------------------------

CSV_HEADER = ",".join(f.name for f in fields(InequalityResult))


def format_real(x: float) -> str:
    return f"{x:.17g}"


def _csv_field(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_real(value) if isinstance(value, float) else str(value)


def csv_row(record) -> str:
    """The fields of a result or report dataclass, in order, as one CSV line."""
    return ",".join(_csv_field(getattr(record, f.name)) for f in fields(record))


def write_results_csv(fh: TextIO, results: Iterable[InequalityResult]) -> None:
    fh.write(CSV_HEADER + "\n")
    for r in results:
        fh.write(csv_row(r) + "\n")
