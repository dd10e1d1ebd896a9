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
import numbers
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Iterable, Sequence, TextIO

import numpy as np

from .coherence import AMPLITUDE_MIN_DIM, EPS_INEQ, _coherence_rows, gamma, stack_rows
from .states import DensityOperator, LocalDims, PureState, State, SubsystemSet, _as_dims, _as_stack
from .states import _as_subsystem, _is_integer, check_count, check_stack, validate_rows
from .states import validate_stack
from .tangle import three_tangle, three_tangle_stack

#: Complex entries per stacked chunk (16 B each): callers of :func:`suite_stack`
#: hold at most :func:`chunk_states` states at once, so memory does not grow
#: with the number of states.
CHUNK_ENTRIES = 1 << 16


def chunk_states(dims: LocalDims, pure: bool) -> int:
    """States per stacked chunk at ``dims``: ``CHUNK_ENTRIES`` over a state's entries, at least 1.

    A state has ``D^2`` entries, except a pure one with ``D >= AMPLITUDE_MIN_DIM``:
    it is reduced from its ``D`` amplitudes, in Gram blocks that ``GRAM_ENTRIES`` caps.
    """
    d = dims.total_dim
    return max(1, CHUNK_ENTRIES // (d if pure and d >= AMPLITUDE_MIN_DIM else d * d))


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
    """``tolerance`` as a float if it is a finite, non-bool real >= 0, else raise ``ValueError``.

    Entry points keep the returned float, so results hold Python floats and bools.
    """
    value = tolerance
    if type(tolerance) is not float:  # a plain float, once per search evaluation, skips this
        real = isinstance(tolerance, numbers.Real) and not isinstance(tolerance, bool)
        try:  # numpy bools are not numbers.Real; float() overflows beyond a double
            value = float(tolerance) if real else math.nan
        except OverflowError:
            value = math.nan
    if not 0.0 <= value < math.inf:  # NaN fails this test
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    return value


def _result(name: str, lhs: float, rhs: float, tolerance: float) -> InequalityResult:
    slack = lhs - rhs
    return InequalityResult(name, lhs, rhs, slack, slack >= -tolerance, tolerance)


@dataclass(frozen=True)
class Bound:
    """C_full >= (sum of C_S over ``subsets``) / ``divisor``, plus tau if ``tangle``, at ``dims``.

    ``divisor`` is an integer >= 1 and ``subsets`` a nonempty family of party
    sets (:class:`SubsystemSet` or tuples), else ``ValueError``.  ``rows`` holds
    each subset's :func:`coherence_stack` row, from :func:`stack_rows`.

    ``proved`` is true when no party lies in more than ``divisor`` subsets:
    exactly then is ``w(p) = 1 - #{S : p within S} / divisor`` >= 0 for every
    set p of parties in which two basis labels differ, so that, by the
    triangle inequality, slack without tau >= :meth:`residual` >= 0 for every
    state.  A tangle bound also rests on the paper's Theorem 3 (tau <= D'/2,
    the ``thm1`` residual), which ``cohtrade oracle`` checks.
    """

    name: str
    dims: LocalDims
    subsets: tuple[SubsystemSet, ...]
    divisor: int
    tangle: bool = False
    rows: tuple[int, ...] = field(init=False, repr=False)
    proved: bool = field(init=False)

    def __post_init__(self) -> None:
        check_count("divisor", self.divisor, 1)
        dims = _as_dims(self.dims)
        subsets = tuple(_as_subsystem(s).check_against(dims) for s in self.subsets)
        if not subsets:
            raise ValueError(f"bound {self.name} needs at least one subset")
        row = stack_rows(dims.n_parties)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "subsets", subsets)
        object.__setattr__(self, "rows", tuple(row[s] for s in subsets))
        share = max(sum(p in s.parties for s in subsets) for p in range(1, dims.n_parties + 1))
        object.__setattr__(self, "proved", share <= self.divisor)

    def evaluate(self, state: State, tolerance: float = EPS_INEQ) -> InequalityResult:
        """This bound alone on ``state``, which, as in :func:`run_suite`, is not checked again.

        A tangle bound adds ``three_tangle(state)``, so it takes pure
        three-qubit states only (``TypeError`` on a density operator).  Any
        other state whose dims are not the bound's raises ``ValueError``.
        The state is reduced as :func:`suite_stack` reduces it, by one
        ``coherence._coherence_rows`` call on the bound's own rows and the
        full row, so the numbers are :func:`suite_stack`'s bit for bit.  The
        rhs folds them left to right in subset order, divides once and then
        adds tau for a tangle bound (the builtin sum() compensates float sums
        from Python 3.12 on, and sum(x) / k differs from sum(x / k), either of
        which would move slacks in the last bit).
        """
        tolerance = check_tolerance(tolerance)
        stack = _as_stack(state)
        if self.tangle:
            if stack.ndim != 2:
                raise TypeError("pure state required: the tangle bound does not cover mixed states")
            tau = three_tangle(state)
        dims = state.dims
        if dims.dims != self.dims.dims:
            raise ValueError(
                f"bound {self.name} is stated for dims {self.dims.dims}, "
                f"got a state of dims {dims.dims}"
            )
        *values, lhs = _coherence_rows(dims, stack, (*self.rows, 2**dims.n_parties - 2))
        total = 0.0
        for value in values:
            total += value.item()
        total /= self.divisor
        rhs = total + tau if self.tangle else total
        return _result(self.name, lhs.item(), rhs, tolerance)

    def residual(self, states: np.ndarray) -> np.ndarray:
        """The slack without tau at ``np.abs(states)``: the sum of ``w(p) |rho_xy|``, ``(B,)``.

        ``states`` holds unvalidated amplitude rows ``(B, D)`` or matrices
        ``(B, D, D)`` at the bound's dims (any other shape raises
        ``InvalidStateError``).  For ``thm1`` this is the paper's D'/2 of a
        pure state and D/2 of a mixed one.  It is reduced and folded as in
        :func:`suite_stack`, whose slack it equals bit for bit on |a|.
        """
        d = self.dims.total_dim
        check_stack(states, (d,), (d, d))
        rows = (*self.rows, 2**self.dims.n_parties - 2)
        *values, lhs = _coherence_rows(self.dims, np.abs(states).astype(np.complex128), rows)
        return lhs - np.add.accumulate(values, axis=0)[-1] / self.divisor


_Q3 = LocalDims((2, 2, 2))
_PAIRS = gamma(2, 3)
_THM1 = Bound("thm1", _Q3, _PAIRS, 2)
_EQ4 = {p: Bound(f"eq4-pivot{p}", _Q3, tuple(s for s in _PAIRS if p in s), 1) for p in (1, 2, 3)}
_EQ5 = {s: Bound(f"eq5-single{s}", _Q3, ((s,), sorted({1, 2, 3} - {s})), 1) for s in (1, 2, 3)}
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

    ``states`` holds amplitude rows ``(B, D)`` or density matrices ``(B, D, D)``;
    any other shape raises, and so does the first state that fails
    :func:`validate_rows` or :func:`validate_stack`, whoever built the stack (an
    unbatched ``(D, D)`` matrix reads as D rows, never all unit vectors).
    Returns the ``(2^n - 1, B)`` coherence rows in :func:`coherence_stack`'s
    order, the last one every bound's lhs; tau ``(B,)`` for pure three-qubit
    input, else None; and rhs ``(K, B)``, row k for bound k of ``bounds(dims, pure)``.

    The coherence rows are one :func:`coherence_stack` call, which picks
    each state's route, so lhs and rhs equal :meth:`Bound.evaluate`'s; below
    ``D = AMPLITUDE_MIN_DIM``, and for every mixed state, they are also
    bit-identical to :func:`subset_coherence` and :func:`three_tangle`.
    Either way a state's numbers do not depend on the rest of the stack.
    """
    dims = _as_dims(dims)
    states = np.ascontiguousarray(states, dtype=np.complex128)
    d = dims.total_dim
    check_stack(states, (d,), (d, d))
    (validate_rows if states.ndim == 2 else validate_stack)(states)
    return _evaluate_stack(dims, states)


def _evaluate_stack(dims: LocalDims, states: np.ndarray) -> tuple:
    """:func:`suite_stack` on a stack of states that were already checked."""
    states = np.ascontiguousarray(states, dtype=np.complex128)  # a state's array may be strided
    pure = states.ndim == 2
    coherence = _coherence_rows(dims, states, None)
    index, last, divisor, tangle = _fold_plan(dims, pure)
    rhs = np.add.accumulate(coherence[index], axis=1)[last] / divisor
    tau = None
    if tangle.size:
        tau = three_tangle_stack(states)
        rhs[tangle] += tau
    return coherence, tau, rhs


def run_suite(state: State, tolerance: float = EPS_INEQ) -> list[InequalityResult]:
    """Evaluate every bound of :func:`bounds`, in table order, as a one-row :func:`suite_stack`.

    No check here: the constructor checked the state, or the library built it from checked data.
    """
    stack = _as_stack(state)
    tolerance = check_tolerance(tolerance)
    coherence, _, rhs = _evaluate_stack(state.dims, stack)
    lhs = coherence[-1, 0].item()
    names = suite_names(state.dims, stack.ndim == 2)
    return [_result(name, lhs, r, tolerance) for name, r in zip(names, rhs[:, 0].tolist())]


# ---------------------------------------------------------------------------
# CSV schema: a record's fields in order (name,lhs,rhs,slack,holds,tolerance
# for a result), reals with 17 significant digits, enough for exact double
# round-trips.  Aggregate rows are prefixed "AGG".
# ---------------------------------------------------------------------------

CSV_HEADER = ",".join(f.name for f in fields(InequalityResult))


def _csv_field(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def csv_row(record) -> str:
    """The fields of a result or report dataclass, in order, as one CSV line."""
    return ",".join(_csv_field(getattr(record, f.name)) for f in fields(record))


def write_results_csv(fh: TextIO, results: Iterable[InequalityResult]) -> None:
    fh.write(CSV_HEADER + "\n")
    for r in results:
        fh.write(csv_row(r) + "\n")
