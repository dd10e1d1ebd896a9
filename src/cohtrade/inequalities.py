"""Every coherence trade-off bound as one entry of an ordered table.

All bounds share one shape, ``C_full >= (sum of C_S over a subset family) / k``,
with the three-tangle tau added on the right for the pure-state bounds; a
:class:`Bound` holds the family, the divisor k and whether tau is added.
:func:`bounds` lists the entries that apply to an input, in the order
results are reported.  Names are stable identifiers used for CSV rows, CLI
addressing and search objectives:

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
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Sequence, TextIO, Union

from .coherence import EPS_INEQ, coherence_profile, gamma, l1_coherence, subset_coherence
from .states import DensityOperator, LocalDims, PureState, SubsystemSet, _as_dims, density_from_pure
from .tangle import three_tangle

State = Union[PureState, DensityOperator]

#: Verifiers excluded from pass/fail exit policies: their violations are data.
CONJECTURE_PREFIX = "eq4"


@dataclass(frozen=True)
class InequalityResult:
    """Outcome of one verified bound; ``holds`` means slack >= -tolerance."""

    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    tolerance: float


def _result(name: str, lhs: float, rhs: float, tolerance: float) -> InequalityResult:
    slack = lhs - rhs
    return InequalityResult(name, lhs, rhs, slack, slack >= -tolerance, tolerance)


def is_conjecture(name: str) -> bool:
    return name.startswith(CONJECTURE_PREFIX)


@dataclass(frozen=True)
class Bound:
    """C_full >= (sum of C_S over ``subsets``) / ``divisor``, plus tau if ``tangle``."""

    name: str
    subsets: tuple[SubsystemSet, ...]
    divisor: int
    tangle: bool = False

    def rhs(self, coherence: Callable[[SubsystemSet], float], tau: float = 0.0) -> float:
        # a left fold in subset order, then one division: the builtin sum()
        # compensates float sums from Python 3.12 on, and sum(x) / k differs
        # from sum(x / k), either of which would move slacks in the last bit
        total = 0.0
        for subset in self.subsets:
            total += coherence(subset)
        total /= self.divisor
        return total + tau if self.tangle else total

    def evaluate(
        self, rho: DensityOperator, tolerance: float = EPS_INEQ, tau: float = 0.0
    ) -> InequalityResult:
        """This bound alone: computes only its own subsets and does not validate ``rho``."""
        rhs = self.rhs(partial(subset_coherence, rho), tau)
        return _result(self.name, l1_coherence(rho), rhs, tolerance)


_PAIRS = gamma(2, 3).members
_THM1 = Bound("thm1", _PAIRS, 2)
_EQ4 = {p: Bound(f"eq4-pivot{p}", tuple(s for s in _PAIRS if p in s), 1) for p in (1, 2, 3)}
_EQ5 = {
    s: Bound(f"eq5-single{s}", (SubsystemSet((s,)), SubsystemSet(sorted({1, 2, 3} - {s}))), 1)
    for s in (1, 2, 3)
}
_THM3 = Bound("thm3", _PAIRS, 2, tangle=True)
_EQ10 = Bound("eq10", gamma(1, 3).members, 1, tangle=True)


def _singles_bound(n: int) -> Bound:
    return Bound("eq3", gamma(1, n).members, 1)


def corollary_name(dims, m: int) -> str:
    return f"cor1-m{m}" if dims.all_qubits else f"cor2-m{m}"


def _corollary_bound(dims: LocalDims, m: int) -> Bound:
    n = dims.n_parties
    return Bound(corollary_name(dims, m), gamma(m, n).members, math.comb(n - 1, m - 1))


def bounds(dims: "LocalDims | Sequence[int]", pure: bool) -> list[Bound]:
    """Every bound that applies to a pure or mixed input at ``dims``, in report order.

    The three-qubit bounds come first, then the subset-family bound for every
    m; the tangle bounds follow for pure three-qubit input only.
    """
    return list(_bound_table(_as_dims(dims), bool(pure)))


@lru_cache(maxsize=None)
def _bound_table(dims: LocalDims, pure: bool) -> tuple[Bound, ...]:
    # cached: the suite looks the table up for every state or stacked chunk
    three_qubit = dims.dims == (2, 2, 2)
    table: list[Bound] = []
    if three_qubit:
        table += [_THM1, _singles_bound(3), *_EQ4.values(), *_EQ5.values()]
    table += [_corollary_bound(dims, m) for m in range(1, dims.n_parties + 1)]
    if pure and three_qubit:
        table += [_THM3, _EQ10]
    return tuple(table)


def _require_three_qubit(rho: DensityOperator) -> None:
    if rho.dims.dims != (2, 2, 2):
        raise ValueError(f"three-qubit state required, got dims {rho.dims.dims}")


def _evaluate_tangle_bound(bound: Bound, psi: PureState, tolerance: float) -> InequalityResult:
    if not isinstance(psi, PureState):
        raise TypeError("pure state required: the tangle bound does not cover mixed states")
    rho = density_from_pure(psi)
    _require_three_qubit(rho)
    return bound.evaluate(rho, tolerance, three_tangle(psi).tau)


def verify_theorem1(rho: DensityOperator, tolerance: float = EPS_INEQ) -> InequalityResult:
    """C123 >= (C12 + C13 + C23) / 2 for any three-qubit state."""
    _require_three_qubit(rho)
    return _THM1.evaluate(rho, tolerance)


def verify_singles_sum(rho: DensityOperator, tolerance: float = EPS_INEQ) -> InequalityResult:
    """Full coherence >= sum of all single-party coherences."""
    return _singles_bound(rho.dims.n_parties).evaluate(rho, tolerance)


def verify_additive_conjecture(
    rho: DensityOperator, pivot: int, tolerance: float = EPS_INEQ
) -> InequalityResult:
    """C123 >= sum of the two pairwise coherences containing ``pivot``.

    This bound is known to be violated; results document the violation
    rather than signalling failure.
    """
    _require_three_qubit(rho)
    if pivot not in (1, 2, 3):
        raise ValueError(f"pivot must be 1, 2 or 3, got {pivot}")
    return _EQ4[pivot].evaluate(rho, tolerance)


def verify_marginal_split(
    rho: DensityOperator, single: int, tolerance: float = EPS_INEQ
) -> InequalityResult:
    """C123 >= C_single + C_complement for any three-qubit state."""
    _require_three_qubit(rho)
    if single not in (1, 2, 3):
        raise ValueError(f"single must be 1, 2 or 3, got {single}")
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
    return _evaluate_tangle_bound(_THM3, psi, tolerance)


def verify_eq10(psi: PureState, tolerance: float = EPS_INEQ) -> InequalityResult:
    """C123 >= C1 + C2 + C3 + tau for pure three-qubit states."""
    return _evaluate_tangle_bound(_EQ10, psi, tolerance)


def suite_names(dims, pure: bool) -> list[str]:
    """Table-ordered names of the bounds applicable to the given input."""
    return [b.name for b in bounds(dims, pure)]


def run_suite(state: State, tolerance: float = EPS_INEQ) -> list[InequalityResult]:
    """Evaluate every bound of :func:`bounds`, in table order.

    The coherence of every reduction, and tau for a pure three-qubit state,
    are computed once and shared by all bounds.  A density operator is
    validated up front so a malformed state yields no partial results; a
    pure state is checked at construction and its projector is a state.
    """
    if isinstance(state, PureState):
        rho = density_from_pure(state)
    elif isinstance(state, DensityOperator):
        rho = state.validate()
    else:
        raise TypeError(f"expected PureState or DensityOperator, got {type(state).__name__}")
    table = bounds(rho.dims, isinstance(state, PureState))
    coherence = coherence_profile(rho).by_subset
    lhs = coherence[SubsystemSet(tuple(range(1, rho.dims.n_parties + 1)))]
    tau = three_tangle(state).tau if any(b.tangle for b in table) else 0.0
    return [_result(b.name, lhs, b.rhs(coherence.__getitem__, tau), tolerance) for b in table]


# ---------------------------------------------------------------------------
# CSV schema: name,lhs,rhs,slack,holds,tolerance with 17 significant digits,
# enough for exact double round-trips.  Aggregate rows are prefixed "AGG".
# ---------------------------------------------------------------------------

CSV_HEADER = "name,lhs,rhs,slack,holds,tolerance"


def format_real(x: float) -> str:
    return f"{x:.17g}"


def result_to_csv(r: InequalityResult) -> str:
    return ",".join(
        (
            r.name,
            format_real(r.lhs),
            format_real(r.rhs),
            format_real(r.slack),
            "true" if r.holds else "false",
            format_real(r.tolerance),
        )
    )


def write_results_csv(fh: TextIO, results: Iterable[InequalityResult]) -> None:
    fh.write(CSV_HEADER + "\n")
    for r in results:
        fh.write(result_to_csv(r) + "\n")


def parse_results_csv(fh: TextIO) -> list[InequalityResult]:
    """Read standard result rows back; aggregate ("AGG") rows are skipped."""
    results = []
    for i, line in enumerate(fh):
        line = line.strip()
        if not line or (i == 0 and line == CSV_HEADER):
            continue
        fields = line.split(",")
        if fields[0] == "AGG":
            continue
        if len(fields) != 6:
            raise ValueError(f"expected 6 fields per row, got {len(fields)}: {line!r}")
        name, lhs, rhs, slack, holds, tol = fields
        if holds not in ("true", "false"):
            raise ValueError(f"holds must be 'true' or 'false', got {holds!r}")
        results.append(
            InequalityResult(
                name, float(lhs), float(rhs), float(slack), holds == "true", float(tol)
            )
        )
    return results
