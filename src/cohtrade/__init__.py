"""cohtrade: l1-norm coherence trade-off bounds for multipartite quantum states.

The package computes the l1-norm coherence of dense multipartite states and
all their reductions, evaluates the family of trade-off inequalities that
relate them (including the tangle-strengthened bound for pure three-qubit
states and the known counterexample to the additive two-pair conjecture),
and ships samplers, parameterized state families, an extremal-slack search
and a batch CLI for large-scale numerical verification.
"""

from .coherence import (
    EPS_INEQ,
    CoherenceProfile,
    SubsetFamily,
    THEOREM1_D_TERMS,
    coherence_profile,
    correlated_coherence,
    gamma,
    l1_coherence,
    subset_coherence,
    theorem1_slack_D,
)
from .ensemble import TrialReport, ensemble_reports
from .families import (
    FAMILIES,
    FamilyPoint,
    SweepRecord,
    closed_forms,
    default_grid,
    family_point,
    family_sweep,
    ghz_state,
    two_term_state,
    w_state,
)
from .inequalities import (
    CSV_HEADER,
    Bound,
    InequalityResult,
    bounds,
    is_conjecture,
    parse_results_csv,
    run_suite,
    suite_names,
    verify_additive_conjecture,
    verify_corollary1,
    verify_eq10,
    verify_marginal_split,
    verify_singles_sum,
    verify_theorem1,
    verify_theorem3,
    write_results_csv,
)
from .search import SearchOutcome, minimize_slack, resolve_objective
from .states import (
    EPS_HERM,
    EPS_NORM,
    EPS_PSD,
    DensityOperator,
    InvalidStateError,
    LocalDims,
    PureState,
    SubsystemSet,
    decode_index,
    density_from_pure,
    encode_index,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    sample_ginibre_mixed,
    sample_haar_pure,
)
from .stateio import read_state_file, state_from_dict, state_to_dict, write_state_file
from .tangle import (
    TangleBreakdown,
    ckw_tangle_oracle,
    dprime_slack,
    three_tangle,
    wootters_concurrence,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the CLI is imported on first use, so that ``python -m cohtrade.cli``
    # runs the module once, as __main__, rather than after a package import
    if name == "cli_main":
        from .cli import cli_main

        return cli_main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Bound",
    "CSV_HEADER",
    "CoherenceProfile",
    "DensityOperator",
    "EPS_HERM",
    "EPS_INEQ",
    "EPS_NORM",
    "EPS_PSD",
    "FAMILIES",
    "FamilyPoint",
    "InequalityResult",
    "InvalidStateError",
    "LocalDims",
    "PureState",
    "SearchOutcome",
    "SubsetFamily",
    "SubsystemSet",
    "SweepRecord",
    "THEOREM1_D_TERMS",
    "TangleBreakdown",
    "TrialReport",
    "bounds",
    "ckw_tangle_oracle",
    "cli_main",
    "closed_forms",
    "coherence_profile",
    "correlated_coherence",
    "decode_index",
    "default_grid",
    "density_from_pure",
    "dprime_slack",
    "encode_index",
    "ensemble_reports",
    "family_point",
    "family_sweep",
    "gamma",
    "ghz_state",
    "hermitian_eigenvalues",
    "is_conjecture",
    "kron",
    "l1_coherence",
    "minimize_slack",
    "parse_results_csv",
    "partial_trace",
    "read_state_file",
    "resolve_objective",
    "run_suite",
    "sample_ginibre_mixed",
    "sample_haar_pure",
    "state_from_dict",
    "state_to_dict",
    "subset_coherence",
    "suite_names",
    "theorem1_slack_D",
    "three_tangle",
    "two_term_state",
    "verify_additive_conjecture",
    "verify_corollary1",
    "verify_eq10",
    "verify_marginal_split",
    "verify_singles_sum",
    "verify_theorem1",
    "verify_theorem3",
    "w_state",
    "wootters_concurrence",
    "write_results_csv",
    "write_state_file",
]
