"""cohtrade: l1-norm coherence trade-off bounds for multipartite quantum states.

The package computes the l1-norm coherence of dense multipartite states and
all their reductions, evaluates the family of trade-off inequalities that
relate them (including the tangle-strengthened bound for pure three-qubit
states and the known counterexample to the additive two-pair conjecture),
and ships samplers, parameterized state families, an extremal-slack search
and a batch CLI for large-scale numerical verification.
"""

from .coherence import (
    AMPLITUDE_MIN_DIM,
    EPS_INEQ,
    coherence_stack,
    gamma,
    l1_coherence,
    subset_coherence,
)
from .ensemble import TrialReport, ensemble_reports
from .families import (
    FAMILIES,
    Sweep,
    closed_forms,
    default_grid,
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
    run_suite,
    suite_names,
    suite_stack,
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
    MAX_TOTAL_DIM,
    DensityOperator,
    InvalidStateError,
    LocalDims,
    PureState,
    SubsystemSet,
    density_from_pure,
    partial_trace,
    sample_ginibre_mixed,
    sample_haar_pure,
)
from .stateio import read_state_file, state_from_dict, state_to_dict, write_state_file
from .tangle import ckw_tangle_oracle, three_tangle

__version__ = "0.1.0"


def __getattr__(name: str):
    # the CLI is imported on first use, so that ``python -m cohtrade.cli``
    # runs the module once, as __main__, rather than after a package import
    if name == "cli_main":
        from .cli import cli_main

        return cli_main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AMPLITUDE_MIN_DIM",
    "Bound",
    "CSV_HEADER",
    "DensityOperator",
    "EPS_HERM",
    "EPS_INEQ",
    "EPS_NORM",
    "EPS_PSD",
    "FAMILIES",
    "InequalityResult",
    "InvalidStateError",
    "LocalDims",
    "MAX_TOTAL_DIM",
    "PureState",
    "SearchOutcome",
    "SubsystemSet",
    "Sweep",
    "TrialReport",
    "bounds",
    "ckw_tangle_oracle",
    "cli_main",
    "closed_forms",
    "coherence_stack",
    "default_grid",
    "density_from_pure",
    "ensemble_reports",
    "family_sweep",
    "gamma",
    "ghz_state",
    "l1_coherence",
    "minimize_slack",
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
    "suite_stack",
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
    "write_results_csv",
    "write_state_file",
]
