"""Batch command-line driver: verify, sweep, sample, search and oracle."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from functools import cache

import numpy as np

from .coherence import EPS_INEQ
from .ensemble import TrialReport, ensemble_reports
from .families import FAMILIES, FAMILY_PARAMETERS, QUANTITIES, default_grid, family_sweep
from .inequalities import (
    InequalityResult,
    bounds,
    check_tolerance,
    chunk_states,
    csv_row,
    run_suite,
    write_results_csv,
)
from .search import DEFAULT_ITERATIONS, DEFAULT_ROUNDS, minimize_slack
from .states import InvalidStateError, LocalDims, PureState, check_seed, sample_haar_stack
from .stateio import read_state_file
from .tangle import ckw_tangle_oracle_stack, three_tangle_stack

#: Header of ``sample --csv``: ``AGG``, then the fields of each bound's :class:`TrialReport`.
AGG_CSV_HEADER = ",".join(("AGG", *(f.name for f in fields(TrialReport))))


def _proved(dims: LocalDims, pure: bool) -> dict[str, bool]:
    return {b.name: b.proved for b in bounds(dims, pure)}


def _print_result_table(results: list[InequalityResult], proved: dict[str, bool], out) -> None:
    print(f"{'name':<14}{'lhs':<24}{'rhs':<24}{'slack':<24}holds", file=out)
    for r in results:
        status = "yes" if r.holds else ("VIOLATED" if proved[r.name] else "violated (conjecture)")
        print(
            f"{r.name:<14}{r.lhs:<24.16g}{r.rhs:<24.16g}{r.slack:<24.16g}{status}",
            file=out,
        )


def _cmd_verify(args) -> int:
    state = read_state_file(args.statefile)
    results = run_suite(state, args.tolerance)
    proved = _proved(state.dims, isinstance(state, PureState))
    _print_result_table(results, proved, sys.stdout)
    failures = [r for r in results if not r.holds and proved[r.name]]
    for r in failures:
        print(f"bound violated: {r.name} (slack {r.slack:.3e})", file=sys.stderr)
    # written after the report, so that an unwritable file loses no line of it
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            write_results_csv(fh, results)
    return 1 if failures else 0


def _cmd_sweep(args) -> int:
    grid = default_grid(args.family, args.points)
    sweep = family_sweep(args.family, grid, args.tolerance)
    worst = np.abs(sweep.numeric - sweep.closed).max(axis=1)
    print(f"family {args.family}: {len(sweep)} points")
    for q, gap in zip(QUANTITIES, worst.tolist()):
        print(f"  max |numeric - closed| for {q}: {gap:.3e}")
    proved = _proved(LocalDims((2, 2, 2)), pure=True)
    for name, slack in zip(sweep.names, sweep.slack.min(axis=1).tolist()):
        note = "" if proved[name] else " (conjecture)"
        print(f"  min slack {name}: {slack:.6g}{note}")

    if args.csv:
        header = (
            ["family", "index", *FAMILY_PARAMETERS[args.family]]
            + [col for q in QUANTITIES for col in (f"{q}_closed", q)]
            + [col for v in sweep.names for col in (f"{v}:slack", f"{v}:holds")]
        )
        pairs = np.stack((sweep.closed, sweep.numeric), axis=1).reshape(-1, len(sweep))
        cells = [[f"{x:.17g}" for x in col] for col in (*zip(*sweep.params), *pairs.tolist())]
        for slack, holds in zip(sweep.slack.tolist(), sweep.holds.tolist()):
            cells += [[f"{x:.17g}" for x in slack], ["true" if h else "false" for h in holds]]
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for i, row in enumerate(zip(*cells)):  # each column was formatted whole
                fh.write(f"{args.family},{i},{','.join(row)}\n")
    return 0


def _cmd_sample(args) -> int:
    dims = args.dims
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    reports = ensemble_reports(dims, args.trials, args.seed, args.mixed, args.rank, args.tolerance)
    kind = "mixed" if args.mixed else "pure"
    print(f"dims {dims.dims} {kind}: {args.trials} trials, base seed {args.seed}")
    print(f"{'name':<14}{'trials':<9}{'violations':<12}{'min slack':<26}extremal seed")
    for rep in reports:
        print(
            f"{rep.name:<14}{rep.trials:<9}{rep.violations:<12}"
            f"{rep.min_slack:<26.17g}{rep.argmin_seed}"
        )
    proved = _proved(dims, not args.mixed)
    for rep in reports:
        if rep.violations and proved[rep.name]:
            print(
                f"WARNING: proved bound {rep.name} violated in {rep.violations} trials "
                f"(min slack {rep.min_slack:.3e}, seed {rep.argmin_seed})",
                file=sys.stderr,
            )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(AGG_CSV_HEADER + "\n")
            for rep in reports:
                fh.write(f"AGG,{csv_row(rep)}\n")
    return 0


def _cmd_search(args) -> int:
    dims = args.dims
    outcome = minimize_slack(
        args.objective, dims, args.restarts, args.seed, args.iterations, args.rounds
    )
    print(f"objective {outcome.objective} at dims {dims.dims}")
    print(f"  best slack:  {outcome.best_value:.17g}")
    print(f"  evaluations: {outcome.evaluations}")
    print(f"  seed:        {outcome.seed}")
    print("  best state amplitudes:")
    for i, amp in enumerate(outcome.best_state.amps):
        print(f"    [{i}] {amp.real:+.12f} {amp.imag:+.12f}i")
    return 0


def _cmd_oracle(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    dims = LocalDims((2, 2, 2))
    seed, stop = check_seed(args.seed), args.seed + args.trials
    chunk = chunk_states(dims, pure=True)
    thm1 = next(b for b in bounds(dims, pure=True) if b.name == "thm1")
    max_diff = 0.0
    min_dprime_slack = float("inf")
    for start in range(seed, stop, chunk):  # one stack of seeds per chunk
        stack = sample_haar_stack(dims, range(start, min(start + chunk, stop)))
        tau = three_tangle_stack(stack)
        max_diff = max(max_diff, np.abs(tau - ckw_tangle_oracle_stack(stack)).max().item())
        min_dprime_slack = min(min_dprime_slack, (thm1.residual(stack) - tau).min().item())
    print(f"tangle oracle comparison over {args.trials} Haar states (base seed {args.seed})")
    print(f"  max |tau_formula - tau_monogamy|: {max_diff:.3e}")
    print(f"  min (D'/2 - tau):                 {min_dprime_slack:.3e}")
    agree = max_diff < 1e-8
    print(f"  agreement within 1e-8: {'yes' if agree else 'NO'}")
    return 0


def _dims_arg(text: str) -> LocalDims:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be comma-separated integers, got {text!r}")
    try:
        return LocalDims(dims)
    except InvalidStateError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tolerance_arg(text: str) -> float:
    try:
        return check_tolerance(float(text))
    except ValueError:  # also a non-numeric text
        message = f"tolerance must be a finite number >= 0, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; every ``cli_main`` call reuses it.

    An import that runs no command pays nothing for it.  ``parse_args``
    gives each call a fresh namespace, so callers must not mutate the parser.
    """
    parser = argparse.ArgumentParser(
        prog="cohtrade",
        description="Verify l1-coherence trade-off bounds on multipartite states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the verifier suite on a state file")
    p.add_argument("statefile")
    p.add_argument("--tolerance", type=_tolerance_arg, default=EPS_INEQ)
    p.add_argument("--csv", help="write results to this CSV file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="sweep a parameterized family against closed forms")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--tolerance", type=_tolerance_arg, default=EPS_INEQ)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sample", help="run the suite over a random ensemble")
    p.add_argument("--dims", type=_dims_arg, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mixed", action="store_true")
    p.add_argument("--rank", type=int, help="Ginibre rank (requires --mixed; default: full)")
    p.add_argument("--tolerance", type=_tolerance_arg, default=EPS_INEQ)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("search", help="minimize a verifier's slack over pure states")
    p.add_argument("--objective", required=True)
    p.add_argument("--dims", type=_dims_arg, default="2,2,2")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument(
        "--rounds", type=int, default=DEFAULT_ROUNDS, help="simplex re-inflations per restart"
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("oracle", help="compare the tangle formula against its oracle")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # InvalidStateError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
