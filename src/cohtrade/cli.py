"""Batch command-line driver: verify, sweep, sample, search and oracle."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .coherence import EPS_INEQ
from .ensemble import TrialReport, ensemble_reports
from .families import FAMILIES, FAMILY_PARAMETERS, QUANTITIES, default_grid, family_sweep
from .inequalities import (
    InequalityResult,
    _csv_field,
    check_tolerance,
    csv_row,
    is_conjecture,
    run_suite,
    write_results_csv,
)
from .search import DEFAULT_ITERATIONS, DEFAULT_ROUNDS, minimize_slack
from .states import InvalidStateError, LocalDims, sample_haar_pure
from .stateio import read_state_file
from .tangle import ckw_tangle_oracle, dprime_slack, three_tangle

#: Header of ``sample --csv``: ``AGG``, then the fields of each bound's :class:`TrialReport`.
AGG_CSV_HEADER = ",".join(("AGG", *(f.name for f in fields(TrialReport))))


def _print_result_table(results: list[InequalityResult], out) -> None:
    print(f"{'name':<14}{'lhs':<24}{'rhs':<24}{'slack':<24}holds", file=out)
    for r in results:
        status = "yes" if r.holds else ("violated (conjecture)" if is_conjecture(r.name) else "VIOLATED")
        print(
            f"{r.name:<14}{r.lhs:<24.16g}{r.rhs:<24.16g}{r.slack:<24.16g}{status}",
            file=out,
        )


def _cmd_verify(args) -> int:
    results = run_suite(read_state_file(args.statefile), args.tolerance)
    _print_result_table(results, sys.stdout)
    failures = [r for r in results if not r.holds and not is_conjecture(r.name)]
    for r in failures:
        print(f"bound violated: {r.name} (slack {r.slack:.3e})", file=sys.stderr)
    # written after the report, so that an unwritable file loses no line of it
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            write_results_csv(fh, results)
    return 1 if failures else 0


def _cmd_sweep(args) -> int:
    grid = default_grid(args.family, args.points)
    records = family_sweep(args.family, grid, args.tolerance)
    worst = {q: 0.0 for q in QUANTITIES}
    min_slack: dict[str, float] = {}
    for rec in records:
        for q in QUANTITIES:
            worst[q] = max(worst[q], abs(rec.numeric[q] - rec.closed[q]))
        for r in rec.results:
            min_slack[r.name] = min(min_slack.get(r.name, float("inf")), r.slack)
    print(f"family {args.family}: {len(records)} points")
    for q in QUANTITIES:
        print(f"  max |numeric - closed| for {q}: {worst[q]:.3e}")
    for name, slack in min_slack.items():
        note = " (conjecture)" if is_conjecture(name) else ""
        print(f"  min slack {name}: {slack:.6g}{note}")

    if args.csv:
        verifier_names = [r.name for r in records[0].results]
        header = (
            ["family", "index", *FAMILY_PARAMETERS[args.family]]
            + [col for q in QUANTITIES for col in (f"{q}_closed", q)]
            + [col for v in verifier_names for col in (f"{v}:slack", f"{v}:holds")]
        )
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for i, rec in enumerate(records):
                row = [args.family, i, *rec.point.params]
                for q in QUANTITIES:
                    row += [rec.closed[q], rec.numeric[q]]
                for r in rec.results:
                    row += [r.slack, r.holds]
                fh.write(",".join(map(_csv_field, row)) + "\n")
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
    for rep in reports:
        if rep.violations and not is_conjecture(rep.name):
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
    max_diff = 0.0
    min_dprime_slack = float("inf")
    for t in range(args.trials):
        psi = sample_haar_pure(dims, args.seed + t)
        tau = three_tangle(psi)
        max_diff = max(max_diff, abs(tau - ckw_tangle_oracle(psi)))
        min_dprime_slack = min(min_dprime_slack, dprime_slack(psi) - tau)
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


def build_parser() -> argparse.ArgumentParser:
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
