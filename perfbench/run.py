"""cohtrade benchmark runner.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

It imports cohtrade from ``src/`` of the checkout and nowhere else, then
runs the workload's rounds closed loop, one caller in one process, until
``--seconds`` of op time have passed.  Every op's output is checked; at
seed 0, round 0 is also compared with ``reference.json``.  Human-readable
lines and a ``run-record`` line (commit, argv, seed, Python, numpy, BLAS
vendor, its thread count and the thread variables as found, nproc, CPU
affinity) come first; the last line of standard output is the JSON result.
A checkout without ``src/cohtrade`` exits 2 and prints no result.

End-to-end metrics (``--trace 0``), per workload unit: a sampled state for
``ensemble-*``, a simplex evaluation for ``search-3q``, and a state checked
(a verified file, a sweep point or an oracle trial) for ``cli-files``:

* ``setup_s``: import of cohtrade plus a warm-up call that fills the
  reduction plans, median of fresh interpreters (numpy already imported).
* ``states_per_s``: units per second, median over rounds.
* ``latency_p50_ms`` / ``latency_p90_ms``: quantiles of the latency ops
  (one ``ensemble_reports`` call, of 8 trials at three qubits and 1 trial
  at the wide dims; one proved-objective restart; one ``verify`` of a
  well-formed file), median over windows of at least ``WINDOW_OPS`` ops;
  the sample count is printed.
* ``peak_rss_mb``: peak resident memory of the run's process.

Time metrics are scaled to nominal host speed with ``calibrate.py``.
Failed or wrong ops are counted in the result's ``failed`` against
``attempted``, each named on its own line, and make ``correct`` false.
Inputs that this commit is known to mishandle (``workloads.KNOWN_DEFECTS``)
are not ops: each run feeds them to the program once, untimed, and prints
whether the defect is still there.

With ``--trace 1`` the run alternates untraced and traced rounds and
reports per-layer self times and counts from ``tracer.py`` instead, plus
the tracing overhead (traced minus untraced time per unit).  The program
is single-threaded with no queues, so no layer has a wait time; the run
record says so rather than reporting zeros.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
SETUP_PROBES = 11
CALIBRATE_EVERY_S = 0.025  # op time between two host-speed measurements
WINDOW_OPS = 200  # latency ops per window of the latency quantiles
REF_RTOL = 1e-10  # relative to max(1, |reference|); a 1e-6 nudge fails
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "states_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "states.sample_us": "us",
    "states.validate_us": "us",
    "states.validate_calls": "count",
    "states.partial_trace_calls": "count",
    "states.partial_trace_us": "us",
    "states.project_us": "us",
    "states.pure_ctor_us": "us",
    "coherence.subset_calls": "count",
    "coherence.subset_us": "us",
    "coherence.l1_us": "us",
    "coherence.bytes_computed": "B",
    "tangle.tau_calls": "count",
    "tangle.tau_us": "us",
    "tangle.oracle_us": "us",
    "inequalities.suite_self_us": "us",
    "inequalities.verifier_calls": "count",
    "inequalities.verifier_self_us": "us",
    "search.evals": "count",
    "search.simplex_self_us_per_eval": "us",
    "families.sweep_self_us_per_point": "us",
    "stateio.read_us": "us",
    "stateio.read_bytes": "B",
    "stateio.rejected": "count",
    "stateio.malformed_accepted": "count",
    "cli.aggregate_self_us": "us",
    "cli.csv_write_us": "us",
    "cli.main_self_us": "us",
    "trace.overhead_us": "us",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


def import_program():
    if not os.path.isfile(os.path.join(SRC, "cohtrade", "__init__.py")):
        raise SetupError(f"no cohtrade package under {SRC}")
    sys.path.insert(0, SRC)
    import cohtrade

    if os.path.dirname(os.path.dirname(os.path.abspath(cohtrade.__file__))) != SRC:
        raise SetupError(f"cohtrade imported from {cohtrade.__file__}, not from {SRC}")
    return cohtrade


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown: checkout is not a git repository"
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unknown: unresolved {ref}"


def _blas_threads():
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record(args, argv) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"vendor": deps.get("name"), "version": deps.get("version")}
    except Exception as exc:  # the record is best effort; the run goes on
        blas = {"vendor": f"unknown ({type(exc).__name__})"}
    blas["threads"] = _blas_threads()
    blas["env"] = {var: os.environ.get(var) for var in BLAS_ENV}
    return {
        "commit": _git_commit(),
        "argv": argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loop": "closed, one caller, one process",
        "wait": "none: single-threaded with no queues, so no layer waits",
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(workload: str) -> list[float]:
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-I", probe, SRC, workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        seconds, slowdown = map(float, done.stdout.splitlines()[-1].split())
        times.append(seconds / slowdown)
    return times


def compare(actual, expected, path="") -> list[str]:
    """Differences between a round-0 summary and the stored reference."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: {actual!r} is not a mapping"]
        diffs = []
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}/{key}" if path else key
            if key not in actual or key not in expected:
                diffs.append(f"{where}: missing on one side")
            elif key == "argmin_seed" and not expected.get("argmin_unique", True):
                continue
            else:
                diffs.extend(compare(actual[key], expected[key], where))
        return diffs
    if isinstance(expected, float) and not isinstance(actual, bool):
        if not abs(actual - expected) <= REF_RTOL * max(1.0, abs(expected)):
            return [f"{path}: {actual!r} != reference {expected!r}"]
        return []
    return [] if actual == expected else [f"{path}: {actual!r} != reference {expected!r}"]


def run_round(wl, r, failures):
    """Run round r; returns (ops, outputs, per-op seconds, per-op slowdown).

    The host-speed kernel runs before the round, after it, and between ops
    whenever ``CALIBRATE_EVERY_S`` of op time has passed; an op's slowdown
    is the mean of the two measurements around it.  An op that raises is
    appended to ``failures`` as (op label, message); outputs are checked
    separately, by ``check_round``, so that checks stay out of timed and
    traced time.
    """
    ops = wl.ops(r)
    outs, secs, segment = [], [], []
    probes = [calibrate.measure()]
    since = 0.0
    clock = time.perf_counter
    for op in ops:
        if since >= CALIBRATE_EVERY_S:
            probes.append(calibrate.measure())
            since = 0.0
        t0 = clock()
        try:
            out = op.call()
        except Exception as exc:  # a crash is a failed op, reported by name
            out = None
            failures.append((op.label, f"raised {type(exc).__name__}: {exc}"))
        dt = clock() - t0
        since += dt
        secs.append(dt)
        outs.append(out)
        segment.append(len(probes) - 1)
    probes.append(calibrate.measure())
    slow = [(probes[k] + probes[k + 1]) / (2.0 * calibrate.NOMINAL_S) for k in segment]
    return ops, outs, secs, slow


def check_round(wl, ops, outs, failures) -> None:
    for op, out in zip(ops, outs):
        if out is not None:
            problem = wl.check(op, out)
            if problem is not None:
                failures.append((op.label, problem))


def quantile(values, q):
    """statistics.quantiles at probability q (exclusive method)."""
    cuts = statistics.quantiles(values, n=100)
    return cuts[round(q * 100) - 1]


def windowed_quantile(round_latencies, q):
    """Median, over windows of whole rounds, of each window's q-quantile.

    A window collects consecutive rounds until it holds ``WINDOW_OPS``
    latency ops; a short tail joins the window before it.  A burst of
    interference the host-speed scaling misses then moves one window, not
    the run's pooled tail.
    """
    windows, current = [], []
    for latencies in round_latencies:
        current.extend(latencies)
        if len(current) >= WINDOW_OPS:
            windows.append(current)
            current = []
    if current and windows:
        windows[-1].extend(current)
    elif current:
        windows.append(current)
    return statistics.median([quantile(w, q) for w in windows])


def layer_metrics(
    tracer, units, traced_rounds, first_round_evals, overhead_s, slowdown, defects
):
    """Per-layer metrics of the traced rounds, per unit of work unless named.

    Self times are scaled to nominal host speed by ``slowdown``.
    """

    def us(span, per=units):
        return 1e6 * tracer.self_s.get(span, 0.0) / slowdown / per if per else 0.0

    def per_unit(count):
        return count / units if units else 0.0

    calls = tracer.calls
    extra = tracer.extra
    evals = extra.get("search.evals", 0)
    reads = calls.get("stateio.read", 0)
    return {
        "states.sample_us": us("states.sample"),
        "states.validate_us": us("states.validate"),
        "states.validate_calls": per_unit(calls.get("states.validate", 0)),
        "states.partial_trace_calls": per_unit(calls.get("states.partial_trace", 0)),
        "states.partial_trace_us": us("states.partial_trace"),
        "states.project_us": us("states.project"),
        "states.pure_ctor_us": us("states.pure_ctor"),
        "coherence.subset_calls": per_unit(calls.get("coherence.subset", 0)),
        "coherence.subset_us": us("coherence.subset"),
        "coherence.l1_us": us("coherence.l1"),
        "coherence.bytes_computed": per_unit(extra.get("coherence.bytes_computed", 0)),
        "tangle.tau_calls": per_unit(calls.get("tangle.tau", 0)),
        "tangle.tau_us": us("tangle.tau"),
        "tangle.oracle_us": us("tangle.oracle"),
        "inequalities.suite_self_us": us("inequalities.suite"),
        "inequalities.verifier_calls": per_unit(calls.get("inequalities.verifier", 0)),
        "inequalities.verifier_self_us": us("inequalities.verifier"),
        "search.evals": first_round_evals,
        "search.simplex_self_us_per_eval": us("search.simplex", evals),
        "families.sweep_self_us_per_point": us(
            "families.sweep", extra.get("families.sweep_points", 0)
        ),
        "stateio.read_us": us("stateio.read", reads),
        "stateio.read_bytes": extra.get("stateio.read_bytes", 0) / reads if reads else 0.0,
        "stateio.rejected": extra.get("stateio.read.rejected", 0) / traced_rounds,
        "stateio.malformed_accepted": sum(rc == 0 for _, _, rc in defects),
        "cli.aggregate_self_us": us("cli.aggregate"),
        "cli.csv_write_us": us("cli.csv_write"),
        "cli.main_self_us": us("cli.main"),
        "trace.overhead_us": 1e6 * per_unit(overhead_s),
    }


def benchmark(args) -> dict:
    import workloads
    from tracer import Tracer, installed_wrappers

    wl = workloads.WORKLOADS[args.workload]()
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl.setup(args.seed, workdir)
        wl.warm_up()
        failures: list[tuple[str, str]] = []
        tracer = Tracer() if args.trace else None
        # times below are scaled to nominal host speed (see calibrate.py)
        round_rates, round_latencies, slowdowns = [], [], []
        plain_s = plain_units = traced_s = traced_raw_s = traced_units = 0.0
        traced_rounds = 0
        first_round_evals = None
        measured = 0.0
        r = attempted = failed_ops = seen = 0
        while r < wl.min_rounds or measured < args.seconds:
            traced = tracer is not None and r % 2 == 1
            if traced:
                tracer.run_id = f"{args.workload}/seed{args.seed}/round{r}"
                with tracer:
                    ops, outs, secs, slow = run_round(wl, r, failures)
            else:
                ops, outs, secs, slow = run_round(wl, r, failures)
            check_round(wl, ops, outs, failures)
            measured += sum(secs)
            if traced:
                traced_raw_s += sum(secs)
            scaled = [t / f for t, f in zip(secs, slow)]
            wall = sum(scaled)
            units = sum(op.units(out) for op, out in zip(ops, outs) if out is not None)
            if traced:
                traced_s += wall
                traced_units += units
                traced_rounds += 1
                slowdowns.extend(slow)
                if first_round_evals is None:
                    first_round_evals = tracer.extra.get("search.evals", 0)
                    tracer.record = False  # export the spans of one round only
            else:
                plain_s += wall
                plain_units += units
                round_rates.append(units / wall)
                round_latencies.append([t for op, t in zip(ops, scaled) if op.latency])
                if tracer is None:
                    slowdowns.extend(slow)
            if r == 0 and args.seed == DEFAULT_SEED:
                with open(REFERENCE, encoding="utf-8") as fh:
                    expected = json.load(fh)[args.workload]
                diffs = compare(wl.summary(ops, outs), expected)
                failures.extend(("reference", diff) for diff in diffs)
                failed_ops += 1 if diffs else 0
                attempted += 1
            attempted += len(ops)
            failed_ops += len({label for label, _ in failures[seen:] if label != "reference"})
            seen = len(failures)
            r += 1
        run_problems = wl.run_checks()
        failures.extend(("run", problem) for problem in run_problems)
        attempted += 1
        failed_ops += 1 if run_problems else 0
        defects = wl.probe_known_defects()

        slowdown = statistics.median(slowdowns)
        notes = [
            f"rounds {r}, measured {measured:.3f} s, unit {wl.unit}; host ran "
            f"{slowdown:.3f}x nominal time (median), times are scaled to nominal"
        ]
        if tracer is not None:
            leftover = installed_wrappers()
            if leftover:
                failures.append(("trace", f"wrappers left installed: {leftover}"))
            tracer.export(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            overhead_s = traced_s - plain_s / plain_units * traced_units
            metrics = layer_metrics(
                tracer, traced_units, traced_rounds, first_round_evals or 0, overhead_s,
                slowdown, defects,
            )
            units = PER_LAYER_UNITS
            notes.append(
                f"traced rounds {traced_rounds}, {traced_units:.0f} {wl.unit}s; unscaled: "
                f"traced wall {traced_raw_s:.4f} s, self-time sum {tracer.total_self_s():.4f} s; "
                f"scaled overhead {overhead_s:.4f} s against untraced rounds"
            )
        else:
            metrics = {
                "setup_s": statistics.median(args.setup_times),
                "states_per_s": statistics.median(round_rates),
                "latency_p50_ms": 1e3 * windowed_quantile(round_latencies, 0.5),
                "latency_p90_ms": 1e3 * windowed_quantile(round_latencies, 0.9),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            notes += [
                f"states_per_s median of {len(round_rates)} rounds; latency over "
                f"{sum(map(len, round_latencies))} ops in windows of {WINDOW_OPS} or more",
                f"setup_s median of {len(args.setup_times)} fresh interpreters: "
                + ", ".join(f"{t:.4f}" for t in args.setup_times),
            ]
        return {
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "failures": failures,
            "attempted": attempted,
            "failed": failed_ops,
            "defects": defects,
            "notes": notes,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        import_program()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise SetupError(
                f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}"
            )
        args.setup_times = measure_setup(args.workload) if not args.trace else []
        record = run_record(args, [os.path.basename(sys.executable), *sys.argv])
        result = benchmark(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in result["notes"]:
        print(f"  {note}")
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    for (label, msg), n in collections.Counter(result["failures"]).items():
        print(f"  FAILED: {label}: {msg} (x{n})")
    for label, defect, rc in result["defects"]:
        state = "still present" if rc == 0 else f"fixed, exits {rc} now"
        print(f"  known defect, not an op: {label}: {defect}: {state}")
    print("run-record " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not result["failures"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
