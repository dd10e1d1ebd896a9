"""The benchmark's workloads: inputs made from the seed, ops, and output checks.

Every workload is a closed loop with one caller.  It runs in rounds; a round
is a fixed list of ops whose composition never changes, so latency
quantiles always fall in the same population of ops.  Inputs come only from
``--seed`` (and the round number), never from the program's own samplers:
ensemble ops hand the program integer seeds, search ops hand it restart
seeds, and the CLI workload writes its own JSON state files with numpy.

Each op returns the program's output; ``check`` names what is wrong with it
(``None`` when it is right), and ``summary`` reduces round 0 to the values
stored in ``reference.json`` for the default seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from cohtrade import cli, search
from cohtrade.states import LocalDims

EPS_INEQ = 1e-9  # acceptance tolerance for proved bounds
CONJECTURES = ("eq4-pivot1", "eq4-pivot2", "eq4-pivot3")
THREE_QUBITS = (2, 2, 2)
# (dims, calls per round, trials per call), cheapest first.  The counts put
# the latency p50 40% into the 5-qubit calls and the p90 83% into the
# 6-qubit calls, away from the edges between cost classes, so the quantiles
# do not jump.
WIDE_PLAN = (
    ((2, 3, 4), 4, 1),
    ((3, 3, 3), 4, 1),
    ((2, 2, 2, 2, 2), 5, 1),
    ((2, 2, 2, 2, 2, 2), 6, 1),
    ((2, 2, 2, 2, 2, 2, 2, 2), 1, 1),
)
# Three-qubit calls run 8 trials each (one Ginibre rank per call when mixed,
# ranks 1..8 across a round): all states cost the same, so a single-state
# latency p90 would only sample the host's noise; over 8 states it does not.
THREE_QUBIT_PLAN = ((THREE_QUBITS, 8, 8),)
PROVED_OBJECTIVES = (
    "thm2", "cor1-m1", "cor1-m3", "eq3",
    "eq5-single1", "eq5-single2", "eq5-single3", "thm3", "eq10",
)
SEARCH_ITERATIONS = 200
SEARCH_ROUNDS = 12


@dataclass
class Op:
    """One call into a public entry point."""

    label: str
    call: Callable[[], object]
    latency: bool = True  # counts toward the latency quantiles
    units: Callable[[object], int] = lambda out: 1  # states checked by the op
    meta: dict = field(default_factory=dict)


def round_seed(seed: int, r: int, i: int) -> int:
    """Input seed of op i in round r; distinct for every (seed, r, i)."""
    return (seed << 32) + r * 4096 + i


def expected_names(dims: tuple[int, ...], pure: bool) -> list[str]:
    """Verifier names the suite must report for this input."""
    n = len(dims)
    names = []
    if dims == THREE_QUBITS:
        names += ["thm1", "eq3", *CONJECTURES, "eq5-single1", "eq5-single2", "eq5-single3"]
    prefix = "cor1" if all(d == 2 for d in dims) else "cor2"
    names += [f"{prefix}-m{m}" for m in range(1, n + 1)]
    if pure and dims == THREE_QUBITS:
        names += ["thm3", "eq10"]
    return names


def dims_key(dims) -> str:
    return "x".join(str(d) for d in dims)


class Workload:
    name = ""
    unit = "state"
    min_rounds = 2

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def warm_up(self) -> None:
        raise NotImplementedError

    def ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, out) -> str | None:
        raise NotImplementedError

    def summary(self, ops: list[Op], outs: list) -> dict:
        raise NotImplementedError

    def run_checks(self) -> list[str]:
        """Checks over every op of the run; called once at the end."""
        return []

    def probe_known_defects(self) -> list[tuple[str, str, int]]:
        """(label, defect, exit code) of each ``KNOWN_DEFECTS`` input, run once, untimed.

        Exit code 0 means the defect is still there.
        """
        return []


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

class Ensemble(Workload):
    """``ensemble_reports`` calls over the plan's (dims, calls, trials)."""

    def __init__(self, name: str, plan, mixed: bool):
        self.name = name
        self.plan = plan
        self.mixed = mixed

    def warm_up(self) -> None:
        for dims, _, _ in self.plan:
            cli.ensemble_reports(LocalDims(dims), 1, 0, self.mixed, None)

    def _rank(self, dims, i: int) -> int | None:
        if not self.mixed:
            return None
        return 1 + i % 8 if dims == THREE_QUBITS else math.prod(dims)

    def ops(self, r: int) -> list[Op]:
        ops = []
        i = 0
        for dims, calls, trials in self.plan:
            local = LocalDims(dims)
            for _ in range(calls):
                s = round_seed(self.seed, r, i * trials)
                rank = self._rank(dims, i)
                ops.append(
                    Op(
                        f"{dims_key(dims)}:{s}",
                        lambda local=local, s=s, rank=rank, t=trials: cli.ensemble_reports(
                            local, t, s, self.mixed, rank
                        ),
                        units=lambda out, t=trials: t,
                        meta={"dims": dims, "seed": s, "trials": trials},
                    )
                )
                i += 1
        return ops

    def check(self, op: Op, out) -> str | None:
        names = [rep.name for rep in out]
        expected = expected_names(op.meta["dims"], not self.mixed)
        if names != expected:
            return f"verifier names {names} != {expected}"
        first, trials = op.meta["seed"], op.meta["trials"]
        for rep in out:
            if not math.isfinite(rep.min_slack):
                return f"{rep.name}: slack {rep.min_slack} is not finite"
            if rep.violations and rep.name not in CONJECTURES:
                return f"proved bound {rep.name} violated (slack {rep.min_slack!r})"
            if rep.trials != trials or not first <= rep.argmin_seed < first + trials:
                return f"{rep.name}: report {rep} does not describe trials {first}+{trials}"
        return None

    def summary(self, ops, outs) -> dict:
        """Per dims and verifier: violations, min slack and its seed, as ``sample`` reports."""
        agg: dict[str, dict] = {}
        slacks: dict[str, list[float]] = {}
        for op, out in zip(ops, outs):
            for rep in out:
                key = f"{dims_key(op.meta['dims'])}/{rep.name}"
                slacks.setdefault(key, []).append(rep.min_slack)
                entry = agg.setdefault(
                    key, {"violations": 0, "min_slack": math.inf, "argmin_seed": None}
                )
                entry["violations"] += rep.violations
                if rep.min_slack < entry["min_slack"]:
                    entry["min_slack"] = rep.min_slack
                    entry["argmin_seed"] = rep.argmin_seed
        for key, entry in agg.items():
            ordered = sorted(slacks[key])
            # the seed is only meaningful when the minimum is not a tie at roundoff
            entry["argmin_unique"] = len(ordered) < 2 or ordered[1] - ordered[0] > 1e-9
        return agg


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

class Search(Workload):
    """``minimize_slack`` one restart per call, on the acceptance objective set.

    A round holds 2 ``thm1`` and 1 ``eq4-pivot1`` restarts at the default
    simplex rounds, and 1 restart of each of the nine proved objectives at
    ``rounds=1``, as acceptance criterion 8 runs them.  Restart r of a call
    with ``restarts=1`` and seed s does the same work as restart r of a call
    with seed s - r, so one call per restart exposes per-restart latency.
    Latency is taken over the proved-objective restarts only: the deep
    ``thm1``/``eq4`` restarts vary by a factor of two in length from seed to
    seed, which would put the p90 at the mercy of a handful of restarts;
    their time counts in the throughput.
    """

    name = "search-3q"
    unit = "eval"
    min_rounds = 8  # 16 thm1 restarts: each reaches 1e-6 about half the time

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.best: dict[str, float] = {}

    def warm_up(self) -> None:
        search.minimize_slack("thm3", THREE_QUBITS, 1, 0, 2, 1)

    def plan(self):
        return (
            [("thm1", SEARCH_ROUNDS)] * 2
            + [("eq4-pivot1", SEARCH_ROUNDS)]
            + [(o, 1) for o in PROVED_OBJECTIVES]
        )

    def ops(self, r: int) -> list[Op]:
        ops = []
        for i, (objective, rounds) in enumerate(self.plan()):
            s = round_seed(self.seed, r, i)
            ops.append(
                Op(
                    f"{objective}:{s}",
                    lambda o=objective, s=s, k=rounds: search.minimize_slack(
                        o, THREE_QUBITS, 1, s, SEARCH_ITERATIONS, k
                    ),
                    latency=rounds == 1,
                    units=lambda out: out.evaluations,
                    meta={"objective": objective, "seed": s},
                )
            )
        return ops

    def check(self, op: Op, out) -> str | None:
        objective = op.meta["objective"]
        value = out.best_value
        self.best[objective] = min(self.best.get(objective, math.inf), value)
        if not math.isfinite(value) or out.evaluations < 1:
            return f"best value {value} after {out.evaluations} evaluations"
        if objective not in CONJECTURES and value < -EPS_INEQ:
            return f"proved bound {objective} dips to {value!r}"
        amps = out.best_state.amps
        if abs(float(np.vdot(amps, amps).real) - 1.0) > 1e-10:
            return "best state is not normalized"
        again = search.resolve_objective(objective, THREE_QUBITS)(out.best_state).slack
        if abs(again - value) > 1e-12:
            return f"best value {value!r} but its state evaluates to {again!r}"
        return None

    def run_checks(self) -> list[str]:
        """Acceptance criterion 8 targets over all restarts of the run."""
        failures = []
        if not self.best.get("thm1", math.inf) <= 1e-6:
            failures.append(f"thm1 never reached equality: best {self.best.get('thm1')!r}")
        if not self.best.get("eq4-pivot1", math.inf) <= -0.9:
            failures.append(
                f"eq4-pivot1 never reached a deep violation: best {self.best.get('eq4-pivot1')!r}"
            )
        return failures

    def summary(self, ops, outs) -> dict:
        agg: dict[str, dict] = {}
        for op, out in zip(ops, outs):
            entry = agg.setdefault(
                op.meta["objective"],
                {"min_slack": math.inf, "argmin_seed": None, "evaluations": 0},
            )
            entry["evaluations"] += out.evaluations
            if out.best_value < entry["min_slack"]:
                entry["min_slack"] = out.best_value
                entry["argmin_seed"] = op.meta["seed"]
        return agg


# ---------------------------------------------------------------------------
# CLI over files
# ---------------------------------------------------------------------------

# (kind, dims).  The repeats put the latency p90 65% into the two 6-qubit
# pure files, between the cheaper files and the 6-qubit density file.
VERIFY_FILES = (
    ("pure", (2, 2, 2)), ("density", (2, 2, 2)),
    ("pure", (2, 2, 2)), ("density", (2, 2, 2)),
    ("pure", (2, 2, 2, 2)), ("density", (2, 2, 2, 2)),
    ("pure", (2, 2, 2, 2)), ("density", (2, 2, 2, 2)),
    ("pure", (2, 2, 2, 2, 2)), ("density", (2, 2, 2, 2, 2)),
    ("pure", (2, 2, 2, 2, 2, 2)), ("density", (2, 2, 2, 2, 2, 2)),
    ("pure", (2, 2, 2, 2, 2, 2)),
    ("pure", (3, 3, 3)), ("density", (3, 3, 3)),
    ("pure", (2, 3, 4)), ("density", (2, 3, 4)),
)
SWEEPS = (("ghz", 64), ("w", 8), ("two-term", 64))  # w sweeps a points x points grid
ORACLE_TRIALS = 64
# Malformed files this commit wrongly accepts (ROADMAP item 5).  The ops of a
# workload must all succeed, so these files are not ops: each run verifies
# them once, untimed, after its rounds, and prints whether the defect is still
# there (``probe_known_defects``); the other malformed files are ops that must
# exit 2.
KNOWN_DEFECTS = {
    "nan-density": "non-finite density entries pass validation and verify exits 0",
}
SWEEP_TOL = 1e-10  # |numeric - closed| is roundoff at this level


def _random_pure(rng, d):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def _random_density(rng, d, rank):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return (m + m.conj().T) / 2.0


def _write(path, dims, kind, flat):
    payload = {
        "dims": list(dims),
        "kind": kind,
        "data": [[float(z.real), float(z.imag)] for z in np.asarray(flat).reshape(-1)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _parse_csv(text: str) -> list[tuple[str, float, bool]]:
    rows = []
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        rows.append((fields[0], float(fields[3]), fields[4] == "true"))
    return rows


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


class CliFiles(Workload):
    """In-process ``cli_main`` over generated state files, sweeps and the oracle."""

    name = "cli-files"

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        rng = np.random.default_rng([seed, 0xC11])
        self.files = []
        for i, (kind, dims) in enumerate(VERIFY_FILES):
            d = math.prod(dims)
            path = os.path.join(workdir, f"{i:02d}-{kind}-{dims_key(dims)}.json")
            if kind == "pure":
                _write(path, dims, kind, _random_pure(rng, d))
            else:
                _write(path, dims, kind, _random_density(rng, d, 1 + int(rng.integers(d))))
            self.files.append((path, kind, dims))
        nan = float("nan")
        rho = _random_density(rng, 4, 4)
        skewed = rho.copy()
        skewed[0, 1] += 0.1
        malformed = {
            "nan-density": ((2,), "density", [nan, 0, 0, nan]),
            "inf-pure": ((2, 2), "pure", [float("inf"), 0.5, 0.5, 0.5]),
            "short-pure": ((2, 2, 2), "pure", _random_pure(rng, 8)[:7]),
            "nonhermitian-density": ((2, 2), "density", skewed),
        }
        self.malformed_paths, self.defect_paths = {}, {}
        for label, (dims, kind, flat) in malformed.items():
            path = os.path.join(workdir, f"bad-{label}.json")
            _write(path, dims, kind, flat)
            paths = self.defect_paths if label in KNOWN_DEFECTS else self.malformed_paths
            paths[label] = path

    def warm_up(self) -> None:
        for path, _, _ in self.files:
            _run_cli(["verify", path])
        _run_cli(["sweep", "ghz", "--points", "2"])
        _run_cli(["oracle", "--trials", "2"])

    def ops(self, r: int) -> list[Op]:
        ops = []
        for i, (path, kind, dims) in enumerate(self.files):
            csv = os.path.join(self.workdir, f"verify-{i:02d}.csv")
            ops.append(
                Op(
                    f"verify {os.path.basename(path)}",
                    lambda path=path, csv=csv: _run_cli(["verify", path, "--csv", csv]),
                    meta={"kind": "verify", "csv": csv, "dims": dims, "pure": kind == "pure"},
                )
            )
        for label, path in self.malformed_paths.items():
            ops.append(
                Op(
                    f"verify {label}",
                    lambda path=path: _run_cli(["verify", path]),
                    latency=False,
                    units=lambda out: 0,
                    meta={"kind": "malformed"},
                )
            )
        for family, points in SWEEPS:
            csv = os.path.join(self.workdir, f"sweep-{family}.csv")
            n = points * points if family == "w" else points
            ops.append(
                Op(
                    f"sweep {family}",
                    lambda f=family, p=points, csv=csv: _run_cli(
                        ["sweep", f, "--points", str(p), "--csv", csv]
                    ),
                    latency=False,
                    units=lambda out, n=n: n,
                    meta={"kind": "sweep", "csv": csv, "points": n},
                )
            )
        s = round_seed(self.seed, r, 0)
        ops.append(
            Op(
                "oracle",
                lambda: _run_cli(["oracle", "--trials", str(ORACLE_TRIALS), "--seed", str(s)]),
                latency=False,
                units=lambda out: ORACLE_TRIALS,
                meta={"kind": "oracle"},
            )
        )
        return ops

    def probe_known_defects(self) -> list[tuple[str, str, int]]:
        found = []
        for label, path in self.defect_paths.items():
            rc, _, _ = _run_cli(["verify", path])
            found.append((f"verify {label}", KNOWN_DEFECTS[label], rc))
        return found

    def _read_csv(self, op):
        with open(op.meta["csv"], encoding="utf-8") as fh:
            return _parse_csv(fh.read())

    def check(self, op: Op, out) -> str | None:
        rc, stdout, stderr = out
        kind = op.meta["kind"]
        if kind == "malformed":
            if rc != 2 or not any(line.startswith("error:") for line in stderr.splitlines()):
                return f"malformed file exited {rc}, expected 2 with an error"
            return None
        if rc != 0:
            return f"exited {rc}: {stderr.strip()[:200]}"
        if kind == "verify":
            rows = self._read_csv(op)
            names = [name for name, _, _ in rows]
            expected = expected_names(op.meta["dims"], op.meta["pure"])
            if names != expected:
                return f"CSV verifiers {names} != {expected}"
            for name, slack, holds in rows:
                if not math.isfinite(slack):
                    return f"{name}: slack {slack} is not finite"
                if name not in CONJECTURES and not holds:
                    return f"proved bound {name} reported violated (slack {slack!r})"
            return None
        if kind == "sweep":
            gaps = [
                float(line.rsplit(":", 1)[1])
                for line in stdout.splitlines()
                if "max |numeric - closed|" in line
            ]
            if len(gaps) != 5 or not all(g <= SWEEP_TOL for g in gaps):
                return f"closed-form gaps {gaps} exceed {SWEEP_TOL}"
            rows = self._read_csv(op)
            if len(rows) != op.meta["points"]:
                return f"sweep CSV has {len(rows)} rows, expected {op.meta['points']}"
            return None
        # oracle
        fields = dict(
            line.strip().split(":", 1) for line in stdout.splitlines()[1:] if ":" in line
        )
        diff = float(fields["max |tau_formula - tau_monogamy|"])
        dprime = float(fields["min (D'/2 - tau)"])
        if not (diff < 1e-8 and dprime >= -EPS_INEQ and fields["agreement within 1e-8"].strip() == "yes"):
            return f"oracle disagrees: max diff {diff}, min D'/2 - tau {dprime}"
        return None

    def summary(self, ops, outs) -> dict:
        agg: dict[str, dict] = {}
        for op, out in zip(ops, outs):
            kind = op.meta["kind"]
            entry: dict = {"exit": out[0]}
            if kind == "verify" and out[0] == 0:
                entry["slack"] = {name: slack for name, slack, _ in self._read_csv(op)}
            elif kind == "sweep" and out[0] == 0:
                mins: dict[str, float] = {}
                with open(op.meta["csv"], encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
                header = lines[0].split(",")
                for line in lines[1:]:
                    for col, value in zip(header, line.split(",")):
                        if col.endswith(":slack"):
                            mins[col] = min(mins.get(col, math.inf), float(value))
                entry["min_slack"] = mins
            agg[op.label] = entry
        return agg


WORKLOADS = {
    "ensemble-3q-pure": lambda: Ensemble("ensemble-3q-pure", THREE_QUBIT_PLAN, False),
    "ensemble-3q-mixed": lambda: Ensemble("ensemble-3q-mixed", THREE_QUBIT_PLAN, True),
    "ensemble-wide-pure": lambda: Ensemble("ensemble-wide-pure", WIDE_PLAN, False),
    "ensemble-wide-mixed": lambda: Ensemble("ensemble-wide-mixed", WIDE_PLAN, True),
    "search-3q": Search,
    "cli-files": CliFiles,
}
