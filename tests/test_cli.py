import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cohtrade
from cohtrade import (
    FAMILIES,
    InvalidStateError,
    cli_main,
    default_grid,
    ensemble_reports,
    family_sweep,
    ghz_state,
    read_state_file,
    run_suite,
    sample_ginibre_mixed,
    state_from_dict,
    suite_stack,
    two_term_state,
    write_state_file,
)
from cohtrade import cli
from cohtrade.families import _amplitudes
from cohtrade.states import LocalDims, sample_ginibre_stack, sample_haar_stack
from conftest import read_results_csv


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.json"
    write_state_file(path, ghz_state(np.pi / 4))
    return path


# ---------------------------------------------------------------------------
# state-file round trips
# ---------------------------------------------------------------------------

def test_pure_state_file_round_trip_is_bit_stable(tmp_path):
    psi = ghz_state(0.37)
    path = tmp_path / "s.json"
    write_state_file(path, psi)
    back = read_state_file(path)
    assert np.array_equal(back.amps, psi.amps)
    write_state_file(tmp_path / "s2.json", back)
    assert (tmp_path / "s.json").read_bytes() == (tmp_path / "s2.json").read_bytes()


def test_density_state_file_round_trip(tmp_path):
    rho = sample_ginibre_mixed((2, 3), 4, 12)
    path = tmp_path / "d.json"
    write_state_file(path, rho)
    back = read_state_file(path)
    assert back.dims.dims == (2, 3)
    assert np.array_equal(back.mat, rho.mat)


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ({"dims": [2], "kind": "ket", "data": [[1, 0], [0, 0]]}, "kind"),
        ({"dims": [2], "kind": "pure", "data": [[1, 0]] * 3}, "entries"),
        ({"dims": [2], "kind": "pure", "data": [[1, 0], [1, 0]]}, "norm"),
        ({"kind": "pure", "data": [[1, 0], [0, 0]]}, "dims"),
        ({"dims": [2, 1], "kind": "pure", "data": [[1, 0], [0, 0]]}, "dimension"),
        ({"dims": "22", "kind": "pure", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}, "list"),
        ({"dims": [2.7, 2], "kind": "pure", "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}, "integer"),
        ({"dims": [2] * 13, "kind": "density", "data": []}, "MAX_TOTAL_DIM = 4096"),
        ({"dims": [2], "kind": "pure", "data": [[True, False], [False, False]]}, "JSON boolean"),
        ({"dims": [2], "kind": "pure", "data": [[1.0, False], [0.0, 0.0]]}, "JSON boolean"),
        ({"dims": [2], "kind": "pure", "data": 5}, "data must be a JSON list"),
    ],
)
def test_state_file_rejection_names_invariant(tmp_path, payload, fragment):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(Exception, match=fragment):
        read_state_file(path)


def _write_undecodable_files(directory):
    """A file that is not UTF-8 and one whose JSON integer exceeds int's digit limit."""
    (directory / "latin1.json").write_bytes('{"dims": [2], "kind": "pur\xe9"}'.encode("latin-1"))
    digits = "1" + "0" * 5000
    head = '{"dims": [2], "kind": "pure", "data": '
    (directory / "digits.json").write_text(head + f"[[{digits}, 0], [0, 0]]}}")


@pytest.mark.parametrize(
    "name, fragment",
    [("latin1.json", "'utf-8' codec can't decode"), ("digits.json", "Exceeds the limit")],
    ids=["not-utf8", "int-digit-limit"],
)
def test_undecodable_state_file_raises_invalid_state(tmp_path, name, fragment):
    _write_undecodable_files(tmp_path)
    with pytest.raises(InvalidStateError, match=f"state file is not valid JSON: {fragment}"):
        read_state_file(tmp_path / name)


def test_state_file_rejects_non_positive_density(tmp_path):
    payload = {
        "dims": [2],
        "kind": "density",
        "data": [[1.25, 0], [0, 0], [0, 0], [-0.25, 0]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(Exception, match="eigenvalue"):
        read_state_file(path)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_ghz_exits_zero(ghz_file, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    rc = cli_main(["verify", str(ghz_file), "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "thm3" in out
    with open(csv_path) as fh:
        parsed = read_results_csv(fh)
    fresh = run_suite(read_state_file(ghz_file))
    assert [r.name for r in parsed] == [r.name for r in fresh]
    for a, b in zip(parsed, fresh):
        assert a.slack == b.slack
        assert a.holds == (a.slack >= -a.tolerance)


def _count_calls(monkeypatch, owner, name, counts, *also):
    """Replace ``owner.name`` (and the same function bound in each of ``also``) with a counter."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for target in (owner, *also):
        monkeypatch.setattr(target, name, counted)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2, 2), (3, 3, 3)], ids=str)
@pytest.mark.parametrize("kind", ["pure", "density"])
def test_verify_checks_each_state_file_once(tmp_path, capsys, monkeypatch, kind, dims):
    # the reader's constructor checks the state; run_suite trusts it
    if kind == "pure":
        state = cohtrade.sample_haar_pure(dims, 4)
    else:
        state = sample_ginibre_mixed(dims, 3, 4)
    path = tmp_path / "state.json"
    write_state_file(path, state)
    counts = dict.fromkeys(("cholesky", "eigvalsh", "validate_rows", "vdot"), 0)
    _count_calls(monkeypatch, np.linalg, "cholesky", counts)
    _count_calls(monkeypatch, np.linalg, "eigvalsh", counts)
    _count_calls(monkeypatch, np, "vdot", counts)
    _count_calls(monkeypatch, cohtrade.states, "validate_rows", counts, cohtrade.inequalities)
    assert cli_main(["verify", str(path)]) == 0
    capsys.readouterr()
    if kind == "pure":
        assert counts == {"cholesky": 0, "eigvalsh": 0, "validate_rows": 1, "vdot": 0}
    else:
        assert counts == {"cholesky": 1, "eigvalsh": 0, "validate_rows": 0, "vdot": 0}


def _count_checks(monkeypatch):
    counts = dict.fromkeys(("cholesky", "eigvalsh", "validate_rows", "validate_stack"), 0)
    _count_calls(monkeypatch, np.linalg, "cholesky", counts)
    _count_calls(monkeypatch, np.linalg, "eigvalsh", counts)
    for name in ("validate_rows", "validate_stack"):  # suite_stack calls inequalities' binding
        _count_calls(monkeypatch, cohtrade.states, name, counts, cohtrade.inequalities)
    return counts


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 2, 2, 2, 2)], ids=str)
@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_sampled_stacks_are_not_checked_again(monkeypatch, dims, mixed):
    # the sampler builds states; only a caller's stack passed to suite_stack is checked
    counts = _count_checks(monkeypatch)
    ensemble_reports(dims, 8, 3, mixed=mixed)
    assert counts == dict.fromkeys(counts, 0)
    if mixed:
        suite_stack(dims, sample_ginibre_stack(dims, math.prod(dims), range(3, 11)))
        assert counts == {**dict.fromkeys(counts, 0), "validate_stack": 1, "cholesky": 1}
    else:
        suite_stack(dims, sample_haar_stack(dims, range(3, 11)))
        assert counts == {**dict.fromkeys(counts, 0), "validate_rows": 1}


@pytest.mark.parametrize("family", FAMILIES)
def test_family_rows_are_not_checked_again(monkeypatch, family):
    counts = _count_checks(monkeypatch)
    grid = default_grid(family, 4)
    family_sweep(family, grid)
    assert counts == dict.fromkeys(counts, 0)
    suite_stack((2, 2, 2), _amplitudes(family, grid))
    assert counts == {**dict.fromkeys(counts, 0), "validate_rows": 1}


def test_verify_conjecture_violation_does_not_fail_exit_code(tmp_path, capsys):
    path = tmp_path / "two_term.json"
    write_state_file(path, two_term_state(np.pi / 4))
    rc = cli_main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "violated (conjecture)" in out


def test_verify_exit_one_when_tolerance_forces_failure(tmp_path, capsys):
    # a GHZ file whose squared norm is 1 + 9e-11, inside EPS_NORM: C123 scales
    # with the squared norm and tau with its square, so thm3 and eq10 sit at
    # slack -9e-11, which the default tolerance forgives and zero does not
    psi = ghz_state(np.pi / 4)
    path = tmp_path / "ghz_long.json"
    write_state_file(path, cohtrade.PureState(psi.dims, psi.amps * np.sqrt(1 + 9e-11)))
    assert cli_main(["verify", str(path)]) == 0
    capsys.readouterr()
    rc = cli_main(["verify", str(path), "--tolerance", "0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "bound violated: thm3" in captured.err
    assert "bound violated: eq10" in captured.err


def test_unwritable_csv_keeps_the_violation_lines(tmp_path, capsys, monkeypatch):
    # the same file: the report, the violations and then the CSV's error
    psi = ghz_state(np.pi / 4)
    write_state_file(
        tmp_path / "ghz_long.json", cohtrade.PureState(psi.dims, psi.amps * np.sqrt(1 + 9e-11))
    )
    monkeypatch.chdir(tmp_path)
    rc = cli_main(["verify", "ghz_long.json", "--tolerance", "0", "--csv", "nodir/o.csv"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "thm3" in captured.out
    assert captured.err.splitlines() == [
        "bound violated: thm3 (slack -9.000e-11)",
        "bound violated: eq10 (slack -9.000e-11)",
        "error: [Errno 2] No such file or directory: 'nodir/o.csv'",
    ]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5", "1e400", "abc"])
@pytest.mark.parametrize(
    "argv",
    [["verify", "state.json"], ["sweep", "ghz"], ["sample", "--dims", "2,2,2", "--trials", "3"]],
    ids=["verify", "sweep", "sample"],
)
def test_tolerance_must_be_finite_and_nonnegative(capsys, argv, value):
    rc = cli_main(argv + [f"--tolerance={value}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"tolerance must be a finite number >= 0, got {value!r}" in captured.err


def test_verify_missing_file_exits_two(capsys):
    rc = cli_main(["verify", "/nonexistent/state.json"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_verify_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    rc = cli_main(["verify", str(path)])
    assert rc == 2
    assert "JSON" in capsys.readouterr().err


def test_verify_invalid_state_exits_two(tmp_path, capsys):
    path = tmp_path / "unnorm.json"
    path.write_text(json.dumps({"dims": [2], "kind": "pure", "data": [[1, 0], [1, 0]]}))
    rc = cli_main(["verify", str(path)])
    assert rc == 2
    assert "norm" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,data",
    [
        ("pure", [[float("nan"), 0], [0.5, 0], [0.5, 0], [0.5, 0]]),
        ("pure", [[float("inf"), 0], [0.5, 0], [0.5, 0], [0.5, 0]]),
        ("density", [[float("nan"), 0], [0, 0], [0, 0], [float("nan"), 0]]),
        ("density", [[0.5, 0], [float("inf"), 0], [float("inf"), 0], [0.5, 0]]),
    ],
)
def test_verify_non_finite_state_exits_two(tmp_path, capsys, kind, data):
    dims = [2, 2] if kind == "pure" else [2]
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps({"dims": dims, "kind": kind, "data": data}))
    rc = cli_main(["verify", str(path)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_ghz_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    rc = cli_main(["sweep", "ghz", "--points", "8", "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max |numeric - closed|" in out
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 9  # header + 8 points
    header = lines[0].split(",")
    assert header[:3] == ["family", "index", "phi"]
    assert "c123_closed" in header and "c123" in header
    assert "thm3:slack" in header


def test_sweep_rejects_unknown_family(capsys):
    rc = cli_main(["sweep", "bell", "--points", "4"])
    assert rc == 2


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_pure_three_qubit_has_no_proved_violations(tmp_path, capsys):
    csv_path = tmp_path / "agg.csv"
    rc = cli_main(
        ["sample", "--dims", "2,2,2", "--trials", "60", "--seed", "1", "--csv", str(csv_path)]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "WARNING" not in captured.err
    lines = csv_path.read_text().strip().splitlines()
    agg = [ln.split(",") for ln in lines[1:]]
    assert all(row[0] == "AGG" for row in agg)
    names = [row[1] for row in agg]
    assert "thm1" in names and "thm3" in names
    for row in agg:
        name, trials, violations, min_slack = row[1], int(row[2]), int(row[3]), float(row[4])
        assert trials == 60
        if not name.startswith("eq4"):
            assert violations == 0
            assert min_slack >= -1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "GHZ"],
        ["sweep", "w", "--points", "3"],
        ["sample", "--dims", "2,2,2", "--trials", "4"],
        ["sample", "--dims", "2,3", "--trials", "3", "--mixed"],
    ],
    ids=["verify", "sweep", "sample-pure", "sample-mixed"],
)
def test_every_csv_has_one_header_field_per_row_field(ghz_file, tmp_path, argv):
    path = tmp_path / "out.csv"
    argv = [str(ghz_file) if a == "GHZ" else a for a in argv]
    assert cli_main([*argv, "--csv", str(path)]) == 0
    header, *rows = path.read_text().splitlines()
    assert rows
    assert {len(row.split(",")) for row in rows} == {len(header.split(","))}
    if argv[0] == "sample":
        assert header == "AGG,name,trials,violations,min_slack,argmin_seed,tolerance"


def test_sample_mixed_with_rank(capsys):
    rc = cli_main(["sample", "--dims", "2,2", "--trials", "20", "--seed", "3", "--mixed", "--rank", "2"])
    assert rc == 0
    assert "mixed" in capsys.readouterr().out


def test_sample_rank_requires_mixed(capsys):
    # ensemble_reports owns the check; the CLI reports its message
    rc = cli_main(["sample", "--dims", "2,2", "--trials", "2", "--rank", "2"])
    assert rc == 2
    assert capsys.readouterr().err == "error: rank applies to mixed ensembles only, got rank=2\n"


def test_sample_bad_dims_exit_two(capsys):
    rc = cli_main(["sample", "--dims", "2,x", "--trials", "5"])
    assert rc == 2
    assert "comma-separated integers" in capsys.readouterr().err
    rc = cli_main(["sample", "--dims", "2,1", "--trials", "5"])
    assert rc == 2
    assert "every local dimension must be >= 2, got (2, 1)" in capsys.readouterr().err


def test_dims_beyond_the_dense_limit_exit_two(tmp_path, capsys):
    # rejected while parsing, before anything of size 2^13 is allocated
    thirteen = ",".join(["2"] * 13)
    for argv in (
        ["sample", "--dims", thirteen, "--trials", "1"],
        ["search", "--objective", "cor1-m1", "--dims", thirteen, "--restarts", "1"],
    ):
        assert cli_main(argv) == 2
        assert "total dimension 8192" in capsys.readouterr().err
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dims": [2] * 13, "kind": "pure", "data": []}))
    assert cli_main(["verify", str(path)]) == 2
    assert "exceeds the limit MAX_TOTAL_DIM = 4096" in capsys.readouterr().err
    # the limit itself is accepted; nothing is run at it
    assert cli._dims_arg(",".join(["2"] * 12)).total_dim == cohtrade.MAX_TOTAL_DIM == 4096
    with pytest.raises(InvalidStateError, match="entries"):
        state_from_dict({"dims": [4096], "kind": "pure", "data": []})


def test_sample_same_seed_is_reproducible(tmp_path):
    args = ["sample", "--dims", "2,2,2", "--trials", "25", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--csv", str(a)]) == 0
    assert cli_main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ensemble_reports_reject_negative_trials():
    assert ensemble_reports(LocalDims((2, 2, 2)), trials=0, seed=0) == []
    with pytest.raises(ValueError, match="trials must be >= 0, got -1"):
        ensemble_reports(LocalDims((2, 2, 2)), trials=-1, seed=0)


def test_ensemble_reports_track_extremal_seed():
    reports = ensemble_reports(LocalDims((2, 2, 2)), trials=30, seed=100)
    by_name = {r.name: r for r in reports}
    r = by_name["thm1"]
    assert r.trials == 30
    assert 100 <= r.argmin_seed < 130
    assert r.violations == 0


# ---------------------------------------------------------------------------
# search and oracle
# ---------------------------------------------------------------------------

def test_search_subcommand(capsys):
    rc = cli_main(
        ["search", "--objective", "eq4-pivot1", "--restarts", "4", "--seed", "0",
         "--iterations", "120", "--rounds", "2"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "best slack" in out
    best = float(next(ln for ln in out.splitlines() if "best slack" in ln).split(":")[1])
    assert best <= -0.3


def test_search_unknown_objective_exits_two(capsys):
    rc = cli_main(["search", "--objective", "nope", "--restarts", "1", "--seed", "0"])
    assert rc == 2
    assert "unknown objective" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--iterations", "-7"), ("--rounds", "0"), ("--rounds", "-3")],
)
def test_search_rejects_out_of_range_iterations_and_rounds(capsys, flag, value):
    rc = cli_main(["search", "--objective", "thm1", "--restarts", "1", flag, value])
    assert rc == 2
    assert f"{flag[2:]} must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle", "sample"])
@pytest.mark.parametrize("trials", ["0", "-2"])
def test_fewer_than_one_trial_exits_two(capsys, command, trials):
    argv = [command, "--trials", trials] + (["--dims", "2,2,2"] if command == "sample" else [])
    rc = cli_main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: --trials must be >= 1\n"
    assert captured.out == ""


def test_oracle_subcommand(capsys):
    rc = cli_main(["oracle", "--trials", "60", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "agreement within 1e-8: yes" in out


def run_module(argv, cwd=None):
    """``python -W error -m cohtrade.cli`` in a subprocess, with this package importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cohtrade.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "cohtrade.cli", *argv],
        capture_output=True, text=True, timeout=120, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point_runs_without_warnings():
    # the package must not import the CLI, or ``-m cohtrade.cli`` runs it twice
    done = run_module(["oracle", "--trials", "1"])
    assert done.returncode == 0
    assert done.stderr == ""
    assert "agreement within 1e-8: yes" in done.stdout


def _write_density(path, entries):
    path.write_text(json.dumps({"dims": [2], "kind": "density", "data": entries}))


# (argv, start of the one stderr line), run in a directory holding these files
CLI_ERRORS = {
    "missing-file": (["verify", "missing.json"], "error: [Errno 2] No such file or directory"),
    "bad-json": (["verify", "bad.json"], "error: state file is not valid JSON"),
    "deep-json": (["verify", "deep.json"], "error: state file is not valid JSON: maximum recur"),
    "huge-int": (["verify", "huge.json"], "error: data entries must be [re, im] pairs: int too"),
    "not-utf8": (["verify", "latin1.json"], "error: state file is not valid JSON: 'utf-8' codec"),
    "int-digit-limit": (["verify", "digits.json"], "error: state file is not valid JSON: Exceeds"),
    "nan-density": (["verify", "nan.json"], "error: every matrix entry must be finite"),
    "inf-density": (["verify", "inf.json"], "error: every matrix entry must be finite"),
    "non-positive-density": (["verify", "neg.json"], "error: minimum eigenvalue -0.25 below"),
    "verify-csv-missing-dir": (
        ["verify", "ghz.json", "--csv", "nodir/out.csv"],
        "error: [Errno 2] No such file or directory: 'nodir/out.csv'",
    ),
    "sweep-csv-missing-dir": (
        ["sweep", "ghz", "--points", "2", "--csv", "nodir/out.csv"],
        "error: [Errno 2] No such file or directory: 'nodir/out.csv'",
    ),
    "sample-csv-missing-dir": (
        ["sample", "--dims", "2,2", "--trials", "2", "--csv", "nodir/out.csv"],
        "error: [Errno 2] No such file or directory: 'nodir/out.csv'",
    ),
    "rank-out-of-range": (
        ["sample", "--dims", "2,2,2", "--trials", "2", "--mixed", "--rank", "9"],
        "error: rank must be in 1..8, got 9",
    ),
    "sample-negative-seed": (
        ["sample", "--dims", "2,2", "--trials", "2", "--seed", "-1"],
        "error: seed must be a non-negative integer, got -1",
    ),
    "unknown-objective": (
        ["search", "--objective", "bogus", "--restarts", "1"],
        "error: unknown objective 'bogus' at dims (2, 2, 2)",
    ),
}


@pytest.mark.parametrize("case", list(CLI_ERRORS))
def test_cli_error_paths_exit_two_with_one_line(tmp_path, case):
    (tmp_path / "bad.json").write_text("{")
    head = '{"dims": [2], "kind": "pure", "data": '
    (tmp_path / "deep.json").write_text(head + "[" * 10**5 + "]" * 10**5 + "}")  # valid, too deep
    (tmp_path / "huge.json").write_text(head + f"[[{10**400}, 0], [0, 0]]}}")  # beyond a double
    _write_undecodable_files(tmp_path)
    _write_density(tmp_path / "nan.json", [[float("nan"), 0], [0, 0], [0, 0], [1, 0]])
    # inf - inf in the Hermiticity test must raise no RuntimeWarning
    _write_density(tmp_path / "inf.json", [[float("inf"), 0], [0, 0], [0, 0], [1, 0]])
    _write_density(tmp_path / "neg.json", [[1.25, 0], [0, 0], [0, 0], [-0.25, 0]])
    write_state_file(tmp_path / "ghz.json", ghz_state(np.pi / 4))
    argv, first_words = CLI_ERRORS[case]
    done = run_module(argv, cwd=tmp_path)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(first_words), done.stderr
    assert not (tmp_path / "nodir").exists()


def test_every_export_resolves():
    for name in cohtrade.__all__:
        getattr(cohtrade, name)


def test_help_and_missing_subcommand():
    assert cli_main(["--help"]) == 0
    assert cli_main([]) == 2
    assert cli_main(["bogus"]) == 2


#: One process's mixed sequence of ``cli_main`` calls; ``{dir}`` holds ghz.json and o.csv.
REUSE_SEQUENCE = [
    ["verify", "{dir}/ghz.json", "--tolerance", "0", "--csv", "{dir}/o.csv"],
    ["verify", "{dir}/ghz.json", "--csv", "{dir}/o.csv"],
    ["sample", "--dims", "2,2,2", "--trials", "3",
     "--mixed", "--rank", "2", "--csv", "{dir}/o.csv"],
    ["sample", "--dims", "2,2,2", "--trials", "3", "--csv", "{dir}/o.csv"],
    ["search", "--objective", "cor1-m2", "--dims", "2,2,2,2", "--restarts", "1", "--rounds", "1"],
    ["search", "--objective", "cor1-m2", "--restarts", "1", "--rounds", "1"],
    ["sample", "--dims", "2,x", "--trials", "3"],
    ["--help"],
    ["oracle", "--trials", "3"],
]


def test_a_reused_parser_leaks_nothing_between_calls(tmp_path, capsysbinary):
    # each call of the sequence, run on the process's one parser, must give
    # the exit code, stdout, stderr and CSV that it gives as a parser's first call
    assert cli.build_parser() is cli.build_parser()
    write_state_file(tmp_path / "ghz.json", ghz_state(np.pi / 4))

    def call(argv):
        csv = tmp_path / "o.csv"
        csv.unlink(missing_ok=True)
        rc = cli_main([arg.format(dir=tmp_path) for arg in argv])
        captured = capsysbinary.readouterr()
        return rc, captured.out, captured.err, csv.read_bytes() if csv.exists() else None

    first = []
    for argv in REUSE_SEQUENCE:
        cli.build_parser.cache_clear()
        first.append(call(argv))
    assert [result[0] for result in first[-3:]] == [2, 0, 0]
    assert all(first[i] != first[i + 1] for i in (0, 2, 4))  # so a leaked option would show
    parser = cli.build_parser()
    for argv, expected in zip(REUSE_SEQUENCE, first):
        assert call(argv) == expected, argv
    assert cli.build_parser() is parser
