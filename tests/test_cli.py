import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cohtrade
from cohtrade import (
    cli_main,
    ensemble_reports,
    ghz_state,
    parse_results_csv,
    read_state_file,
    run_suite,
    sample_ginibre_mixed,
    two_term_state,
    write_state_file,
)
from cohtrade.states import LocalDims


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
    ],
)
def test_state_file_rejection_names_invariant(tmp_path, payload, fragment):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(Exception, match=fragment):
        read_state_file(path)


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
        parsed = parse_results_csv(fh)
    fresh = run_suite(read_state_file(ghz_file))
    assert [r.name for r in parsed] == [r.name for r in fresh]
    for a, b in zip(parsed, fresh):
        assert a.slack == b.slack
        assert a.holds == (a.slack >= -a.tolerance)


def test_verify_conjecture_violation_does_not_fail_exit_code(tmp_path, capsys):
    path = tmp_path / "two_term.json"
    write_state_file(path, two_term_state(np.pi / 4))
    rc = cli_main(["verify", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "violated (conjecture)" in out


def test_verify_exit_one_when_tolerance_forces_failure(ghz_file, capsys):
    # negative tolerance demands strictly positive slack, which equality rows fail
    rc = cli_main(["verify", str(ghz_file), "--tolerance", "-0.5"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "bound violated" in captured.err


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


def test_sample_mixed_with_rank(capsys):
    rc = cli_main(["sample", "--dims", "2,2", "--trials", "20", "--seed", "3", "--mixed", "--rank", "2"])
    assert rc == 0
    assert "mixed" in capsys.readouterr().out


def test_sample_rank_requires_mixed(capsys):
    rc = cli_main(["sample", "--dims", "2,2", "--trials", "5", "--rank", "2"])
    assert rc == 2
    assert "--mixed" in capsys.readouterr().err


def test_sample_bad_dims_exit_two(capsys):
    rc = cli_main(["sample", "--dims", "2,x", "--trials", "5"])
    assert rc == 2
    rc = cli_main(["sample", "--dims", "2,1", "--trials", "5"])
    assert rc == 2


def test_sample_same_seed_is_reproducible(tmp_path):
    args = ["sample", "--dims", "2,2,2", "--trials", "25", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--csv", str(a)]) == 0
    assert cli_main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_oracle_subcommand(capsys):
    rc = cli_main(["oracle", "--trials", "60", "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "agreement within 1e-8: yes" in out


def test_module_entry_point_runs_without_warnings():
    # the package must not import the CLI, or ``-m cohtrade.cli`` runs it twice
    src = os.path.dirname(os.path.dirname(os.path.abspath(cohtrade.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cohtrade.cli",
         "oracle", "--trials", "1"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert "agreement within 1e-8: yes" in done.stdout


def test_help_and_missing_subcommand():
    assert cli_main(["--help"]) == 0
    assert cli_main([]) == 2
    assert cli_main(["bogus"]) == 2
