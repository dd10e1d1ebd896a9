import functools
import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cohtrade import (
    Bound,
    DensityOperator,
    InequalityResult,
    InvalidStateError,
    LocalDims,
    PureState,
    SubsystemSet,
    Sweep,
    TrialReport,
    bounds,
    coherence_stack,
    default_grid,
    density_from_pure,
    ensemble_reports,
    family_sweep,
    gamma,
    ghz_state,
    l1_coherence,
    read_state_file,
    resolve_objective,
    run_suite,
    sample_ginibre_mixed,
    sample_haar_pure,
    state_to_dict,
    subset_coherence,
    suite_names,
    suite_stack,
    three_tangle,
    two_term_state,
    verify_additive_conjecture,
    verify_corollary1,
    verify_eq10,
    verify_marginal_split,
    verify_singles_sum,
    verify_theorem1,
    verify_theorem3,
    w_state,
    write_results_csv,
    write_state_file,
)
from cohtrade.states import sample_haar_stack
from conftest import kron, paper_rhs, proved, read_results_csv

EPS = 1e-9


def diagonal_three_qubit(seed=0):
    rng = np.random.default_rng(seed)
    p = rng.random(8)
    return DensityOperator(LocalDims((2, 2, 2)), np.diag(p / p.sum()))


def maximally_coherent_qubit():
    return DensityOperator(LocalDims((2,)), np.full((2, 2), 0.5))


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_2_of_4():
    assert [s.parties for s in gamma(2, 4)] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
    ]


def test_gamma_full_and_singletons():
    assert [s.parties for s in gamma(3, 3)] == [(1, 2, 3)]
    assert [s.parties for s in gamma(1, 3)] == [(1,), (2,), (3,)]


@pytest.mark.parametrize("m,n", [(1, 5), (2, 5), (3, 5), (4, 5), (5, 5)])
def test_gamma_counts(m, n):
    assert len(gamma(m, n)) == math.comb(n, m)


def test_gamma_rejects_out_of_range():
    with pytest.raises(ValueError):
        gamma(0, 3)
    with pytest.raises(ValueError):
        gamma(4, 3)


@pytest.mark.parametrize("m", [True, 2.0, "2", None])
def test_subset_size_must_be_an_integer(m):
    gamma(1, 3), gamma(2, 3)  # cached first: the cache must not serve True as 1 or 2.0 as 2
    rho = sample_ginibre_mixed((2, 2, 2), 2, 3)
    message = f"subset size m must be an integer, got {m!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        gamma(m, 3)
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_corollary1(rho, m)
    assert verify_corollary1(rho, np.int64(2)).name == "cor1-m2"


@pytest.mark.parametrize("label", [True, 1.0, np.float64(2.0), 0, 4])
def test_pivot_and_single_must_be_integer_labels(label):
    rho = diagonal_three_qubit()
    with pytest.raises(ValueError, match=re.escape(f"pivot must be 1, 2 or 3, got {label!r}")):
        verify_additive_conjecture(rho, label)
    with pytest.raises(ValueError, match=re.escape(f"single must be 1, 2 or 3, got {label!r}")):
        verify_marginal_split(rho, label)
    assert verify_marginal_split(rho, np.int64(1)).name == "eq5-single1"


# ---------------------------------------------------------------------------
# individual verifiers
# ---------------------------------------------------------------------------

def test_theorem1_equality_on_two_term_state():
    r = verify_theorem1(density_from_pure(two_term_state(np.pi / 4)))
    assert r.name == "thm1"
    assert r.lhs == pytest.approx(1.0, abs=1e-12)
    assert r.rhs == pytest.approx(1.0, abs=1e-12)
    assert abs(r.slack) < 1e-10
    assert r.holds


def test_theorem1_on_w_state():
    r = verify_theorem1(density_from_pure(w_state(np.pi / 2, np.pi / 4)))
    assert r.lhs == pytest.approx(1.0, abs=1e-12)
    assert r.rhs == pytest.approx(0.5, abs=1e-12)


def test_theorem1_on_diagonal_state():
    r = verify_theorem1(diagonal_three_qubit())
    assert r.lhs == 0.0 and r.rhs == 0.0 and r.holds


def test_theorem1_rejects_wrong_dims():
    with pytest.raises(ValueError):
        verify_theorem1(sample_ginibre_mixed((2, 2), 2, 0))
    rho = sample_ginibre_mixed((2, 2, 2, 2), 2, 0)
    message = r"bound \S+ is stated for dims \(2, 2, 2\), got a state of dims \(2, 2, 2, 2\)"
    for verify in (verify_theorem1, lambda r: verify_additive_conjecture(r, 1),
                   lambda r: verify_marginal_split(r, 1)):
        with pytest.raises(ValueError, match=message):
            verify(rho)


def test_additive_conjecture_violated_by_two_term_state():
    r = verify_additive_conjecture(density_from_pure(two_term_state(np.pi / 4)), 1)
    assert r.name == "eq4-pivot1"
    assert r.lhs == pytest.approx(1.0, abs=1e-12)
    assert r.rhs == pytest.approx(2.0, abs=1e-12)
    assert not r.holds
    assert not proved((2, 2, 2), pure=False)[r.name]


def test_additive_conjecture_holds_for_ghz():
    r = verify_additive_conjecture(density_from_pure(ghz_state(np.pi / 4)), 1)
    assert r.lhs == pytest.approx(1.0, abs=1e-12)
    assert r.rhs == pytest.approx(0.0, abs=1e-13)
    assert r.holds


def test_additive_conjecture_pivot_validation():
    rho = diagonal_three_qubit()
    assert verify_additive_conjecture(rho, 2).holds
    with pytest.raises(ValueError):
        verify_additive_conjecture(rho, 4)


def test_marginal_split_examples():
    r = verify_marginal_split(density_from_pure(ghz_state(np.pi / 4)), 1)
    assert r.name == "eq5-single1"
    assert (r.lhs, r.rhs) == (pytest.approx(1.0, abs=1e-12), pytest.approx(0.0, abs=1e-13))

    r = verify_marginal_split(density_from_pure(w_state(np.pi / 2, np.pi / 4)), 3)
    assert r.lhs == pytest.approx(1.0, abs=1e-12)
    assert r.rhs == pytest.approx(1.0, abs=1e-12)

    q = maximally_coherent_qubit()
    r = verify_marginal_split(kron(kron(q, q), q), 2)
    assert r.lhs == pytest.approx(7.0, abs=1e-12)
    assert r.rhs == pytest.approx(4.0, abs=1e-12)


def test_singles_sum_examples():
    r = verify_singles_sum(density_from_pure(ghz_state(np.pi / 4)))
    assert r.name == "eq3"
    assert (r.lhs, r.rhs) == (pytest.approx(1.0, abs=1e-12), pytest.approx(0.0, abs=1e-13))

    q = maximally_coherent_qubit()
    for n in (2, 3, 4):
        rho = q
        for _ in range(n - 1):
            rho = kron(rho, q)
        r = verify_singles_sum(rho)
        assert r.lhs == pytest.approx(2**n - 1, abs=1e-11)
        assert r.rhs == pytest.approx(n, abs=1e-12)

    r = verify_singles_sum(diagonal_three_qubit())
    assert r.lhs == 0.0 and r.rhs == 0.0


def test_corollary1_full_subset_is_equality():
    rho = sample_ginibre_mixed((2, 2, 2), 4, 1)
    r = verify_corollary1(rho, 3)
    assert r.name == "cor1-m3"
    assert r.slack == pytest.approx(0.0, abs=1e-15)


def test_corollary1_ghz_pairs():
    r = verify_corollary1(density_from_pure(ghz_state(np.pi / 4)), 2)
    assert r.name == "cor1-m2"
    assert r.lhs == pytest.approx(1.0, abs=1e-12)
    assert r.rhs == pytest.approx(0.0, abs=1e-13)


def test_corollary1_four_qubit_direct_evaluation():
    psi = sample_haar_pure((2, 2, 2, 2), 8)
    rho = density_from_pure(psi)
    r = verify_corollary1(rho, 2)
    pairs = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    assert len(pairs) == 6
    expected_rhs = sum(subset_coherence(rho, p) for p in pairs) / math.comb(3, 1)
    assert r.rhs == pytest.approx(expected_rhs, abs=1e-12)
    assert r.holds


def test_corollary1_matches_theorem1_at_three_qubits(haar_three_qubit):
    for psi in haar_three_qubit[:10]:
        rho = density_from_pure(psi)
        assert verify_corollary1(rho, 2).rhs == pytest.approx(verify_theorem1(rho).rhs, abs=1e-13)


def test_corollary_label_for_qudits():
    rho = sample_ginibre_mixed((3, 3), 3, 2)
    assert verify_corollary1(rho, 1).name == "cor2-m1"
    rho = sample_ginibre_mixed((2, 3, 4), 4, 2)
    assert verify_corollary1(rho, 2).name == "cor2-m2"


def test_corollary1_rejects_out_of_range_m():
    rho = sample_ginibre_mixed((2, 2), 2, 3)
    with pytest.raises(ValueError):
        verify_corollary1(rho, 3)


def test_theorem3_ghz_family():
    for phi in np.linspace(0, 2 * np.pi, 16, endpoint=False):
        r = verify_theorem3(ghz_state(phi))
        assert r.name == "thm3"
        assert r.lhs == pytest.approx(2 * abs(np.sin(phi) * np.cos(phi)), abs=1e-12)
        assert r.rhs == pytest.approx(4 * (np.sin(phi) * np.cos(phi)) ** 2, abs=1e-12)
        assert r.holds
    assert abs(verify_theorem3(ghz_state(np.pi / 4)).slack) < 1e-10


def test_theorem3_w_family():
    for theta in np.linspace(0.1, np.pi - 0.1, 5):
        for phi in np.linspace(0.1, 2 * np.pi - 0.1, 5):
            r = verify_theorem3(w_state(theta, phi))
            assert r.holds
            assert three_tangle(w_state(theta, phi)) == 0.0


def test_theorem3_rejects_mixed_input():
    for bound in (b for b in bounds((2, 2, 2), pure=True) if b.tangle):
        with pytest.raises(TypeError, match="pure state required"):
            bound.evaluate(sample_ginibre_mixed((2, 2, 2), 2, 0))
        with pytest.raises(ValueError, match=r"three-qubit state required, got dims \(2, 2\)"):
            bound.evaluate(sample_haar_pure((2, 2), 0))
    with pytest.raises(TypeError):
        verify_theorem3(sample_ginibre_mixed((2, 2, 2), 2, 0))
    with pytest.raises(ValueError):
        verify_theorem3(sample_haar_pure((2, 2), 0))


def test_eq10_examples():
    r = verify_eq10(ghz_state(np.pi / 4))
    assert r.name == "eq10"
    assert r.lhs == pytest.approx(1.0, abs=1e-12)
    assert r.rhs == pytest.approx(1.0, abs=1e-12)

    amps = np.zeros(8)
    amps[0] = 1.0
    from cohtrade import PureState

    r = verify_eq10(PureState(LocalDims((2, 2, 2)), amps))
    assert r.lhs == 0.0 and r.rhs == 0.0

    r = verify_eq10(w_state(np.pi / 2, np.pi / 4))
    assert r.lhs == pytest.approx(1.0, abs=1e-12)
    assert r.rhs == pytest.approx(0.0, abs=1e-13)


# ---------------------------------------------------------------------------
# run_suite
# ---------------------------------------------------------------------------

def test_suite_on_pure_three_qubit_state():
    results = run_suite(ghz_state(np.pi / 4))
    names = [r.name for r in results]
    assert names == [
        "thm1", "eq3",
        "eq4-pivot1", "eq4-pivot2", "eq4-pivot3",
        "eq5-single1", "eq5-single2", "eq5-single3",
        "cor1-m1", "cor1-m2", "cor1-m3",
        "thm3", "eq10",
    ]
    assert names == suite_names(LocalDims((2, 2, 2)), pure=True)
    assert all(r.holds for r in results)


def test_suite_on_mixed_three_qubit_state():
    results = run_suite(sample_ginibre_mixed((2, 2, 2), 4, 5))
    names = [r.name for r in results]
    assert "thm3" not in names and "eq10" not in names
    assert all(r.holds for r in results if proved((2, 2, 2), pure=False)[r.name])


def test_suite_on_four_qubit_mixed_state():
    results = run_suite(sample_ginibre_mixed((2, 2, 2, 2), 6, 5))
    assert [r.name for r in results] == ["cor1-m1", "cor1-m2", "cor1-m3", "cor1-m4"]
    assert all(r.holds for r in results)


def test_suite_on_qutrit_state():
    results = run_suite(sample_ginibre_mixed((3, 3, 3), 5, 5))
    assert [r.name for r in results] == ["cor2-m1", "cor2-m2", "cor2-m3"]
    assert all(r.holds for r in results)


def test_suite_rejects_malformed_state():
    not_psd = np.diag([1.25, -0.25, 0, 0, 0, 0, 0, 0]).astype(np.complex128)
    with pytest.raises(InvalidStateError, match="eigenvalue"):
        DensityOperator(LocalDims((2, 2, 2)), not_psd)
    with pytest.raises(InvalidStateError, match="eigenvalue"):
        suite_stack((2, 2, 2), not_psd[None])


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2, 3, 4)])
def test_bound_table_matches_paper_formulas_exactly(dims):
    d = LocalDims(dims).total_dim
    for seed in range(20):
        psi = sample_haar_pure(dims, 500 + seed)
        rho = density_from_pure(psi)
        mixed = sample_ginibre_mixed(dims, 1 + seed % d, 600 + seed)
        for state, density, pure in ((psi, rho, psi), (mixed, mixed, None)):
            expected = paper_rhs(density, pure)
            results = run_suite(state)
            assert [r.name for r in results] == list(expected)
            for r in results:
                assert r.lhs == l1_coherence(density)
                assert r.rhs == expected[r.name], r.name
        pure_rhs = paper_rhs(rho, psi)
        for name, rhs in pure_rhs.items():
            assert resolve_objective(name, dims)(psi).rhs == rhs, name
        for bound in bounds(dims, pure=True):
            r = bound.evaluate(psi)
            assert (r.lhs, r.rhs) == (l1_coherence(rho), pure_rhs[bound.name]), bound.name
        mixed_rhs = paper_rhs(mixed)
        for bound in bounds(dims, pure=False):
            r = bound.evaluate(mixed)
            assert (r.lhs, r.rhs) == (l1_coherence(mixed), mixed_rhs[bound.name]), bound.name


def test_tangle_bound_is_tighter_than_half_sum(haar_three_qubit):
    for psi in haar_three_qubit[:50]:
        rho = density_from_pure(psi)
        assert verify_theorem3(psi).slack <= verify_theorem1(rho).slack + EPS


def test_pure_state_tangle_bounds_on_random_ensemble():
    for seed in range(1000):
        psi = sample_haar_pure((2, 2, 2), 90_000 + seed)
        assert verify_theorem3(psi).slack >= -EPS
        assert verify_eq10(psi).slack >= -EPS


def test_holds_flag_matches_tolerance():
    rho = density_from_pure(two_term_state(np.pi / 4))
    r = verify_additive_conjecture(rho, 1, tolerance=2.0)
    assert r.holds  # slack -1 >= -2
    r = verify_additive_conjecture(rho, 1, tolerance=0.5)
    assert not r.holds


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def test_csv_round_trip_is_bit_exact():
    results = run_suite(sample_haar_pure((2, 2, 2), 77))
    buf = io.StringIO()
    write_results_csv(buf, results)
    buf.seek(0)
    parsed = read_results_csv(buf)
    assert len(parsed) == len(results)
    for orig, back in zip(results, parsed):
        assert back.name == orig.name
        assert back.lhs == orig.lhs
        assert back.rhs == orig.rhs
        assert back.slack == orig.slack
        assert back.holds == orig.holds
        assert back.tolerance == orig.tolerance
        assert back.holds == (back.slack >= -back.tolerance)


# ---------------------------------------------------------------------------
# inputs that are not states, and tolerances that are not tolerances

THREE = LocalDims((2, 2, 2))


def not_a_state() -> np.ndarray:
    """Hermitian with unit trace, but eigenvalue 1/8 - 7 * 0.2 < 0: not a state."""
    mat = np.full((8, 8), -0.2, dtype=np.complex128)
    np.fill_diagonal(mat, 1 / 8)
    return mat


def _via_file(mat, tmp_path):
    path = tmp_path / "not-a-state.json"
    write_state_file(path, DensityOperator._trusted(THREE, mat))
    return read_state_file(path)


THM1 = bounds(THREE, pure=False)[0]
DENSITY_ENTRY_POINTS = {
    "DensityOperator": lambda m, tmp: DensityOperator(THREE, m),
    "read_state_file": _via_file,
    "run_suite": lambda m, tmp: run_suite(DensityOperator(THREE, m)),
    "Bound.evaluate": lambda m, tmp: THM1.evaluate(DensityOperator(THREE, m)),
    "verify_theorem1": lambda m, tmp: verify_theorem1(DensityOperator(THREE, m)),
    "verify_singles_sum": lambda m, tmp: verify_singles_sum(DensityOperator(THREE, m)),
    "verify_additive_conjecture": lambda m, tmp: verify_additive_conjecture(
        DensityOperator(THREE, m), 1
    ),
    "verify_marginal_split": lambda m, tmp: verify_marginal_split(DensityOperator(THREE, m), 1),
    "verify_corollary1": lambda m, tmp: verify_corollary1(DensityOperator(THREE, m), 2),
}


def test_unchecked_non_positive_matrix_would_pass_thm1():
    # why every public path must reject it: the bound itself cannot tell
    r = verify_theorem1(DensityOperator._trusted(THREE, not_a_state()))
    assert r.holds and r.slack == pytest.approx(4.0)


@pytest.mark.parametrize("entry", list(DENSITY_ENTRY_POINTS), ids=list(DENSITY_ENTRY_POINTS))
def test_every_density_entry_point_rejects_non_positive_matrix(entry, tmp_path):
    with pytest.raises(InvalidStateError, match="minimum eigenvalue -1.27.* is not positive"):
        DENSITY_ENTRY_POINTS[entry](not_a_state(), tmp_path)


NOT_UNIT_ROWS = {
    "scaled": lambda good: 3 * good,  # a unit row tripled: thm1 held with slack 26.65
    "nan": lambda good: np.where(np.arange(len(good)) == 1, np.nan, good),
    "inf": lambda good: np.where(np.arange(len(good)) == 0, np.inf, good),
    "zero": lambda good: np.zeros_like(good),
}


def _constructor_message(dims, amps) -> str:
    with pytest.raises(InvalidStateError) as exc:
        PureState(dims, amps)
    return str(exc.value)


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2,) * 5], ids=str)  # D < 32 and D >= 32
@pytest.mark.parametrize("fault", list(NOT_UNIT_ROWS))
def test_suite_stack_rejects_rows_that_are_not_states(dims, fault):
    good = sample_haar_stack(dims, 0, 5)
    bad = NOT_UNIT_ROWS[fault](good[1])
    with pytest.raises(InvalidStateError) as exc:
        suite_stack(dims, bad[None])
    assert str(exc.value) == _constructor_message(dims, bad)
    # the first failing row in stack order raises, whatever fails after it
    later = NOT_UNIT_ROWS["scaled" if fault == "zero" else "zero"](good[3])
    stack = np.vstack((good[:1], bad, good[2:3], later, good[4:]))
    with pytest.raises(InvalidStateError) as exc:
        suite_stack(dims, stack)
    assert str(exc.value) == _constructor_message(dims, bad)
    assert str(exc.value) != _constructor_message(dims, later)


_GHZ = density_from_pure(ghz_state(np.pi / 4)).mat
WRONG_SHAPES = {
    "density-of-other-dims": np.eye(4)[None] / 4,  # numpy: cannot reshape array of size 16
    "not-square": _GHZ[None, :, :4],  # numpy: operands could not be broadcast
    "extra-axis": _GHZ[None, None],  # numpy: the truth value of an array is ambiguous
    "one-amplitude-row": ghz_state(np.pi / 4).amps,
    "rows-of-other-dims": sample_haar_stack((2, 2), 0, 3),
}
#: Each public function that takes a stack of states at ``dims``
STACK_ENTRY_POINTS = {
    "suite_stack": suite_stack,
    "coherence_stack": coherence_stack,
    "Bound.residual": lambda dims, states: bounds(dims, pure=False)[0].residual(states),
}
#: Six-qubit rows at five qubits, whose first 32 amplitudes a kernel could read as a state
SIX_QUBIT_ROWS = (LocalDims((2,) * 5), sample_haar_stack((2,) * 6, 0, 2))


def _wrong_shape_cases():
    for entry in STACK_ENTRY_POINTS:
        prefix = "" if entry == "suite_stack" else f"{entry}-"
        for fault, states in WRONG_SHAPES.items():
            yield pytest.param(entry, THREE, states, id=prefix + fault)
        yield pytest.param(entry, *SIX_QUBIT_ROWS, id=prefix + "six-qubit-rows-at-five-qubits")


@pytest.mark.parametrize("entry,dims,states", list(_wrong_shape_cases()))
def test_suite_stack_rejects_stacks_of_other_shapes(entry, dims, states):
    d = dims.total_dim
    expected = f"state stack has shape {states.shape}, expected (B, {d}) or (B, {d}, {d})"
    with pytest.raises(InvalidStateError, match=f"^{re.escape(expected)}$"):
        STACK_ENTRY_POINTS[entry](dims, states)


def test_suite_stack_reads_an_unbatched_matrix_as_amplitude_rows():
    # (D, D) is also the shape of D amplitude rows.  The squared norms of a
    # density matrix's rows sum to tr(rho^2) <= 1 < D, so a row always fails.
    with pytest.raises(InvalidStateError) as exc:
        suite_stack(THREE, _GHZ)
    assert str(exc.value) == _constructor_message(THREE, _GHZ[0])


BAD_BOUND_RECORDS = {
    "divisor-0": (gamma(2, 3), 0, "divisor must be >= 1, got 0"),
    "divisor-negative": (gamma(2, 3), -1, "divisor must be >= 1, got -1"),
    "divisor-True": (gamma(2, 3), True, "divisor must be an integer, got True"),
    "divisor-str": (gamma(2, 3), "2", "divisor must be an integer, got '2'"),
    "divisor-float": (gamma(2, 3), 2.0, "divisor must be an integer, got 2.0"),
    "no-subsets": ((), 1, "bound b needs at least one subset"),
}


@pytest.mark.parametrize("fault", list(BAD_BOUND_RECORDS))
def test_bound_rejects_a_bad_record(fault):
    subsets, divisor, message = BAD_BOUND_RECORDS[fault]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Bound("b", THREE, subsets, divisor)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2), (3, 3, 3)])
def test_bound_takes_party_tuples_as_subsets(dims):
    for entry in bounds(dims, pure=True):
        assert all(isinstance(s, SubsystemSet) for s in entry.subsets)
        tuples = [s.parties for s in entry.subsets]
        assert Bound(entry.name, dims, tuples, entry.divisor, entry.tangle) == entry


_PSI = ghz_state(0.3)
_RHO = density_from_pure(_PSI)
TOLERANCE_ENTRY_POINTS = {
    "Bound.evaluate": lambda t: THM1.evaluate(_PSI, t),
    "verify_theorem1": lambda t: verify_theorem1(_RHO, t),
    "verify_singles_sum": lambda t: verify_singles_sum(_RHO, t),
    "verify_additive_conjecture": lambda t: verify_additive_conjecture(_RHO, 1, t),
    "verify_marginal_split": lambda t: verify_marginal_split(_RHO, 1, t),
    "verify_corollary1": lambda t: verify_corollary1(_RHO, 2, t),
    "verify_theorem3": lambda t: verify_theorem3(_PSI, t),
    "verify_eq10": lambda t: verify_eq10(_PSI, t),
    "run_suite": lambda t: run_suite(_PSI, t),
    "family_sweep": lambda t: family_sweep("ghz", [(0.3,)], t),
    # the results of a stack that spans two chunks of suite_stack
    "stack_results": lambda t: family_sweep("ghz", default_grid("ghz", 1025), t),
    # an empty grid builds no result, and is checked all the same
    "family_sweep-empty": lambda t: family_sweep("ghz", [], t),
    # no trials: the tolerance is checked before any work
    "ensemble_reports": lambda t: ensemble_reports(THREE, 0, 0, tolerance=t),
}


@pytest.mark.parametrize(
    "tolerance",
    [math.nan, math.inf, -5.0, True, pytest.param(np.True_, id="np.True_"), "0.1", None,
     pytest.param(10**400, id="10**400")],
)
@pytest.mark.parametrize("entry", list(TOLERANCE_ENTRY_POINTS), ids=list(TOLERANCE_ENTRY_POINTS))
def test_every_tolerance_entry_point_rejects_bad_tolerance(entry, tolerance):
    with pytest.raises(ValueError) as exc:
        TOLERANCE_ENTRY_POINTS[entry](tolerance)
    assert str(exc.value) == f"tolerance must be a finite number >= 0, got {tolerance!r}"
    TOLERANCE_ENTRY_POINTS[entry](0.0)  # while zero is a tolerance


def _records(out):
    """Every result, report and sweep in an entry point's output."""
    if isinstance(out, (InequalityResult, TrialReport, Sweep)):
        yield out
    else:
        for item in out:
            yield from _records(item)


@pytest.mark.parametrize(
    "tolerance",
    [np.float32(0.1), Fraction(1, 3), np.float64(0.25), 1],
    ids=["np.float32", "Fraction", "np.float64", "int"],
)
@pytest.mark.parametrize("entry", [e for e in TOLERANCE_ENTRY_POINTS if e != "family_sweep-empty"])
def test_every_tolerance_entry_point_keeps_a_float(entry, tolerance):
    if entry == "ensemble_reports":  # with trials, so that it reports
        records = list(_records(ensemble_reports(THREE, 3, 0, tolerance=tolerance)))
    else:
        records = list(_records(TOLERANCE_ENTRY_POINTS[entry](tolerance)))
    assert records
    for record in records:
        assert type(record.tolerance) is float and record.tolerance == float(tolerance)
        if isinstance(record, InequalityResult):
            assert type(record.holds) is bool


@pytest.mark.parametrize(
    "tolerance, text",
    [(np.float32(0.1), "0.10000000149011612"), (Fraction(1, 3), "0.33333333333333331")],
    ids=["np.float32", "Fraction"],
)
def test_csv_writes_a_real_tolerance_as_a_float(tolerance, text):
    out = io.StringIO()
    write_results_csv(out, run_suite(_PSI, tolerance))
    rows = out.getvalue().splitlines()[1:]
    assert len(rows) == len(suite_names(THREE, True))
    assert all(row.endswith(f",true,{text}") for row in rows)


STATE_ENTRY_POINTS = {
    "run_suite": run_suite,
    "Bound.evaluate-thm1": THM1.evaluate,
    "Bound.evaluate-thm3": next(b for b in bounds(THREE, pure=True) if b.name == "thm3").evaluate,
    "state_to_dict": state_to_dict,
}


@pytest.mark.parametrize("state", [np.eye(8) / 8, "state"], ids=["ndarray", "str"])
@pytest.mark.parametrize("entry", list(STATE_ENTRY_POINTS))
def test_every_state_entry_point_rejects_a_non_state(entry, state):
    expected = f"expected PureState or DensityOperator, got {type(state).__name__}"
    with pytest.raises(TypeError, match=f"^{expected}$"):
        STATE_ENTRY_POINTS[entry](state)


# ---------------------------------------------------------------------------
# each bound at its own dims
# ---------------------------------------------------------------------------

# (2, 3, 2) shares (2, 2, 2)'s party count and differs in one local dims
TABLE_DIMS = [(2, 2), (2, 2, 2), (2, 3, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2), (2,) * 5]


@functools.lru_cache(maxsize=None)
def _states_at(dims):
    """A Haar pure state and a rank-2 Ginibre state at ``dims``."""
    return sample_haar_pure(dims, 11), sample_ginibre_mixed(dims, 2, 12)


@pytest.mark.parametrize("dims", TABLE_DIMS)
def test_each_bound_takes_states_of_its_own_dims_only(dims):
    for state in _states_at(dims):
        table = bounds(dims, isinstance(state, PureState))
        assert all(b.dims == LocalDims(dims) for b in table)
        assert [b.evaluate(state) for b in table] == run_suite(state)
        for other in TABLE_DIMS:
            for wrong in _states_at(other) if other != dims else ():
                for bound in table:
                    if bound.tangle and not isinstance(wrong, PureState):
                        continue  # TypeError first, see test_theorem3_rejects_mixed_input
                    message = (
                        "three-qubit state required" if bound.tangle else
                        re.escape(f"bound {bound.name} is stated for dims {dims}, "
                                  f"got a state of dims {other}")
                    )
                    with pytest.raises(ValueError, match=message):
                        bound.evaluate(wrong)

