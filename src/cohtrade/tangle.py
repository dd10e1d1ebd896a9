"""Three-tangle of pure three-qubit states, with a concurrence-based oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import RESIDUAL_WEIGHTS
from .states import DensityOperator, PureState, density_from_pure, partial_trace

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYSY = np.kron(_SIGMA_Y, _SIGMA_Y).real  # entries are 0 and +-1


def _require_three_qubits(psi: PureState) -> None:
    if psi.dims.dims != (2, 2, 2):
        raise ValueError(f"three-qubit pure state required, got dims {psi.dims.dims}")


@dataclass(frozen=True)
class TangleBreakdown:
    """Degree-4 amplitude invariants and the tangle tau = 4|d1 - 2 d2 + 4 d3|."""

    d1: complex
    d2: complex
    d3: complex
    tau: float


def three_tangle(psi: PureState) -> TangleBreakdown:
    """Tangle of a pure three-qubit state from its amplitude polynomial.

    The d-terms use complex amplitude products (squares, not moduli); the
    absolute value is taken once at the end.
    """
    _require_three_qubits(psi)
    a000, a001, a010, a011, a100, a101, a110, a111 = psi.amps
    d1 = a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a100**2 * a011**2
    d2 = (
        a000 * a111 * a011 * a100
        + a000 * a111 * a101 * a010
        + a000 * a111 * a110 * a001
        + a011 * a100 * a101 * a010
        + a011 * a100 * a110 * a001
        + a101 * a010 * a110 * a001
    )
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    tau = 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)
    return TangleBreakdown(complex(d1), complex(d2), complex(d3), float(tau))


def wootters_concurrence(rho: DensityOperator) -> float:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4) from the spin-flip spectrum.

    The l_i are the descending square roots of the eigenvalues of
    rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y).  For any factorization
    rho = Psi Psi^dag those equal the singular values of the symmetric matrix
    Psi^T (sigma_y x sigma_y) Psi, which avoids the half-precision loss of a
    general eigensolve near the zero eigenvalues of low-rank inputs.
    """
    if rho.dims.dims != (2, 2):
        raise ValueError(f"two-qubit state required, got dims {rho.dims.dims}")
    w, v = np.linalg.eigh(rho.mat)
    psi = v * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(psi.T @ _SYSY @ psi, compute_uv=False)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def spin_flip_spectrum_direct(rho: DensityOperator) -> np.ndarray:
    """Descending sqrt-eigenvalues of rho (sysy) rho* (sysy) via a general eigensolve.

    Reference route for cross-checking :func:`wootters_concurrence`; accurate
    only to ~1e-7 absolute for rank-deficient inputs.
    """
    if rho.dims.dims != (2, 2):
        raise ValueError(f"two-qubit state required, got dims {rho.dims.dims}")
    flipped = _SYSY @ rho.mat.conj() @ _SYSY
    evals = np.linalg.eigvals(rho.mat @ flipped)
    return np.sort(np.sqrt(np.clip(evals.real, 0.0, None)))[::-1]


def ckw_tangle_oracle(psi: PureState) -> float:
    """Tangle via the monogamy identity: 4 det(rho_A) - C(rho_AB)^2 - C(rho_AC)^2."""
    _require_three_qubits(psi)
    rho = density_from_pure(psi)
    rho_a = partial_trace(rho, (1,)).mat
    det_a = (rho_a[0, 0] * rho_a[1, 1] - rho_a[0, 1] * rho_a[1, 0]).real
    c_ab = wootters_concurrence(partial_trace(rho, (1, 2)))
    c_ac = wootters_concurrence(partial_trace(rho, (1, 3)))
    return max(0.0, 4.0 * det_a - c_ab**2 - c_ac**2)


def dprime_slack(psi: PureState) -> float:
    """Pure-state residual D'/2 = |a| W |a| / 2; satisfies D'/2 >= tau within tolerance."""
    _require_three_qubits(psi)
    a = np.abs(psi.amps)
    return float(a @ RESIDUAL_WEIGHTS @ a / 2.0)
