"""Three-tangle of pure three-qubit states, with a concurrence-based oracle."""

from __future__ import annotations

import numpy as np

from .coherence import RESIDUAL_WEIGHTS
from .states import DensityOperator, PureState, density_from_pure, partial_trace
from .states import _require_three_qubits

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYSY = np.kron(_SIGMA_Y, _SIGMA_Y).real  # entries are 0 and +-1


def _tangle(amps) -> float:
    """Tangle tau = 4|d1 - 2 d2 + 4 d3| of eight complex amplitudes.

    The d-terms are degree-4 amplitude invariants built from complex
    amplitude products (squares, not moduli); the absolute value is taken
    once at the end.  Python complex scalars keep every product and sum in
    this order and rounding: numpy complex arrays may fuse a multiply into
    an add, so a vectorized form would not give the same bits.
    """
    a000, a001, a010, a011, a100, a101, a110, a111 = amps
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
    return 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)


def three_tangle(psi: PureState) -> float:
    """Tangle tau of a pure three-qubit state (see :func:`_tangle`)."""
    _require_three_qubits(psi.dims)
    return _tangle(psi.amps.tolist())


def three_tangle_stack(amps: np.ndarray) -> np.ndarray:
    """:func:`three_tangle` of every row of a ``(B, 8)`` amplitude stack, row by row."""
    if amps.ndim != 2 or amps.shape[1] != 8:
        raise ValueError(f"(B, 8) three-qubit amplitude stack required, got shape {amps.shape}")
    rows = amps.astype(np.complex128, copy=False).tolist()
    return np.array([_tangle(row) for row in rows], dtype=np.float64)


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


def ckw_tangle_oracle(psi: PureState) -> float:
    """Tangle via the monogamy identity: 4 det(rho_A) - C(rho_AB)^2 - C(rho_AC)^2."""
    _require_three_qubits(psi.dims)
    rho = density_from_pure(psi)
    rho_a = partial_trace(rho, (1,)).mat
    det_a = (rho_a[0, 0] * rho_a[1, 1] - rho_a[0, 1] * rho_a[1, 0]).real
    c_ab = wootters_concurrence(partial_trace(rho, (1, 2)))
    c_ac = wootters_concurrence(partial_trace(rho, (1, 3)))
    return max(0.0, 4.0 * det_a - c_ab**2 - c_ac**2)


def dprime_slack(psi: PureState) -> float:
    """Pure-state residual D'/2 = |a| W |a| / 2; satisfies D'/2 >= tau within tolerance."""
    _require_three_qubits(psi.dims)
    a = np.abs(psi.amps)
    return float(a @ RESIDUAL_WEIGHTS @ a / 2.0)
