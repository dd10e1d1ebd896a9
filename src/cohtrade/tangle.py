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


_NEGATE_RE = np.array([[[-1.0]], [[1.0]]])


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Products of (re, im) pairs stacked on axis 0, rounded as numpy rounds the
    product of two complex scalars: (xr*yr - xi*yi, xr*yi + xi*yr).

    Array complex multiplies may fuse a product into the add and round
    differently, so the pairs are multiplied in real arithmetic.
    """
    return x[0] * y + x[1] * (y[::-1] * _NEGATE_RE)


# The terms of three_tangle as products over a pool of factors.  Pool columns
# 0-7 are the amplitudes; level 1 appends 8-15, the squares of amplitudes 0,
# 1, 2, 4, 7, 6, 5, 3, and 16-23, the first two factors of the six d2 terms
# and the two d3 terms.  Level 2 multiplies squares 8-11 by 12-15 (the d1
# terms) and 16-23 by their third factor; level 3 multiplies those by their
# fourth.  Each product is taken left to right, as the scalar formula does.
_LEVEL1 = np.array([[0, 1, 2, 4, 7, 6, 5, 3, 0, 0, 0, 3, 3, 5, 0, 7],
                    [0, 1, 2, 4, 7, 6, 5, 3, 7, 7, 7, 4, 4, 2, 6, 1]])
_LEVEL2 = np.array([[8, 9, 10, 11, 16, 17, 18, 19, 20, 21, 22, 23],
                    [12, 13, 14, 15, 3, 5, 6, 5, 6, 6, 5, 2]])
_LEVEL3 = np.array([4, 2, 1, 2, 1, 1, 3, 4])


def three_tangle_stack(amps: np.ndarray) -> np.ndarray:
    """``three_tangle(psi).tau`` for every row of a ``(B, 8)`` amplitude stack.

    Bit-identical to the scalar formula: every complex product and sum is
    taken in the same order, the modulus is ``np.hypot`` as in ``abs`` of a
    complex scalar, and the term sums are left folds (``np.add.accumulate``;
    a reduction may sum pairwise).
    """
    if amps.ndim != 2 or amps.shape[1] != 8:
        raise ValueError(f"(B, 8) three-qubit amplitude stack required, got shape {amps.shape}")
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    a = amps.view(np.float64).reshape(len(amps), 8, 2).T  # (re/im, basis, B)
    level1 = _cmul(a[:, _LEVEL1[0]], a[:, _LEVEL1[1]])
    pool = np.concatenate((a, level1), axis=1)
    level2 = _cmul(pool[:, _LEVEL2[0]], pool[:, _LEVEL2[1]])
    level3 = _cmul(level2[:, 4:], a[:, _LEVEL3])
    d1 = np.add.accumulate(level2[:, :4], axis=1)[:, -1]
    d2 = np.add.accumulate(level3[:, :6], axis=1)[:, -1]
    d3 = level3[:, 6] + level3[:, 7]
    re, im = d1 - 2.0 * d2 + 4.0 * d3
    return 4.0 * np.hypot(re, im)


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
