"""Three-tangle of pure three-qubit states, with a concurrence-based oracle.

A one-state function raises ``ValueError`` on a state of other dims, a stack
function ``InvalidStateError`` naming both shapes on a stack of another shape.
"""

from __future__ import annotations

import numpy as np

from .states import LocalDims, PureState, _reduce, _require_three_qubits, check_stack

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYSY = np.kron(_SIGMA_Y, _SIGMA_Y).real  # entries are 0 and +-1
_THREE_QUBITS = LocalDims((2, 2, 2))
_KEEPS = ((1,), (1, 2), (1, 3))  # A alone in its shape; AB and AC share a gather


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
    check_stack(amps, (8,), what="three-qubit amplitude")
    rows = amps.astype(np.complex128, copy=False).tolist()
    return np.array([_tangle(row) for row in rows], dtype=np.float64)


def concurrence_stack(rho: np.ndarray) -> np.ndarray:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4) of every matrix of a ``(B, 4, 4)`` stack.

    The l_i are the descending square roots of the eigenvalues of
    rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y).  For any factorization
    rho = Psi Psi^dag those equal the singular values of the symmetric matrix
    Psi^T (sigma_y x sigma_y) Psi, which avoids the half-precision loss of a
    general eigensolve near the zero eigenvalues of low-rank inputs.  One
    batched ``eigh`` and one batched ``svd`` serve the stack; numpy's linalg
    solves each matrix of a stack as it would alone.
    """
    check_stack(rho, (4, 4), what="two-qubit density")
    w, v = np.linalg.eigh(rho)
    psi = v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    lam = np.linalg.svd(psi.transpose(0, 2, 1) @ _SYSY @ psi, compute_uv=False)
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


def ckw_tangle_oracle_stack(amps: np.ndarray) -> np.ndarray:
    """Tangle via the monogamy identity, 4 det(rho_A) - C(rho_AB)^2 - C(rho_AC)^2, of each row.

    ``amps`` is a ``(B, 8)`` amplitude stack.  Every row's projector is
    reduced by ``states._reduce``: one gather and fold for A, and one for
    the pairs AB and AC, which share a shape and so one batched
    :func:`concurrence_stack`.  det(rho_A) is taken in real arithmetic: a
    numpy complex-array product may round differently from the
    complex-scalar one.
    """
    check_stack(amps, (8,), what="three-qubit amplitude")
    det_a, conc = np.empty(len(amps)), np.empty((len(amps), 2))
    for _, block, reduced in _reduce(_THREE_QUBITS, amps.astype(np.complex128, copy=False), _KEEPS):
        if reduced.shape[-1] == 2:  # rho_A
            p, q, r, s = (reduced[:, 0, i, j] for i, j in ((0, 0), (1, 1), (0, 1), (1, 0)))
            det_a[block] = (p.real * q.real - p.imag * q.imag) - (r.real * s.real - r.imag * s.imag)
        else:  # rho_AB and rho_AC
            conc[block] = concurrence_stack(reduced.reshape(-1, 4, 4)).reshape(-1, 2)
    c_ab, c_ac = conc.T
    return np.maximum(0.0, 4.0 * det_a - c_ab * c_ab - c_ac * c_ac)


def ckw_tangle_oracle(psi: PureState) -> float:
    """Monogamy tangle of one pure three-qubit state: a one-row :func:`ckw_tangle_oracle_stack`."""
    _require_three_qubits(psi.dims)
    return ckw_tangle_oracle_stack(psi.amps[None]).item()
