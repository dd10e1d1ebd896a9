"""Dense multipartite state algebra: types, indexing, reduction, sampling.

Conventions used throughout the package:

* Party 1 is the most significant mixed-radix digit of a flat basis index,
  so for local dimensions ``(d1, ..., dn)`` the basis label ``|i1 ... in>``
  maps to ``i1*d2*...*dn + ... + i_{n-1}*dn + i_n``.
* Randomness comes from numpy's PCG64 generator (``np.random.default_rng``),
  a named, documented, seedable 64-bit generator.  Complex Gaussians are
  produced from its uniforms by the Box-Muller transform, so every sampler
  is a pure function of its integer seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

EPS_NORM = 1e-10
EPS_HERM = 1e-10
EPS_PSD = 1e-10


class InvalidStateError(ValueError):
    """Raised when a state object violates one of its defining invariants."""


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise InvalidStateError(f"every {what} entry must be finite, got NaN or inf")


def _require_hermitian(mat: np.ndarray) -> None:
    _require_finite(mat, "matrix")
    if not np.abs(mat - mat.conj().T).max() <= EPS_HERM:
        raise InvalidStateError(f"matrix is not Hermitian within {EPS_HERM}")


def _require_unit_trace_hermitian(mat: np.ndarray) -> None:
    _require_hermitian(mat)
    trace = complex(np.trace(mat))
    if not abs(trace - 1.0) <= EPS_NORM:
        raise InvalidStateError(f"trace {trace!r} deviates from 1 by more than {EPS_NORM}")


def _as_dims(dims: "LocalDims | Sequence[int]") -> "LocalDims":
    return dims if isinstance(dims, LocalDims) else LocalDims(tuple(dims))


def _as_subsystem(parties: "SubsystemSet | Iterable[int]") -> "SubsystemSet":
    return parties if isinstance(parties, SubsystemSet) else SubsystemSet(tuple(parties))


@dataclass(frozen=True)
class LocalDims:
    """Local dimension of each party, party 1 first."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(self.dims)
        if any(isinstance(d, bool) or not isinstance(d, (int, np.integer)) for d in dims):
            raise InvalidStateError(f"every local dimension must be an integer, got {dims!r}")
        dims = tuple(int(d) for d in dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1:
            raise InvalidStateError("dims must list at least one party")
        if any(d < 2 for d in dims):
            raise InvalidStateError(f"every local dimension must be >= 2, got {dims}")

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def all_qubits(self) -> bool:
        return all(d == 2 for d in self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i: int) -> int:
        return self.dims[i]


@dataclass(frozen=True)
class SubsystemSet:
    """Strictly increasing 1-based party indices selecting a reduction."""

    parties: tuple[int, ...]

    def __post_init__(self) -> None:
        parties = tuple(self.parties)
        if any(isinstance(p, bool) or not isinstance(p, (int, np.integer)) for p in parties):
            raise ValueError(f"party indices must be integers, got {parties!r}")
        parties = tuple(int(p) for p in parties)
        object.__setattr__(self, "parties", parties)
        if not parties:
            raise ValueError("subsystem set must be nonempty")
        if parties[0] < 1:
            raise ValueError(f"party indices are 1-based, got {parties}")
        if any(b <= a for a, b in zip(parties, parties[1:])):
            raise ValueError(f"party indices must be strictly increasing, got {parties}")

    def check_against(self, dims: LocalDims) -> "SubsystemSet":
        if self.parties[-1] > dims.n_parties:
            raise ValueError(
                f"subsystem {self.parties} out of range for {dims.n_parties} parties"
            )
        return self

    def __iter__(self):
        return iter(self.parties)

    def __len__(self) -> int:
        return len(self.parties)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over a tensor-product space."""

    dims: LocalDims
    amps: np.ndarray

    def __post_init__(self) -> None:
        dims = _as_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        amps = np.array(self.amps, dtype=np.complex128).reshape(-1)
        if amps.shape != (dims.total_dim,):
            raise InvalidStateError(
                f"amplitude vector has length {amps.shape[0]}, expected {dims.total_dim}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= EPS_NORM:  # NaN fails this test
            _require_finite(amps, "amplitude")
            raise InvalidStateError(
                f"squared norm {norm_sq!r} deviates from 1 by more than {EPS_NORM}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _trusted(cls, dims: LocalDims, amps: np.ndarray) -> "PureState":
        # fast path for freshly sampled rows that passed the same checks
        amps.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "dims", dims)
        object.__setattr__(obj, "amps", amps)
        return obj


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace matrix over a tensor-product space.

    Construction checks shape, finiteness, Hermiticity and trace;
    :meth:`validate` re-checks those (results of trusted operations skip
    construction) and adds the positivity test, which needs a spectrum.
    """

    dims: LocalDims
    mat: np.ndarray

    def __post_init__(self) -> None:
        dims = _as_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        d = dims.total_dim
        mat = np.array(self.mat, dtype=np.complex128)
        if mat.shape != (d, d):
            raise InvalidStateError(f"matrix has shape {mat.shape}, expected {(d, d)}")
        _require_unit_trace_hermitian(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    def validate(self) -> "DensityOperator":
        _require_unit_trace_hermitian(self.mat)
        min_eig = float(np.linalg.eigvalsh(self.mat)[0])
        if not min_eig >= -EPS_PSD:
            raise InvalidStateError(
                f"minimum eigenvalue {min_eig!r} below -{EPS_PSD}: matrix is not positive"
            )
        return self

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)

    @classmethod
    def _trusted(cls, dims: LocalDims, mat: np.ndarray) -> "DensityOperator":
        # fast path for freshly allocated results of invariant-preserving
        # operations (outer products, partial traces, tensor products)
        mat.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "dims", dims)
        object.__setattr__(obj, "mat", mat)
        return obj


def validate_stack(dims: LocalDims, mats: np.ndarray) -> None:
    """:meth:`DensityOperator.validate` for every matrix of a ``(B, D, D)`` stack.

    The checks run on the whole stack with one batched ``eigvalsh``.  If any
    matrix fails, the matrices are validated one by one in stack order, so
    the first failing one raises its own diagnostic.
    """
    skew = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2))
    trace_dev = np.abs(np.trace(mats, axis1=1, axis2=2) - 1.0)
    ok = (skew <= EPS_HERM) & (trace_dev <= EPS_NORM)  # NaN fails both tests
    if ok.all():
        ok = np.linalg.eigvalsh(mats)[:, 0] >= -EPS_PSD
        if ok.all():
            return
    for mat in mats:
        DensityOperator._trusted(dims, mat).validate()


def encode_index(digits: Sequence[int], dims: "LocalDims | Sequence[int]") -> int:
    """Flatten per-party basis labels into a single index, party 1 most significant."""
    dims = _as_dims(dims)
    digits = tuple(int(x) for x in digits)
    if len(digits) != dims.n_parties:
        raise ValueError(f"got {len(digits)} digits for {dims.n_parties} parties")
    flat = 0
    for digit, dim in zip(digits, dims):
        if not 0 <= digit < dim:
            raise ValueError(f"digit {digit} out of range for local dimension {dim}")
        flat = flat * dim + digit
    return flat


def decode_index(index: int, dims: "LocalDims | Sequence[int]") -> tuple[int, ...]:
    """Inverse of :func:`encode_index`."""
    dims = _as_dims(dims)
    index = int(index)
    if not 0 <= index < dims.total_dim:
        raise ValueError(f"index {index} out of range for total dimension {dims.total_dim}")
    digits = []
    for dim in reversed(dims.dims):
        index, digit = divmod(index, dim)
        digits.append(digit)
    return tuple(reversed(digits))


def density_from_pure(psi: PureState) -> DensityOperator:
    """Rank-1 projector |psi><psi|."""
    return DensityOperator._trusted(psi.dims, np.outer(psi.amps, psi.amps.conj()))


_REDUCTION_PLANS: dict = {}


def _reduction_plan(dims: LocalDims, keep: SubsystemSet):
    key = (dims.dims, keep.parties)
    plan = _REDUCTION_PLANS.get(key)
    if plan is None:
        n = dims.n_parties
        kept = [p - 1 for p in keep.parties]
        kept_set = set(kept)
        subscripts = list(range(n)) + [n + i if i in kept_set else i for i in range(n)]
        out = kept + [n + i for i in kept]
        kept_dims = LocalDims(tuple(dims[i] for i in kept))
        plan = (subscripts, out, kept_dims)
        _REDUCTION_PLANS[key] = plan
    return plan


def partial_trace(
    rho: DensityOperator, keep: "SubsystemSet | Iterable[int]"
) -> DensityOperator:
    """Trace out every party not in ``keep``; kept parties stay in ascending order."""
    keep = _as_subsystem(keep).check_against(rho.dims)
    dims = rho.dims
    subscripts, out, kept_dims = _reduction_plan(dims, keep)
    tensor = rho.mat.reshape(dims.dims + dims.dims)
    reduced = np.einsum(tensor, subscripts, out)
    d = kept_dims.total_dim
    return DensityOperator._trusted(kept_dims, np.ascontiguousarray(reduced.reshape(d, d)))


def kron(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Tensor product; ``a``'s parties come first."""
    return DensityOperator._trusted(LocalDims(a.dims.dims + b.dims.dims), np.kron(a.mat, b.mat))


def hermitian_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, descending."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    _require_hermitian(mat)
    return np.linalg.eigvalsh(mat)[::-1]


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # log(1 - u1), safe at u1 = 0
    return radius * np.exp(2j * np.pi * u2)


def complex_normals(rng: np.random.Generator, size) -> np.ndarray:
    """Standard complex Gaussians (Re and Im each N(0,1)) via Box-Muller."""
    u1 = rng.random(size)
    u2 = rng.random(size)
    return _box_muller(u1, u2)


def sample_haar_stack(dims: "LocalDims | Sequence[int]", seeds: Sequence[int]) -> np.ndarray:
    """Haar-uniform amplitude rows: row t is ``sample_haar_pure(dims, seeds[t]).amps``.

    Each seed gets its own generator; one Box-Muller transform and one
    normalization serve the whole stack, and every row passes the checks of
    :class:`PureState` (a failing row raises its own diagnostic).
    """
    dims = _as_dims(dims)
    u = np.empty((2, len(seeds), dims.total_dim))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.random(out=u[0, row])
        rng.random(out=u[1, row])
    z = _box_muller(u[0], u[1])
    # np.linalg.norm of one row: the real and imaginary parts as two dot products
    z /= np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))[:, None]
    unit = np.abs(np.vecdot(z, z).real - 1.0) <= EPS_NORM  # NaN fails this test
    if not unit.all():
        for row in np.flatnonzero(~unit):
            PureState(dims, z[row])
    return z


def sample_haar_pure(dims: "LocalDims | Sequence[int]", seed: int) -> PureState:
    """Haar-uniform pure state: normalized i.i.d. complex Gaussian amplitudes."""
    dims = _as_dims(dims)
    return PureState._trusted(dims, sample_haar_stack(dims, (seed,))[0])


def sample_ginibre_mixed(
    dims: "LocalDims | Sequence[int]", rank: int, seed: int
) -> DensityOperator:
    """Ginibre-induced mixed state G G^dag / tr(G G^dag) with G of shape (D, rank)."""
    dims = _as_dims(dims)
    d = dims.total_dim
    rank = int(rank)
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in 1..{d}, got {rank}")
    rng = np.random.default_rng(seed)
    g = complex_normals(rng, (d, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = (m + m.conj().T) / 2.0  # enforce exact Hermiticity against roundoff
    return DensityOperator._trusted(dims, m)
