"""Dense multipartite state algebra: types, reduction, sampling.

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

#: Largest total dimension of a state: one dense D x D complex matrix is
#: 256 MiB at this size, and a mixed state's suite holds several.  A pure
#: state of D >= 32 forms no D x D matrix: its largest is (D/d) x (D/d), d
#: its smallest local dimension.
MAX_TOTAL_DIM = 4096


class InvalidStateError(ValueError):
    """Raised when a state object violates one of its defining invariants."""


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise InvalidStateError(f"every {what} entry must be finite, got NaN or inf")


def _as_dims(dims: "LocalDims | Sequence[int]") -> "LocalDims":
    return dims if isinstance(dims, LocalDims) else LocalDims(tuple(dims))


def _require_three_qubits(dims: "LocalDims") -> None:
    if dims.dims != (2, 2, 2):
        raise ValueError(f"three-qubit state required, got dims {dims.dims}")


def _is_integer(x) -> bool:
    """An int or numpy integer, but not a bool (which is an int to Python)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _as_subsystem(parties: "SubsystemSet | Iterable[int]") -> "SubsystemSet":
    return parties if isinstance(parties, SubsystemSet) else SubsystemSet(tuple(parties))


@dataclass(frozen=True)
class LocalDims:
    """Local dimension of each party, party 1 first."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(self.dims)
        if not all(_is_integer(d) for d in dims):
            raise InvalidStateError(f"every local dimension must be an integer, got {dims!r}")
        dims = tuple(int(d) for d in dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1:
            raise InvalidStateError("dims must list at least one party")
        if any(d < 2 for d in dims):
            raise InvalidStateError(f"every local dimension must be >= 2, got {dims}")
        if math.prod(dims) > MAX_TOTAL_DIM:
            raise InvalidStateError(
                f"total dimension {math.prod(dims)} of dims {dims} exceeds the limit "
                f"MAX_TOTAL_DIM = {MAX_TOTAL_DIM}"
            )

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
        if not all(_is_integer(p) for p in parties):
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
    """Hermitian, unit-trace, positive matrix over a tensor-product space.

    Construction checks the shape, then every density invariant with
    :meth:`validate`; results of trusted operations skip construction.
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
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        self.validate()

    def validate(self) -> "DensityOperator":
        validate_stack(self.mat[None])
        return self

    @classmethod
    def _trusted(cls, dims: LocalDims, mat: np.ndarray) -> "DensityOperator":
        # fast path for freshly allocated results of invariant-preserving
        # operations (outer products, partial traces)
        mat.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "dims", dims)
        object.__setattr__(obj, "mat", mat)
        return obj


def validate_stack(mats: np.ndarray) -> None:
    """Check that every matrix of a ``(B, D, D)`` stack is a density matrix.

    Each matrix must have finite entries, be Hermitian within ``EPS_HERM``,
    have a trace within ``EPS_NORM`` of 1 and a minimum eigenvalue of at
    least ``-EPS_PSD``.  The first failing matrix in stack order raises the
    message of its first failing check.  A stack that passes takes one
    batched ``eigvalsh``.
    """
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the tests below
        skew = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2))
    trace = np.trace(mats, axis1=1, axis2=2)
    ok = (skew <= EPS_HERM) & (np.abs(trace - 1.0) <= EPS_NORM)  # and so does NaN
    # only the matrices before the first structural failure need a spectrum
    first = len(mats) if ok.all() else int(ok.argmin())
    min_eig = np.linalg.eigvalsh(mats[:first])[:, 0]
    positive = min_eig >= -EPS_PSD
    if not positive.all():
        k = int(positive.argmin())
        raise InvalidStateError(
            f"minimum eigenvalue {float(min_eig[k])!r} below -{EPS_PSD}: matrix is not positive"
        )
    if first < len(mats):
        _require_finite(mats[first], "matrix")
        if not skew[first] <= EPS_HERM:
            raise InvalidStateError(f"matrix is not Hermitian within {EPS_HERM}")
        raise InvalidStateError(
            f"trace {complex(trace[first])!r} deviates from 1 by more than {EPS_NORM}"
        )


def density_from_pure(psi: PureState) -> DensityOperator:
    """Rank-1 projector |psi><psi|."""
    return DensityOperator._trusted(psi.dims, np.outer(psi.amps, psi.amps.conj()))


_REDUCTION_PLANS: dict = {}


def _reduction_plan(dims: LocalDims, keep: SubsystemSet):
    """The einsum that keeps ``keep`` at ``dims``: (subscripts, out, kept dims, their total)."""
    key = (dims.dims, keep.parties)
    plan = _REDUCTION_PLANS.get(key)
    if plan is None:
        n = dims.n_parties
        kept = [p - 1 for p in keep.parties]
        kept_set = set(kept)
        subscripts = list(range(n)) + [n + i if i in kept_set else i for i in range(n)]
        out = kept + [n + i for i in kept]
        kept_dims = LocalDims(tuple(dims[i] for i in kept))
        plan = (subscripts, out, kept_dims, kept_dims.total_dim)
        _REDUCTION_PLANS[key] = plan
    return plan


def _reduce(dims: LocalDims, tensor: np.ndarray, keep: SubsystemSet) -> np.ndarray:
    """The C-contiguous reduction to ``keep`` of one matrix, as its ``dims.dims * 2`` tensor."""
    subscripts, out, _, d = _reduction_plan(dims, keep)
    return np.ascontiguousarray(np.einsum(tensor, subscripts, out).reshape(d, d))


def partial_trace(
    rho: DensityOperator, keep: "SubsystemSet | Iterable[int]"
) -> DensityOperator:
    """Trace out every party not in ``keep``; kept parties stay in ascending order."""
    keep = _as_subsystem(keep).check_against(rho.dims)
    dims = rho.dims
    reduced = _reduce(dims, rho.mat.reshape(dims.dims * 2), keep)
    return DensityOperator._trusted(_reduction_plan(dims, keep)[2], reduced)


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


def check_rank(dims: LocalDims, rank: int) -> None:
    """Raise ``ValueError`` unless ``rank`` is a Ginibre rank at ``dims``: an integer in 1..D."""
    if not _is_integer(rank):
        raise ValueError(f"rank must be an integer, got {rank!r}")
    if not 1 <= rank <= dims.total_dim:
        raise ValueError(f"rank must be in 1..{dims.total_dim}, got {rank}")


def sample_ginibre_mixed(
    dims: "LocalDims | Sequence[int]", rank: int, seed: int
) -> DensityOperator:
    """Ginibre-induced mixed state G G^dag / tr(G G^dag) with G of shape (D, rank)."""
    dims = _as_dims(dims)
    d = dims.total_dim
    check_rank(dims, rank)
    rng = np.random.default_rng(seed)
    g = complex_normals(rng, (d, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = (m + m.conj().T) / 2.0  # enforce exact Hermiticity against roundoff
    return DensityOperator._trusted(dims, m)
