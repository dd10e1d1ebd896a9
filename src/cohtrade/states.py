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
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
        validate_rows(amps[None])
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _trusted(cls, dims: LocalDims, amps: np.ndarray) -> "PureState":
        # fast path for rows that are unit vectors by construction (sampled or just normalized)
        amps.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "dims", dims)
        object.__setattr__(obj, "amps", amps)
        return obj


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive matrix over a tensor-product space."""

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
        # fast path for results of invariant-preserving operations (projectors, partial traces)
        mat.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "dims", dims)
        object.__setattr__(obj, "mat", mat)
        return obj


State = Union[PureState, DensityOperator]


def _as_stack(state: State) -> np.ndarray:
    """A state as a one-state stack: amplitude rows ``(1, D)`` or a matrix ``(1, D, D)``."""
    if isinstance(state, PureState):
        return state.amps[None]
    if isinstance(state, DensityOperator):
        return state.mat[None]
    raise TypeError(f"expected PureState or DensityOperator, got {type(state).__name__}")


def check_stack(stack: np.ndarray, *shapes: tuple[int, ...], what: str = "state") -> None:
    """Raise ``InvalidStateError`` unless ``stack`` is ``(B, *s)`` for an s of ``shapes``."""
    if stack.shape[1:] not in shapes:  # shape[1:] of a 0-d or 1-d array is (), never listed
        expected = " or ".join("(" + ", ".join(("B", *map(str, s))) + ")" for s in shapes)
        raise InvalidStateError(f"{what} stack has shape {stack.shape}, expected {expected}")


def validate_rows(rows: np.ndarray) -> None:
    """Check that every row of a ``(B, D)`` amplitude stack has finite entries and unit norm.

    :class:`PureState` and ``suite_stack`` share this check.  The first row whose
    squared norm is off 1 by more than ``EPS_NORM`` raises, on a NaN or inf entry first.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf or overflow gives NaN or inf
        norm_sq = np.vecdot(rows, rows).real
    unit = np.abs(norm_sq - 1.0) <= EPS_NORM  # NaN and inf fail this test
    if not unit.all():
        k = int(unit.argmin())
        _require_finite(rows[k], "amplitude")
        raise InvalidStateError(
            f"squared norm {float(norm_sq[k])!r} deviates from 1 by more than {EPS_NORM}"
        )


def validate_stack(mats: np.ndarray) -> None:
    """Check that every matrix of a ``(B, D, D)`` stack is a density matrix.

    Each matrix must have finite entries, be Hermitian within ``EPS_HERM``,
    have a trace within ``EPS_NORM`` of 1 and a minimum eigenvalue of at
    least ``-EPS_PSD``.  The first failing matrix in stack order raises the
    message of its first failing check.  A stack that passes takes one
    batched Cholesky factorization of ``M + EPS_PSD * I``; only a stack it
    rejects takes a batched ``eigvalsh``, which decides and names the
    minimum eigenvalue.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf fail the tests below
        skew = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2))
        trace = np.trace(mats, axis1=1, axis2=2)
    ok = (skew <= EPS_HERM) & (np.abs(trace - 1.0) <= EPS_NORM)  # and so does NaN
    # only the matrices before the first structural failure need a positivity check
    first = len(mats) if ok.all() else int(ok.argmin())
    head = mats[:first]
    try:
        np.linalg.cholesky(head + EPS_PSD * np.eye(mats.shape[-1]))
    except np.linalg.LinAlgError:
        min_eig = np.linalg.eigvalsh(head)[:, 0]
        positive = min_eig >= -EPS_PSD
        if not positive.all():
            k = int(positive.argmin())
            raise InvalidStateError(
                f"minimum eigenvalue {float(min_eig[k])!r} below -{EPS_PSD}: "
                "matrix is not positive"
            ) from None
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


#: Complex entries that one block of :func:`_reduce` may gather (512 KiB): a
#: batch of keeps holds at most this many entries per state, and a block of
#: states at most this many in all, unless one keep or one state exceeds it.
GATHER_ENTRIES = 1 << 15

#: Gather index entries of the full coherence table at which the reduction
#: plans of those dims stop caching their indices (4 MiB of intp), which
#: keeps them up to seven qubits.  From there on a plan keeps each batch's
#: index as its factored offsets, O(3^n) in all, and builds it per block.
INDEX_ENTRIES = 1 << 19


@lru_cache(maxsize=None)  # on the tuples: hashing the dataclasses would cost every evaluation
def _reduction_plan(dims: tuple[int, ...], keeps: tuple[tuple[int, ...], ...]) -> tuple:
    """How :func:`_reduce` reduces a matrix at ``dims`` to each party tuple of ``keeps``.

    Returns ``(width, batches)``.  Keeps of one kept dimension k and traced
    dimension T share a gather, at most ``GATHER_ENTRIES // (T k^2)`` per
    batch; ``width`` is the most entries a batch gathers per state.  A batch
    is ``(members, k, index)``: its positions in ``keeps``, and the
    ``(T, G k^2)`` flat positions of its G matrices' entries
    ``rho[(i, t), (j, t)]``, row t for traced label t in C order.  ``index``
    is None for the full set, which needs no reduction, and the
    ``(row, column, diagonal)`` offsets whose sum it is when the full
    table's indices at ``dims`` exceed ``INDEX_ENTRIES``.
    """
    n, total = len(dims), math.prod(dims)
    flat = np.arange(total).reshape(dims)
    shapes: dict[tuple[int, int], list] = {}
    for position, keep in enumerate(keeps):
        kept = flat[tuple(slice(None) if p in keep else 0 for p in range(1, n + 1))].ravel()
        traced = flat[tuple(0 if p in keep else slice(None) for p in range(1, n + 1))].ravel()
        shapes.setdefault((len(traced), len(kept)), []).append((position, kept, traced))
    # each proper subset S gathers D d_S entries, and the sum of d_S is prod(d + 1) - 1 - D
    cached = total * (math.prod(d + 1 for d in dims) - 1 - total) <= INDEX_ENTRIES
    width, batches = 1, []
    for (t, k), members in shapes.items():
        size = max(1, GATHER_ENTRIES // (t * k * k))
        for start in range(0, len(members), size):
            positions, kept, traced = zip(*members[start : start + size])
            index = None
            if t > 1:
                width = max(width, t * k * k * len(positions))
                kept = np.stack(kept)
                # rho[(i, t), (j, t)] sits at (kept[i] + traced[t]) * D + kept[j] + traced[t]
                index = (
                    kept[:, :, None] * total,
                    kept[:, None, :],
                    np.stack(traced, axis=1)[:, :, None, None] * (total + 1),
                )
                if cached:
                    index = _gather_index(*index)
            batches.append((np.array(positions), k, index))
    return width, tuple(batches)


def _gather_index(row: np.ndarray, column: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """A batch's ``(T, G k^2)`` gather index from its :func:`_reduction_plan` offsets."""
    return (row + column + diagonal).reshape(len(diagonal), -1)


def _reduce(
    dims: LocalDims, states: np.ndarray, keeps: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[np.ndarray, slice, np.ndarray]]:
    """Reduce each state of a stack to each party tuple of ``keeps``, a block of states at a time.

    ``states`` holds density matrices ``(B, D, D)`` or amplitude rows
    ``(B, D)``, which are reduced from their projectors, each block's formed
    in turn.  Yields ``(members, block, reduced)`` per block of states and
    batch of :func:`_reduction_plan`: ``reduced[:, g]`` is the C-contiguous
    ``(len(block), k, k)`` stack reduced to ``keeps[members[g]]``.  Entry
    ``[i, j]`` is the left fold of ``rho[(i, t), (j, t)]`` over the traced
    labels t in C order, party 1 most significant: one gather and one
    ordered fold per block and batch, so each state reduces as it would
    alone, by the sums and in the order of a loop over its entries.
    """
    width, batches = _reduction_plan(dims.dims, keeps)
    pure, d = states.ndim == 2, dims.total_dim
    step = max(1, GATHER_ENTRIES // (max(width, d * d) if pure else width))
    for start in range(0, len(states), step):
        block = slice(start, start + step)
        mats = states[block]
        if pure:
            mats = mats[:, :, None] * mats.conj()[:, None, :]
        b = len(mats)
        flat = mats.reshape(b, d * d)
        for members, k, index in batches:
            if index is None:  # the full set: nothing to trace
                yield members, block, mats[:, None]
                continue
            if isinstance(index, tuple):
                index = _gather_index(*index)
            reduced = np.empty((b, index.shape[1]), dtype=mats.dtype)
            # out=: C-contiguous rows, whatever layout numpy would give a fresh result
            np.add.reduce(flat.take(index, axis=1), axis=1, out=reduced)
            yield members, block, reduced.reshape(b, len(members), k, k)


def partial_trace(
    rho: DensityOperator, keep: "SubsystemSet | Iterable[int]"
) -> DensityOperator:
    """Trace out every party not in ``keep``; kept parties stay in ascending order."""
    keep = _as_subsystem(keep).check_against(rho.dims)
    ((_, _, reduced),) = _reduce(rho.dims, rho.mat[None], (keep.parties,))
    kept = LocalDims(tuple(rho.dims[p - 1] for p in keep))
    return DensityOperator._trusted(kept, reduced[0, 0])


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard complex Gaussians (Re and Im each N(0,1)) from uniform pairs in [0, 1)."""
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # log(1 - u1), safe at u1 = 0
    return radius * np.exp(2j * np.pi * u2)


#: Stacks of fewer seeds seed each generator with ``np.random.default_rng``:
#: below this, :func:`_seed_words`'s fixed cost (about 30 us) exceeds the
#: 7-9 us per seed that it saves (measured break-even: 4 seeds).
_HASH_MIN_SEEDS = 5


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and the multiplier of ``count`` successive SeedSequence hashes from ``init``."""
    xor, mul = [], []
    for _ in range(count):
        xor.append(init)
        init = init * mult & 0xFFFFFFFF
        mul.append(init)
    return np.array(xor, np.uint32), np.array(mul, np.uint32)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), as arrays:
# a Python-int operand costs a uint32 ufunc call about 3x more.
_POOL_XOR, _POOL_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# cross-mix of pool word s into the other three: one column per pool word, s's own unused
_MIX_STEPS = tuple(
    (s, *(np.insert(c[4 + 3 * s : 7 + 3 * s], s, 0) for c in (_POOL_XOR, _POOL_MUL)))
    for s in range(4)
)
_MIX_LEFT = np.array(0xCA01F9DD, np.uint32)
_MIX_RIGHT = np.array(0x4973F715, np.uint32)
_SHIFT = np.array(16, np.uint32)
_WORD = np.array(32, np.uint64)


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    words = words ^ xor
    words *= mul
    words ^= words >> _SHIFT
    return words


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each ``uint64`` seed s: ``(B, 4)``.

    numpy's hash, computed for the whole stack at once: the pool's four
    32-bit words start as the seed's low and high words and two zeros (its
    entropy, zero-padded to the pool size), are hashed, then cross-mixed
    twelve times; eight hashes of the pool cycled twice are the state,
    read as little-endian 64-bit words.
    """
    pool = np.zeros((len(seeds), 4), np.uint32)
    pool[:, 0] = seeds  # the cast keeps the low 32 bits
    pool[:, 1] = seeds >> _WORD
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MUL[:4])
    for s, xor, mul in _MIX_STEPS:
        mixed = pool * _MIX_LEFT
        mixed -= _hashmix(pool[:, s, None], xor, mul) * _MIX_RIGHT
        mixed ^= mixed >> _SHIFT
        mixed[:, s] = pool[:, s]
        pool = mixed
    state = _hashmix(np.concatenate((pool, pool), axis=1), _STATE_XOR, _STATE_MUL)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """Hands ``np.random.PCG64`` the four seed words :func:`_seed_words` computed."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for (4, np.uint64)
        return self.words


def _uniform_pairs(seeds: Sequence[int], shape: tuple[int, ...]) -> np.ndarray:
    """Uniforms in [0, 1) of shape ``(2, B) + shape``; ``u[:, t]`` comes from ``seeds[t]``.

    Each seed, taken as checked, gets the generator ``np.random.default_rng``
    would give it, which draws all of ``u[0, t]``, then all of ``u[1, t]``;
    :func:`_box_muller` turns the pair into standard complex Gaussians.  A
    stack of at least ``_HASH_MIN_SEEDS`` seeds below 2^64 hashes its seeds
    at once with :func:`_seed_words`; numpy then seeds each PCG64 and draws.
    """
    u = np.empty((2, len(seeds)) + shape)
    rngs = map(np.random.default_rng, seeds)
    if len(seeds) >= _HASH_MIN_SEEDS:
        try:
            words = _seed_words(np.array(seeds, dtype=np.uint64))
        except OverflowError:  # a seed of 2^64 or more has more than two entropy words
            pass
        else:
            rngs = (np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words)
    for row, rng in enumerate(rngs):
        rng.random(out=u[0, row])
        rng.random(out=u[1, row])
    return u


def sample_haar_stack(dims: "LocalDims | Sequence[int]", seeds: Sequence[int]) -> np.ndarray:
    """Haar-uniform amplitude rows: row t is ``sample_haar_pure(dims, seeds[t]).amps``.

    One Box-Muller transform and one normalization serve the whole stack.
    Each row is divided by its own norm, so it is a unit vector to roundoff.
    """
    dims = _as_dims(dims)
    u = _uniform_pairs(seeds, (dims.total_dim,))
    z = _box_muller(u[0], u[1])
    # np.linalg.norm of one row: the real and imaginary parts as two dot products
    z /= np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))[:, None]
    return z


def sample_haar_pure(dims: "LocalDims | Sequence[int]", seed: int) -> PureState:
    """Haar-uniform pure state: normalized i.i.d. complex Gaussian amplitudes."""
    dims = _as_dims(dims)
    return PureState._trusted(dims, sample_haar_stack(dims, (check_seed(seed),))[0])


def check_seed(seed: int) -> int:
    """Return ``seed`` if it is a non-negative integer (not a bool), else raise ``ValueError``."""
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def check_rank(dims: LocalDims, rank: int) -> None:
    """Raise ``ValueError`` unless ``rank`` is a Ginibre rank at ``dims``: an integer in 1..D."""
    if not _is_integer(rank):
        raise ValueError(f"rank must be an integer, got {rank!r}")
    if not 1 <= rank <= dims.total_dim:
        raise ValueError(f"rank must be in 1..{dims.total_dim}, got {rank}")


def check_count(name: str, value: int, minimum: int) -> None:
    """Raise ``ValueError`` unless the count ``name`` is an integer (not a bool) >= ``minimum``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def sample_ginibre_stack(
    dims: "LocalDims | Sequence[int]", rank: int, seeds: Sequence[int]
) -> np.ndarray:
    """Ginibre density matrices: matrix t is ``sample_ginibre_mixed(dims, rank, seeds[t]).mat``.

    The rank and each seed are taken as checked.  One Box-Muller transform,
    one batched ``G G^dag``, one trace division and one hermitization serve
    the whole stack.
    """
    dims = _as_dims(dims)
    u = _uniform_pairs(seeds, (dims.total_dim, rank))
    g = _box_muller(u[0], u[1])
    m = g @ g.conj().swapaxes(1, 2)
    m /= np.trace(m, axis1=1, axis2=2).real[:, None, None]
    return (m + m.conj().swapaxes(1, 2)) / 2.0  # enforce exact Hermiticity against roundoff


def sample_ginibre_mixed(
    dims: "LocalDims | Sequence[int]", rank: int, seed: int
) -> DensityOperator:
    """Ginibre-induced mixed state G G^dag / tr(G G^dag) with G of shape (D, rank)."""
    dims = _as_dims(dims)
    check_rank(dims, rank)
    return DensityOperator._trusted(
        dims, sample_ginibre_stack(dims, rank, (check_seed(seed),))[0]
    )
