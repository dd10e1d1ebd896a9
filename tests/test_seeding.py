"""The vectorized seed hash against numpy's own SeedSequence and default_rng.

``states._seed_words`` re-implements numpy's ``SeedSequence`` hash for a whole
stack of seeds, and ``states._uniform_pairs`` hands its words to numpy's
PCG64.  Every test compares with numpy itself, so a numpy release that
changes either algorithm fails here.
"""

import numpy as np
import pytest

from cohtrade import sample_haar_pure
from cohtrade.states import _HASH_MIN_SEEDS, _seed_words, _uniform_pairs, sample_haar_stack

EDGE_SEEDS = [0, 1, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def uniform_pairs_by_seed(seeds, shape):
    """The per-seed reference: one ``default_rng`` per seed, all of u1, then all of u2."""
    u = np.empty((2, len(seeds)) + shape)
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        u[0, row] = rng.random(shape)
        u[1, row] = rng.random(shape)
    return u


def test_seed_words_are_seed_sequence_state():
    seeds = EDGE_SEEDS + list(range(2, 300)) + [12345, 2**40 + 7, 2**64 - 2]
    words = _seed_words(np.array(seeds, dtype=np.uint64))
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    assert words.flags.c_contiguous  # PCG64 reads each row's four words in place
    for seed, row in zip(seeds, words):
        assert row.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()


@pytest.mark.parametrize("shape", [(8,), (8, 3), (64, 1), (1,)])
def test_stack_straddling_two_to_the_32_draws_as_default_rng(shape):
    seeds = range(2**32 - 5, 2**32 + 5)  # one and two entropy words in one stack
    assert np.array_equal(_uniform_pairs(seeds, shape), uniform_pairs_by_seed(seeds, shape))


def test_haar_stack_straddling_two_to_the_32_equals_single_samples():
    seeds = range(2**32 - 3, 2**32 + 3)
    for row, seed in zip(sample_haar_stack((2, 2, 2), seeds), seeds):
        assert row.tobytes() == sample_haar_pure((2, 2, 2), seed).amps.tobytes()


@pytest.mark.parametrize(
    "seeds",
    [
        pytest.param(range(70, 70 + _HASH_MIN_SEEDS), id="at-cutoff"),
        pytest.param(range(70, 69 + _HASH_MIN_SEEDS), id="below-cutoff"),
        pytest.param(EDGE_SEEDS, id="edge-seeds"),
        pytest.param([5, 2**64, 6, 7, 8], id="fallback-2^64"),
        pytest.param(range(2**64 - 2, 2**64 + 3), id="fallback-straddling-2^64"),
        pytest.param([np.uint64(2**63), np.int64(3), 9, 9], id="numpy-integers"),
        pytest.param((), id="empty"),
    ],
)
def test_uniform_pairs_equal_default_rng_per_seed(seeds):
    for shape in [(8,), (4, 2)]:
        u = _uniform_pairs(seeds, shape)
        assert u.shape == (2, len(seeds)) + shape
        assert np.array_equal(u, uniform_pairs_by_seed(seeds, shape))


@pytest.mark.parametrize(
    "seeds, fallback",
    [
        (range(70, 70 + _HASH_MIN_SEEDS), False),
        (range(70, 69 + _HASH_MIN_SEEDS), True),
        ([5, 2**64, 6, 7, 8], True),
    ],
    ids=["at-cutoff", "below-cutoff", "2^64"],
)
def test_only_short_stacks_and_huge_seeds_build_default_rng(monkeypatch, seeds, fallback):
    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: built.append(seed) or default_rng(seed))
    _uniform_pairs(seeds, (8,))
    assert built == (list(seeds) if fallback else [])
