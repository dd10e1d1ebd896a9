"""The vectorized seed hash against numpy's own SeedSequence and default_rng.

``states._seed_words`` re-implements numpy's ``SeedSequence`` hash for a whole
range of seeds, and ``states._gaussians`` hands its words to numpy's PCG64.
Every test compares with numpy itself, so a numpy release that changes either
algorithm fails here.
"""

import numpy as np
import pytest

from cohtrade import sample_haar_pure
from cohtrade.states import _HASH_MIN_SEEDS, _gaussians, _seed_words
from cohtrade.states import sample_ginibre_stack, sample_haar_stack

from conftest import complex_normals

EDGE_SEEDS = [0, 1, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def gaussians_by_seed(seed, count, shape):
    """The per-seed reference: one ``default_rng(seed + t)`` per row, then Box-Muller."""
    z = np.empty((count,) + shape, dtype=complex)
    for t in range(count):
        z[t] = complex_normals(np.random.default_rng(seed + t), shape)
    return z


def test_seed_words_are_seed_sequence_state():
    seeds = EDGE_SEEDS + list(range(2, 300)) + [12345, 2**40 + 7, 2**64 - 2]
    words = _seed_words(np.array(seeds, dtype=np.uint64))
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    assert words.flags.c_contiguous  # PCG64 reads each row's four words in place
    for seed, row in zip(seeds, words):
        assert row.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()


@pytest.mark.parametrize("shape", [(8,), (8, 3), (64, 1), (1,)])
@pytest.mark.parametrize("edge", [2**31, 2**32, 2**63], ids=["2^31", "2^32", "2^63"])
def test_range_straddling_a_word_edge_draws_as_default_rng(edge, shape):
    # at 2^32 one and two entropy words meet in one range
    assert np.array_equal(_gaussians(edge - 5, 10, shape), gaussians_by_seed(edge - 5, 10, shape))


def test_haar_stack_straddling_two_to_the_32_equals_single_samples():
    stack = sample_haar_stack((2, 2, 2), 2**32 - 3, 6)
    for t, row in enumerate(stack):
        assert row.tobytes() == sample_haar_pure((2, 2, 2), 2**32 - 3 + t).amps.tobytes()


@pytest.mark.parametrize(
    "seed, count",
    [
        pytest.param(70, _HASH_MIN_SEEDS, id="at-cutoff"),
        pytest.param(70, _HASH_MIN_SEEDS - 1, id="below-cutoff"),
        *(pytest.param(s, 1, id=f"edge-seed-{s}") for s in EDGE_SEEDS),
        pytest.param(2**64 - _HASH_MIN_SEEDS, _HASH_MIN_SEEDS, id="ending-at-2^64"),
        pytest.param(2**64 - 2, 5, id="fallback-straddling-2^64"),
        pytest.param(2**64, 5, id="fallback-from-2^64"),
        pytest.param(9, 0, id="empty"),
    ],
)
def test_gaussians_equal_default_rng_per_seed(seed, count):
    for shape in [(8,), (4, 2)]:
        z = _gaussians(seed, count, shape)
        assert z.shape == (count,) + shape
        assert np.array_equal(z, gaussians_by_seed(seed, count, shape))


@pytest.mark.parametrize("seed", [np.uint64(2**63), np.int64(3), np.uint64(2**64 - 2)], ids=repr)
def test_numpy_integer_seeds_sample_as_python_ints(seed):
    # the last range straddles 2^64, where a uint64 seed plus the count would wrap
    haar = sample_haar_stack((2, 2, 2), seed, _HASH_MIN_SEEDS)
    for row, z in zip(haar, gaussians_by_seed(int(seed), _HASH_MIN_SEEDS, (8,))):
        assert np.array_equal(row, z / np.linalg.norm(z))
    assert haar.tobytes() == sample_haar_stack((2, 2, 2), int(seed), _HASH_MIN_SEEDS).tobytes()
    ginibre = sample_ginibre_stack((2, 2, 2), 3, seed, _HASH_MIN_SEEDS).tobytes()
    assert ginibre == sample_ginibre_stack((2, 2, 2), 3, int(seed), _HASH_MIN_SEEDS).tobytes()


@pytest.mark.parametrize(
    "seed, count, fallback",
    [
        (70, _HASH_MIN_SEEDS, False),
        (70, _HASH_MIN_SEEDS - 1, True),
        (2**64 - _HASH_MIN_SEEDS, _HASH_MIN_SEEDS, False),  # seed + count == 2^64
        (2**64 - _HASH_MIN_SEEDS + 1, _HASH_MIN_SEEDS, True),  # seed + count == 2^64 + 1
    ],
    ids=["at-cutoff", "below-cutoff", "ending-at-2^64", "past-2^64"],
)
def test_only_short_ranges_and_huge_seeds_build_default_rng(monkeypatch, seed, count, fallback):
    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: built.append(seed) or default_rng(seed))
    _gaussians(seed, count, (8,))
    assert built == (list(range(seed, seed + count)) if fallback else [])
