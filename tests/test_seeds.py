import numpy as np
import pytest

from islandmc.seeds import stream_words

# 2**64 + 5 has three 32-bit words, so with a stage and a particle index
# the key exceeds SeedSequence's 4-word pool and takes its extra-entropy loop.
SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5]
STAGES = [1, 2**32 + 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_words_match_seed_sequence(seed):
    for stage in STAGES:
        for n in (1, 16, 256):
            words = stream_words(seed, stage, n)
            assert words.shape == (n, 4)
            assert words.dtype == np.uint64
            for i in range(n):
                oracle = np.random.SeedSequence((seed, stage, i + 1)).generate_state(4, np.uint64)
                assert np.array_equal(words[i], oracle)


def test_stream_words_long_keys():
    # keys longer than the precomputed hash-constant table
    seed = 2**1100 + 3
    oracle = [np.random.SeedSequence((seed, 7, i + 1)).generate_state(4, np.uint64) for i in range(3)]
    assert np.array_equal(stream_words(seed, 7, 3), np.array(oracle))


@pytest.mark.parametrize("n", [0, 1, 5])
def test_stream_words_batch_equals_per_seed_calls(n):
    # keys of 1, 2 and 3 seed words hash in separate groups; 7 repeats
    seeds = [7, 2**32 + 1, 2**64 + 3, 7]
    words = stream_words(seeds, 2**32 + 3, n)
    assert words.shape == (4 * n, 4)
    assert words.dtype == np.uint64
    assert np.array_equal(words, np.concatenate([stream_words(s, 2**32 + 3, n) for s in seeds]))
    assert np.array_equal(stream_words(np.array([5, 9]), 1, n), stream_words([5, 9], 1, n))


def test_stream_words_validation():
    assert stream_words(3, 1, 0).shape == (0, 4)
    assert stream_words([], 1, 4).shape == (0, 4)
    with pytest.raises(ValueError):
        stream_words([3, -1, 2], 1, 4)
    with pytest.raises(ValueError):
        stream_words(-1, 1, 4)
    with pytest.raises(ValueError):
        stream_words(1, -1, 4)
    with pytest.raises(ValueError):
        stream_words(1, 1, -1)
