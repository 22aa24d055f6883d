"""Random streams: spawn_rng against numpy's own SeedSequence streams."""

import numpy as np
import pytest

from equilab import spawn_rng

SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 10**23]
WORDS = [0, 1, 7, 999, 2**31, 2**32 - 1]


def numpy_key(seed, path):
    return np.random.SeedSequence(seed, spawn_key=tuple(path)).generate_state(2, np.uint64)


def numpy_generator(seed, path):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def paths(depth, rows=24):
    """``rows`` spawn paths of ``depth`` words, each word drawn from WORDS."""
    picks = np.random.default_rng(depth).integers(len(WORDS), size=(rows, depth))
    return np.array(WORDS, dtype=np.int64)[picks].tolist()


def philox_state(rng):
    state = rng.bit_generator.state["state"]
    return state["key"], state["counter"]


class TestStreamKeys:
    """The Philox key of stream (seed, *path) is numpy's SeedSequence key, and
    the stream starts at counter 0."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_equal_to_seed_sequence(self, seed, depth):
        for path in paths(depth):
            key, counter = philox_state(spawn_rng(seed, *path))
            assert key.dtype == np.uint64 and key.shape == (2,)
            assert np.array_equal(key, numpy_key(seed, path))
            assert not counter.any()

    def test_seed_past_the_pool(self):
        # a seed of more than four words mixes its last words after the pool
        seed = 2**200 + 3
        for path in paths(2):
            key, _ = philox_state(spawn_rng(seed, *path))
            assert np.array_equal(key, numpy_key(seed, path))

    @pytest.mark.parametrize("seed", [-1, -2**70])
    def test_negative_seed(self, seed):
        with pytest.raises(ValueError, match="non-negative integer"):
            spawn_rng(seed, 0)

    @pytest.mark.parametrize("seed", [1.0, 2.5, "3", None])
    def test_non_integer_seed(self, seed):
        with pytest.raises(TypeError):
            spawn_rng(seed, 0)

    @pytest.mark.parametrize("paths", [[(-1,)], [(0, -1), (-2, 3)], [(-2**70,)],
                                       [(3, 4, -5)]])
    def test_paths_not_rows_of_words(self, paths):
        # every word of a spawn path is a non-negative integer
        for path in paths:
            with pytest.raises(ValueError, match="non-negative integer"):
                spawn_rng(0, *path)


class TestGenerators:
    @pytest.mark.parametrize("seed, path", [(0, ()), (42, (3,)), (2**64 + 5, (1, 2)),
                                            (10**23, (4, 0, 9))])
    def test_spawn_rng_is_numpys_stream(self, seed, path):
        got = spawn_rng(seed, *path)
        want = numpy_generator(seed, path)
        assert np.array_equal(got.standard_normal(9), want.standard_normal(9))
        assert np.array_equal(got.random(5), want.random(5))

    @pytest.mark.parametrize("seed, error", [(None, TypeError), (2.0, TypeError),
                                             (-1, ValueError)])
    def test_spawn_rng_needs_a_non_negative_integer_seed(self, seed, error):
        # a seed of None would otherwise be fresh entropy, not a stream
        with pytest.raises(error):
            spawn_rng(seed, 0)
