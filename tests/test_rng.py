"""Random streams: the vectorized keys against numpy's SeedSequence, and a
re-keyed generator against a fresh one."""

import numpy as np
import pytest

from equilab import spawn_rng
from equilab.rng import rekey, stream_keys

SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 10**23]
WORDS = [0, 1, 7, 999, 2**31, 2**32 - 1]


def numpy_key(seed, path):
    return np.random.SeedSequence(seed, spawn_key=tuple(path)).generate_state(2, np.uint64)


def numpy_generator(seed, path):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def paths(depth, rows=24):
    """``rows`` spawn paths of ``depth`` words, each word drawn from WORDS."""
    picks = np.random.default_rng(depth).integers(len(WORDS), size=(rows, depth))
    return np.array(WORDS, dtype=np.int64)[picks]


class TestStreamKeys:
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_equal_to_seed_sequence(self, seed, depth):
        rows = paths(depth)
        expected = np.array([numpy_key(seed, path) for path in rows])
        got = stream_keys(seed, rows)
        assert got.dtype == np.uint64 and got.shape == (len(rows), 2)
        assert np.array_equal(got, expected)

    def test_seed_past_the_pool(self):
        # a seed of more than four words mixes its last words after the pool
        seed = 2**200 + 3
        rows = paths(2)
        assert np.array_equal(stream_keys(seed, rows),
                              [numpy_key(seed, path) for path in rows])

    @pytest.mark.parametrize("seed", [-1, -2**70])
    def test_negative_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            stream_keys(seed, [(0,)])

    @pytest.mark.parametrize("seed", [1.0, 2.5, "3", None])
    def test_non_integer_seed(self, seed):
        with pytest.raises(TypeError):
            stream_keys(seed, [(0,)])

    @pytest.mark.parametrize("paths", [[(-1,)], [(2**32,)], [(0.5,)], [3, 4]])
    def test_paths_not_rows_of_words(self, paths):
        with pytest.raises(ValueError, match="spawn paths"):
            stream_keys(0, paths)


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

    @pytest.mark.parametrize("leftover", ["none", "uint32", "buffer"])
    def test_rekeyed_draws_equal_a_fresh_generator(self, leftover):
        rng = spawn_rng(9, 0)
        # leave the previous stream mid-way: a half-used 64-bit word (uint32
        # draws) or a partly consumed Philox output block
        if leftover == "uint32":
            rng.integers(0, 2**32, size=3, dtype=np.uint32)
        elif leftover == "buffer":
            rng.random(5)
        keys = stream_keys(7, [(1, rep) for rep in range(3)])
        for rep, key in enumerate(keys):
            rekey(rng, key)
            want = numpy_generator(7, (1, rep))
            assert np.array_equal(rng.integers(0, 2**32, size=3, dtype=np.uint32),
                                  want.integers(0, 2**32, size=3, dtype=np.uint32))
            assert np.array_equal(rng.standard_normal(7), want.standard_normal(7))
            assert np.array_equal(rng.random(6), want.random(6))
