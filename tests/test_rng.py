"""Random streams: spawn_rng against numpy's own SFC64 streams of SeedSequence."""

import numpy as np
import pytest
from conftest import numpy_stream

from equilab import spawn_rng

SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 10**23]
WORDS = [0, 1, 7, 999, 2**31, 2**32 - 1]


def paths(depth, rows=24):
    """``rows`` spawn paths of ``depth`` words, each word drawn from WORDS."""
    picks = np.random.default_rng(depth).integers(len(WORDS), size=(rows, depth))
    return np.array(WORDS, dtype=np.int64)[picks].tolist()


def state_words(rng):
    """The bit generator's name and its whole state as a tuple of ints."""
    state = rng.bit_generator.state
    return (state["bit_generator"], *map(int, state["state"]["state"]),
            state["has_uint32"], state["uinteger"])


class TestStreamKeys:
    """The whole SFC64 state of stream (seed, *path) is the state numpy's
    SFC64 takes from the same SeedSequence, before any draw."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_equal_to_seed_sequence(self, seed, depth):
        for path in paths(depth):
            got = state_words(spawn_rng(seed, *path))
            assert got[0] == "SFC64" and len(got) == 7
            assert got == state_words(numpy_stream(seed, *path))

    def test_seed_past_the_pool(self):
        # a seed of more than four words mixes its last words after the pool
        seed = 2**200 + 3
        for path in paths(2):
            assert state_words(spawn_rng(seed, *path)) == state_words(numpy_stream(seed, *path))

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
        want = numpy_stream(seed, *path)
        assert np.array_equal(got.standard_normal(9), want.standard_normal(9))
        assert np.array_equal(got.random(5), want.random(5))

    @pytest.mark.parametrize("seed, error", [(None, TypeError), (2.0, TypeError),
                                             (-1, ValueError)])
    def test_spawn_rng_needs_a_non_negative_integer_seed(self, seed, error):
        # a seed of None would otherwise be fresh entropy, not a stream
        with pytest.raises(error):
            spawn_rng(seed, 0)


class TestNeighbourStreams:
    """Streams that one run draws side by side are uncorrelated: grid points
    i and i + 1 (fdr-power), and the null and alternative streams 2r and
    2r + 1 of table row r."""

    DRAWS = 10**6

    @pytest.mark.parametrize("seed, first, second", [
        (0, 0, 1), (1, 18, 19), (2**64 + 5, 7, 8),   # grid points i, i + 1
        (42, 0, 1), (7, 6, 7), (10**23, 2, 3),       # table rows r = 0, 3, 1
    ])
    def test_sample_correlation_near_zero(self, seed, first, second):
        a = spawn_rng(seed, first).standard_normal(self.DRAWS)
        b = spawn_rng(seed, second).standard_normal(self.DRAWS)
        assert abs(np.corrcoef(a, b)[0, 1]) <= 5.0 / np.sqrt(self.DRAWS)
