"""Deterministic random streams.

Every Monte Carlo path draws from a counter-based Philox generator (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) seeded by
``numpy.random.SeedSequence(seed, spawn_key=path)``, so a stream is a pure
function of (seed, *path).  Each work item (a grid point, a table row) gets
its own streams and draws from them in order.
"""

import operator

import numpy as np


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by ``(seed, *path)``: numpy's own
    key derivation."""
    # operator.index: a seed of None would draw fresh entropy from the OS
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(operator.index(seed), spawn_key=path)))
