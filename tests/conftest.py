"""Shared test helpers."""

import numpy as np


def numpy_stream(seed, *path):
    """The reference stream ``(seed, *path)``, built from numpy alone:
    SFC64 over ``SeedSequence(seed, spawn_key=path)``."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=path)))
