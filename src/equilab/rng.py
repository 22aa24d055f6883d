"""Deterministic random streams.

All Monte Carlo paths draw from a counter-based Philox generator (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) under the key
that ``numpy.random.SeedSequence(seed, spawn_key=path)`` gives it, so a
stream is a pure function of (seed, *path).  Work items (grid points, replications)
get disjoint streams and results are identical however the work is
scheduled.

:func:`spawn_rng` builds one stream's generator from that SeedSequence.
A Philox stream's whole state is its 128-bit key and a counter that starts
at 0, so :func:`stream_keys` derives the keys of many paths at once, for
the FDR simulation's replications: it takes numpy's own pool after the seed
and continues SeedSequence's pool hash over arrays of path words, which
for a block of 1000 paths costs about a hundredth of one SeedSequence a
key.  :func:`rekey` moves one generator to the start of another stream.
"""

import operator

import numpy as np

# numpy's SeedSequence: a pool of four 32-bit words, its hash constants and
# the shift of its hashmix and mix
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = 16
_MASK32 = 0xFFFF_FFFF


# Each step works on uint32 arrays, which wrap as numpy's 32-bit words do.
def _hash(value, before, after):
    """SeedSequence's ``hashmix`` of ``value`` under the multiplier
    ``before``, which the hash advances to ``after``."""
    value = (value ^ before) * after
    return value ^ value >> _SHIFT


def _mix(x, y):
    result = _MIX_L * x - _MIX_R * y
    return result ^ result >> _SHIFT


def _multipliers(const, mult, start, steps):
    """The multiplier before each of ``steps`` hashes from the ``start``-th
    on and after the last, const mult**i (mod 2**32), as a uint32 column."""
    return np.array([const * pow(mult, i, 1 << 32) & _MASK32
                     for i in range(start, start + steps + 1)], dtype=np.uint32)[:, np.newaxis]


def stream_keys(seed: int, paths) -> np.ndarray:
    """The (rows, 2) uint64 Philox keys of the streams ``(seed, *path)``,
    one per row of ``paths``, an integer array of shape (rows, depth) whose
    elements are 32-bit words, in [0, 2**32).

    Row r equals ``SeedSequence(seed, spawn_key=paths[r])
    .generate_state(2, np.uint64)``.  The pool after the seed is the same
    for every row, ``SeedSequence(seed).pool``; numpy's pool hash then
    continues over all rows at once, each column of ``paths`` one step that
    mixes its word into all four pool words.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    paths = np.asarray(paths)
    if paths.ndim != 2 or paths.size and (paths.dtype.kind not in "iu" or paths.min() < 0
                                          or paths.max() > _MASK32):
        raise ValueError("spawn paths must be a (rows, depth) array of integers "
                         "in [0, 2**32)")
    # the seed's words took 4 hashes to fill the pool, 12 to mix it and 4
    # per word past the pool
    words = max(1, -(-seed.bit_length() // 32))
    step = _POOL * (_POOL + max(0, words - _POOL))
    mult = _multipliers(_INIT_A, _MULT_A, step, _POOL * paths.shape[1])
    pool = np.repeat(np.random.SeedSequence(seed).pool[:, np.newaxis], len(paths), axis=1)
    for word in paths.astype(np.uint32).T:
        pool = _mix(pool, _hash(word, mult[:_POOL], mult[1:_POOL + 1]))
        mult = mult[_POOL:]
    # generate_state(2, np.uint64): one output word per pool word, paired
    # little-endian
    mult = _multipliers(_INIT_B, _MULT_B, 0, _POOL)
    out = _hash(pool, mult[:-1], mult[1:]).astype(np.uint64)
    return np.stack((out[0] | out[1] << 32, out[2] | out[3] << 32), axis=-1)


_NO_WORDS = np.zeros(4, dtype=np.uint64)


def rekey(rng: np.random.Generator, key) -> None:
    """Move ``rng`` to the start of the Philox stream ``key``: counter 0
    and an empty buffer, the state ``Philox(key=key)`` starts in, so it
    draws exactly what a fresh generator of that stream draws."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _NO_WORDS, "key": key},
        "buffer": _NO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by ``(seed, *path)``: numpy's own
    key derivation, which :func:`stream_keys` reproduces for many paths."""
    # operator.index: a seed of None would draw fresh entropy from the OS
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(operator.index(seed), spawn_key=path)))
