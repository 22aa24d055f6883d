"""Deterministic random streams.

All Monte Carlo paths draw from a counter-based Philox generator (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) under the key
that ``numpy.random.SeedSequence(seed, spawn_key=path)`` gives it, so a
stream is a pure function of (seed, *path).  Work items (grid points, replications)
get disjoint streams and results are identical however the work is
scheduled.

A Philox stream's whole state is its 128-bit key and a counter that starts
at 0, so :func:`stream_keys` derives the keys of many paths in one pass of
SeedSequence's pool hash over arrays, and :func:`rekey` moves one generator
to the start of another stream; :func:`spawn_rng` is one key of each.
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


# Each step works on Python ints and on uint32 arrays alike: the arrays wrap
# and the ints are masked to the same 32 bits.
def _hash(value, before, after):
    """SeedSequence's ``hashmix`` of ``value`` under the multiplier
    ``before``, which the hash advances to ``after``."""
    value = (value ^ before) * after & _MASK32
    return value ^ value >> _SHIFT


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> _SHIFT


def _multipliers(const, mult, steps):
    """The multiplier before each of ``steps`` hashes and after the last:
    const, const mult, const mult**2, ... (mod 2**32)."""
    out = [const]
    for _ in range(steps):
        out.append(out[-1] * mult & _MASK32)
    return out


def stream_keys(seed: int, paths) -> np.ndarray:
    """The (rows, 2) uint64 Philox keys of the streams ``(seed, *path)``,
    one per row of ``paths``, an integer array of shape (rows, depth) whose
    elements are 32-bit words, in [0, 2**32).

    Row r equals ``SeedSequence(seed, spawn_key=paths[r])
    .generate_state(2, np.uint64)``: numpy's pool hash, with each entropy
    word past the pool mixed into all four pool words at once.  The pool
    after the seed is the same for every row; each column of ``paths`` is
    then one step over all rows.
    """
    seed = operator.index(seed)
    if seed < 0:
        # checked first: splitting a negative int into words never ends
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    paths = np.asarray(paths)
    if paths.ndim != 2 or paths.size and (paths.dtype.kind not in "iu" or paths.min() < 0
                                          or paths.max() > _MASK32):
        raise ValueError("spawn paths must be a (rows, depth) array of integers "
                         "in [0, 2**32)")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    # zeros up to the pool size, as SeedSequence pads a seed that a spawn
    # key follows; without one they change nothing (a missing word hashes as 0)
    words += [0] * (_POOL - len(words))
    # then the seed's words past the pool and the path's words, in order
    columns = [*words[_POOL:], *paths.astype(np.uint32).T]
    mult = _multipliers(_INIT_A, _MULT_A, _POOL * (_POOL + len(columns)))
    pool = [_hash(word, mult[i], mult[i + 1]) for i, word in enumerate(words[:_POOL])]
    step = _POOL
    # every pool word reaches every other
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], mult[step], mult[step + 1]))
                step += 1
    pool = np.repeat(np.array(pool, dtype=np.uint32)[:, np.newaxis], len(paths), axis=1)
    mult = np.array(mult, dtype=np.uint32)[:, np.newaxis]
    for word in columns:
        pool = _mix(pool, _hash(word, mult[step:step + _POOL], mult[step + 1:step + _POOL + 1]))
        step += _POOL
    # generate_state(2, np.uint64): one output word per pool word, paired
    # little-endian
    mult = np.array(_multipliers(_INIT_B, _MULT_B, _POOL), dtype=np.uint32)[:, np.newaxis]
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
    """Generator for the stream identified by ``(seed, *path)``."""
    return np.random.Generator(np.random.Philox(key=stream_keys(seed, [path])[0]))
