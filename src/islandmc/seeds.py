"""Seed derivation and validation shared by every sampler.

Derived seeds hash-split a key tuple with
``numpy.random.SeedSequence``, whose entropy mixing is documented and
stable, so the same key always yields the same seed.  Per-particle noise
streams are keyed the same way; ``stream_words`` derives all of one
stage's stream seeds in one batch with numpy's values.
"""

from __future__ import annotations

import numpy as np


def derive_seed(*key) -> int:
    """Non-negative 64-bit seed derived from the integers in ``key``."""
    ss = np.random.SeedSequence(tuple(int(k) for k in key))
    return int(ss.generate_state(2, np.uint64)[0])


def check_seed(seed) -> int:
    """Return ``seed`` as an int, rejecting negative values."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return seed


# numpy.random.SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _hash_consts(init, mult, count):
    """``init * mult**k mod 2**32`` for ``k < count``, as uint32."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


# Entropy mixing makes 16 hashmix calls for up to 4 entropy words and 4
# more per extra word; this table covers keys of up to 32 words.
_CONSTS_A = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * 28 + 1)
# generate_state(4, uint64) hashes 8 uint32 words.
_CONSTS_B = _hash_consts(_INIT_B, _MULT_B, 9)
_MIX_TARGETS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]


def _hashmix(value, consts):
    """SeedSequence's hashmix of ``value`` under each of ``len(consts) - 1`` calls.

    Call ``k`` xors with ``consts[k]`` and multiplies by ``consts[k + 1]``;
    ``value`` broadcasts against the ``(len(consts) - 1, 1)`` call axis.
    """
    value = (value ^ consts[:-1, None]) * consts[1:, None]
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _words32(value):
    """Little-endian 32-bit words of a non-negative int; ``0`` is ``[0]``."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def stream_words(seed, stage, n) -> np.ndarray:
    """PCG64 seed words of the ``n`` noise streams keyed ``(seed, stage, i + 1)``.

    Row ``i`` of the ``(n, 4)`` uint64 result equals
    ``SeedSequence((seed, stage, i + 1)).generate_state(4, np.uint64)``.
    It is computed with SeedSequence's documented hash, run as uint32
    array operations over all ``n`` keys at once.
    """
    seed, stage, n = int(seed), int(stage), int(n)
    if seed < 0 or stage < 0:
        raise ValueError("seed and stage must be non-negative integers")
    if not 0 <= n <= _MASK32:
        raise ValueError(f"stream count must lie in [0, 2**32), got {n}")
    prefix = _words32(seed) + _words32(stage)
    n_entropy = len(prefix) + 1
    entropy = np.zeros((max(n_entropy, _POOL_SIZE), n), dtype=np.uint32)
    entropy[: len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[len(prefix)] = np.arange(1, n + 1, dtype=np.uint32)
    n_calls = 16 + 4 * max(n_entropy - _POOL_SIZE, 0)
    consts = _CONSTS_A if n_calls < len(_CONSTS_A) else _hash_consts(_INIT_A, _MULT_A, n_calls + 1)

    pool = _hashmix(entropy[:_POOL_SIZE], consts[: _POOL_SIZE + 1])
    k = _POOL_SIZE
    for src, dst in enumerate(_MIX_TARGETS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k : k + 4]))
        k += 3
    for word in entropy[_POOL_SIZE:n_entropy]:
        pool = _mix(pool, _hashmix(word, consts[k : k + 5]))
        k += 4

    # generate_state(4, uint64) cycles the pool into 8 uint32 words and
    # pairs them little-endian.
    state = _hashmix(np.concatenate([pool, pool]), _CONSTS_B)
    words = (state[1::2].astype(np.uint64) << np.uint64(32)) | state[0::2]
    return np.ascontiguousarray(words.T)
