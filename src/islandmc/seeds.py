"""Seed derivation and validation shared by every sampler.

Derived seeds hash-split a key tuple with
``numpy.random.SeedSequence``, whose entropy mixing is documented and
stable, so the same key always yields the same seed.
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
