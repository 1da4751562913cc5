"""Seeds, random streams and seed validation shared by every sampler.

Derived seeds and streams hash-split a key tuple with
``numpy.random.SeedSequence``, so the same key always yields the same
seed or stream.  :func:`stream` builds every sampler's generators: the
stage loop keys an island's base stream ``(seed, 0, 0)`` and its stage
stream ``(seed, stage, 1)``; :func:`kernels.mutate` draws from the
generators it is given, and parallel chains sweep through it with
their own ``stream(seed)``, which is ``default_rng(seed)``.
"""

from __future__ import annotations

import numpy as np

from .kernels import check_int


def derive_seed(*key) -> int:
    """Non-negative 64-bit seed derived from the integers in ``key``."""
    ss = np.random.SeedSequence(tuple(int(k) for k in key))
    return int(ss.generate_state(2, np.uint64)[0])


def stream(*key) -> np.random.Generator:
    """The generator keyed by the integers in ``key``; ``stream(seed)`` equals ``default_rng(seed)``."""
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


def check_seed(seed) -> int:
    """``seed`` as an int; raises ``ValueError`` unless it is a non-negative Python or numpy integer."""
    return check_int(seed, "seed", 0, "a non-negative integer")
