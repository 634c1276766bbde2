"""Deterministic random-number management.

Every stochastic component in the library takes an explicit
``numpy.random.Generator``; :func:`make_rng` builds one from whatever
seed a caller holds, so experiments are exactly reproducible.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Build a Generator from a seed, SeedSequence or pass through a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)
