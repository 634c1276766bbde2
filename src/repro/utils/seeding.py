"""Deterministic random-number management.

Every stochastic component in the library takes an explicit
``numpy.random.Generator``; this module provides helpers to derive
independent child generators from a root seed so experiments are exactly
reproducible and components do not share RNG state accidentally.
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


def spawn_rngs(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``."""
    if isinstance(seed, np.random.Generator):
        return [make_rng(int(seed.integers(0, 2**31 - 1))) for _ in range(count)]
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]

