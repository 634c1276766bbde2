"""Shared utilities: seeding, normalisation, logging."""

from .logging import MetricLogger
from .normalization import RunningMeanStd
from .seeding import make_rng, spawn_rngs

__all__ = [
    "MetricLogger",
    "RunningMeanStd",
    "make_rng",
    "spawn_rngs",
]
