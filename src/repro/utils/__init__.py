"""Shared utilities: seeding and metric logging."""

from .logging import MetricLogger
from .seeding import make_rng

__all__ = [
    "MetricLogger",
    "make_rng",
]
