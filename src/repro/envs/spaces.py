"""Observation / action space descriptions: the bounded continuous :class:`Box`."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class Box:
    """A bounded continuous space of a fixed shape."""

    def __init__(self, low, high, shape: Optional[Tuple[int, ...]] = None):
        low = np.asarray(low, dtype=np.float64)
        high = np.asarray(high, dtype=np.float64)
        if shape is not None:
            low = np.broadcast_to(low, shape).copy()
            high = np.broadcast_to(high, shape).copy()
        if low.shape != high.shape:
            raise ValueError("low and high must have the same shape")
        if np.any(low > high):
            raise ValueError("low must be elementwise <= high")
        self.low = low
        self.high = high
        self.shape = low.shape

    @property
    def dim(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    def contains(self, value) -> bool:
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self.shape:
            return False
        return bool(np.all(value >= self.low) and np.all(value <= self.high))

    def clip(self, value) -> np.ndarray:
        return np.clip(np.asarray(value, dtype=np.float64), self.low, self.high)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high)

    def __repr__(self) -> str:
        return f"Box(low={self.low!r}, high={self.high!r})"
