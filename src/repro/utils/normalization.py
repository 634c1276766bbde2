"""Online feature normalisation (Welford) used by PPO observation scaling."""

from __future__ import annotations

import numpy as np


class RunningMeanStd:
    """Tracks running mean/variance of batches via the parallel Welford update."""

    def __init__(self, shape: tuple[int, ...] = (), epsilon: float = 1e-4):
        self.mean = np.zeros(shape, dtype=np.float64)
        self.var = np.ones(shape, dtype=np.float64)
        self.count = epsilon

    def update(self, batch: np.ndarray) -> None:
        batch = np.asarray(batch, dtype=np.float64)
        batch = batch.reshape(-1, *self.mean.shape) if self.mean.shape else batch.reshape(-1)
        batch_mean = batch.mean(axis=0)
        batch_var = batch.var(axis=0)
        batch_count = batch.shape[0]
        delta = batch_mean - self.mean
        total = self.count + batch_count
        self.mean = self.mean + delta * batch_count / total
        m_a = self.var * self.count
        m_b = batch_var * batch_count
        m2 = m_a + m_b + delta**2 * self.count * batch_count / total
        self.var = m2 / total
        self.count = total

    def normalize(self, value: np.ndarray, clip: float = 10.0) -> np.ndarray:
        out = (np.asarray(value, dtype=np.float64) - self.mean) / np.sqrt(self.var + 1e-8)
        return np.clip(out, -clip, clip)

    def denormalize(self, value: np.ndarray) -> np.ndarray:
        return np.asarray(value) * np.sqrt(self.var + 1e-8) + self.mean

