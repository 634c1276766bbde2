"""Rollout storage for sequence-based (multi-user) PPO.

A :class:`RolloutSegment` holds one truncated rollout of a whole user group
in a single environment — the unit produced by Alg. 1, line 6 and consumed
(after the reward/done post-processing of lines 8–9) by the PPO update.
All arrays are time-major: ``[T, N, ...]`` for N users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from .gae import compute_gae, valid_step_mask


@dataclass
class RolloutSegment:
    """One group's rollout in one sampled simulator."""

    states: np.ndarray        # [T, N, ds]  (state at which the action was taken)
    prev_actions: np.ndarray  # [T, N, da]  (a_{t-1}; zeros at the first step)
    actions: np.ndarray       # [T, N, da]
    rewards: np.ndarray       # [T, N]
    dones: np.ndarray         # [T, N]
    values: np.ndarray        # [T, N]
    log_probs: np.ndarray     # [T, N]
    last_values: np.ndarray   # [N]
    group_id: Any = None
    extras: Dict[str, np.ndarray] = field(default_factory=dict)
    advantages: Optional[np.ndarray] = None
    returns: Optional[np.ndarray] = None
    valid_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        t, n = self.rewards.shape
        if self.states.shape[:2] != (t, n):
            raise ValueError("states shape inconsistent with rewards")
        if self.actions.shape[:2] != (t, n):
            raise ValueError("actions shape inconsistent with rewards")
        if self.prev_actions.shape != self.actions.shape:
            raise ValueError("prev_actions must match actions shape")
        for name in ("dones", "values", "log_probs"):
            if getattr(self, name).shape != (t, n):
                raise ValueError(f"{name} must have shape [T, N]")
        if self.last_values.shape != (n,):
            raise ValueError("last_values must have shape [N]")

    @property
    def horizon(self) -> int:
        return self.rewards.shape[0]

    @property
    def num_users(self) -> int:
        return self.rewards.shape[1]

    def finalize(self, gamma: float, lam: float, bootstrap_last: bool = False) -> None:
        """Compute GAE advantages/returns and the validity mask.

        Call *after* any reward/done post-processing (uncertainty penalty,
        F_trend / F_exec) so the advantages see the final reward signal.
        """
        self.advantages, self.returns = compute_gae(
            self.rewards,
            self.values,
            self.dones,
            self.last_values,
            gamma=gamma,
            lam=lam,
            bootstrap_last=bootstrap_last,
        )
        self.valid_mask = valid_step_mask(self.dones)

    def normalized_advantages(self) -> np.ndarray:
        """Advantages standardised over valid steps (PPO stabiliser)."""
        if self.advantages is None or self.valid_mask is None:
            raise RuntimeError("call finalize() before normalized_advantages()")
        mask = self.valid_mask
        total = mask.sum()
        mean = (self.advantages * mask).sum() / max(total, 1.0)
        centered = (self.advantages - mean) * mask
        std = np.sqrt((centered**2).sum() / max(total, 1.0))
        return centered / (std + 1e-8)

    def mean_episode_reward(self) -> float:
        """Average per-user sum of rewards over valid steps."""
        mask = self.valid_mask if self.valid_mask is not None else np.ones_like(self.rewards)
        return float((self.rewards * mask).sum(axis=0).mean())


class RolloutBuffer:
    """A list of segments collected during one training iteration."""

    def __init__(self):
        self.segments: List[RolloutSegment] = []

    def add(self, segment: RolloutSegment) -> None:
        self.segments.append(segment)

    def clear(self) -> None:
        self.segments = []

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    def finalize(self, gamma: float, lam: float, bootstrap_last: bool = False) -> None:
        for segment in self.segments:
            segment.finalize(gamma, lam, bootstrap_last=bootstrap_last)

    def mean_reward(self) -> float:
        if not self.segments:
            raise RuntimeError("buffer is empty")
        return float(np.mean([s.mean_episode_reward() for s in self.segments]))
