"""Logged trajectory datasets.

The logged dataset D (Sec. III-B) stores, per group g, the real interaction
trajectories τʳ collected under a behaviour policy πₑ. It is consumed by

- the user-simulator learner H(D', λ) — as flat (s, a) → y pairs,
- SADAE — as per-(group, timestep) state-action sets X_t^g,
- the simulated transition process P_{M,τʳ} — as a source of exogenous
  state features and, through ``SimulatedDPREnv.exec_low/exec_high``, of
  the per-user historical action bounds the F_exec filter checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..utils.seeding import make_rng


@dataclass
class GroupTrajectories:
    """All logged episodes of one group.

    Shapes: ``states [E, T+1, N, ds]``, ``actions [E, T, N, da]``,
    ``feedback [E, T, N, dy]``, ``rewards [E, T, N]`` for E episodes of T
    steps over N users.
    """

    group_id: int
    states: np.ndarray
    actions: np.ndarray
    feedback: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        e, t1, n, _ = self.states.shape
        if self.actions.shape[:3] != (e, t1 - 1, n):
            raise ValueError("actions shape inconsistent with states")
        if self.feedback.shape[:3] != (e, t1 - 1, n):
            raise ValueError("feedback shape inconsistent with states")
        if self.rewards.shape != (e, t1 - 1, n):
            raise ValueError("rewards shape inconsistent with states")

    @property
    def num_episodes(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.actions.shape[1]

    @property
    def num_users(self) -> int:
        return self.states.shape[2]

    @property
    def state_dim(self) -> int:
        return self.states.shape[3]

    @property
    def action_dim(self) -> int:
        return self.actions.shape[3]

    @property
    def feedback_dim(self) -> int:
        return self.feedback.shape[3]

    def select_users(self, indices: np.ndarray) -> "GroupTrajectories":
        """A view restricted to a subset of users."""
        return GroupTrajectories(
            group_id=self.group_id,
            states=self.states[:, :, indices],
            actions=self.actions[:, :, indices],
            feedback=self.feedback[:, :, indices],
            rewards=self.rewards[:, :, indices],
        )

    def state_action_set(self, episode: int, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """X_t^g = (S_t, A_{t-1}): states at t paired with previous actions.

        For t = 0 the previous action is defined as zero (no recommendation
        has been made yet), matching the rollout convention.
        """
        states_t = self.states[episode, t]
        if t == 0:
            prev_actions = np.zeros((self.num_users, self.action_dim))
        else:
            prev_actions = self.actions[episode, t - 1]
        return states_t, prev_actions

    def transition_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten to supervised (s, a, y) arrays for simulator learning."""
        e, t, n = self.rewards.shape
        s = self.states[:, :-1].reshape(e * t * n, self.state_dim)
        a = self.actions.reshape(e * t * n, self.action_dim)
        y = self.feedback.reshape(e * t * n, self.feedback_dim)
        return s, a, y


class TrajectoryDataset:
    """A collection of :class:`GroupTrajectories`, one per group."""

    def __init__(self, groups: Sequence[GroupTrajectories]):
        if not groups:
            raise ValueError("dataset needs at least one group")
        dims = {(g.state_dim, g.action_dim, g.feedback_dim) for g in groups}
        if len(dims) != 1:
            raise ValueError("all groups must share state/action/feedback dims")
        self.groups: List[GroupTrajectories] = list(groups)
        self.state_dim, self.action_dim, self.feedback_dim = dims.pop()

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self) -> Iterator[GroupTrajectories]:
        return iter(self.groups)

    def group(self, group_id: int) -> GroupTrajectories:
        for g in self.groups:
            if g.group_id == group_id:
                return g
        raise KeyError(f"no group with id {group_id}")

    @property
    def group_ids(self) -> List[int]:
        return [g.group_id for g in self.groups]

    @property
    def num_transitions(self) -> int:
        return sum(g.rewards.size for g in self.groups)

    # ------------------------------------------------------------------
    # supervised views
    # ------------------------------------------------------------------
    def transition_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All (s, a, y) pairs concatenated across groups."""
        parts = [g.transition_pairs() for g in self.groups]
        s = np.concatenate([p[0] for p in parts], axis=0)
        a = np.concatenate([p[1] for p in parts], axis=0)
        y = np.concatenate([p[2] for p in parts], axis=0)
        return s, a, y

    def state_action_sets(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Every X_t^g across groups, episodes and timesteps (for SADAE)."""
        sets = []
        for g in self.groups:
            for episode in range(g.num_episodes):
                for t in range(g.horizon + 1):
                    sets.append(g.state_action_set(episode, t))
        return sets

    # ------------------------------------------------------------------
    # splits and subsets
    # ------------------------------------------------------------------
    def split_users(
        self, train_fraction: float, seed: Optional[int] = None
    ) -> Tuple["TrajectoryDataset", "TrajectoryDataset"]:
        """Split each group's users into train/test partitions."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = make_rng(seed)
        train_groups, test_groups = [], []
        for g in self.groups:
            permutation = rng.permutation(g.num_users)
            cut = max(1, int(round(train_fraction * g.num_users)))
            cut = min(cut, g.num_users - 1)
            train_groups.append(g.select_users(np.sort(permutation[:cut])))
            test_groups.append(g.select_users(np.sort(permutation[cut:])))
        return TrajectoryDataset(train_groups), TrajectoryDataset(test_groups)

    def subsample_users(self, fraction: float, seed: Optional[int] = None) -> "TrajectoryDataset":
        """A random user subset D' ⊆ D (for ensemble diversity in Ω')."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rng = make_rng(seed)
        subsets = []
        for g in self.groups:
            count = max(1, int(round(fraction * g.num_users)))
            indices = np.sort(rng.choice(g.num_users, size=count, replace=False))
            subsets.append(g.select_users(indices))
        return TrajectoryDataset(subsets)

    def select_groups(self, group_ids: Sequence[int]) -> "TrajectoryDataset":
        return TrajectoryDataset([self.group(gid) for gid in group_ids])
