"""Shared scaffolding for the supervised recommenders (WideDeep, DeepFM).

Both baselines learn to predict the *immediate* outcome r of showing a
program a in state s from the logged data, then recommend by scoring a
candidate-action grid and picking the argmax — memorisation/generalisation
recommenders with no long-term planning, as in the paper's comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..sim.dataset import TrajectoryDataset
from ..utils.seeding import make_rng


@dataclass
class SupervisedConfig:
    """Training hyper-parameters shared by the supervised baselines."""

    hidden_sizes: Tuple[int, ...] = (64, 64)
    embedding_dim: int = 8          # DeepFM field-embedding width
    learning_rate: float = 1e-3
    epochs: int = 40
    batch_size: int = 256
    weight_decay: float = 1e-5
    grid_points_per_dim: int = 7    # candidate-action grid resolution
    seed: Optional[int] = None


class SupervisedRecommender(nn.Module):
    """Base class: an outcome model f(s, a) → r̂ plus grid-argmax acting."""

    def __init__(self, state_dim: int, action_dim: int, config: SupervisedConfig):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.config = config
        self.input_mean = np.zeros(state_dim + action_dim)
        self.input_std = np.ones(state_dim + action_dim)
        self.target_mean = 0.0
        self.target_std = 1.0
        self._action_grid = self._build_grid(np.zeros(action_dim), np.ones(action_dim))

    def _build_grid(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        axes = [
            np.linspace(low[d], high[d], self.config.grid_points_per_dim)
            for d in range(self.action_dim)
        ]
        return np.array(list(product(*axes)))

    # ------------------------------------------------------------------
    def forward_score(self, inputs: nn.Tensor) -> nn.Tensor:  # pragma: no cover
        """Normalised score head; subclasses implement the architecture."""
        raise NotImplementedError

    def _normalise(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        raw = np.concatenate([states, actions], axis=1)
        return (raw - self.input_mean) / self.input_std

    def predict(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """r̂(s, a) in raw reward scale."""
        with nn.no_grad():
            scores = self.forward_score(nn.Tensor(self._normalise(states, actions)))
        return scores.data[:, 0] * self.target_std + self.target_mean

    # ------------------------------------------------------------------
    def fit(self, dataset: TrajectoryDataset, verbose: bool = False) -> list[float]:
        """Regress logged immediate rewards r on (s, a) with MSE."""
        states, actions, _ = dataset.transition_pairs()
        rewards = np.concatenate(
            [g.rewards.reshape(-1) for g in dataset.groups], axis=0
        )
        # Candidate actions are restricted to the logged range: the
        # recommender chooses among programs that historically exist, and
        # the outcome model is only trusted on-support.
        self._action_grid = self._build_grid(actions.min(axis=0), actions.max(axis=0))
        inputs_raw = np.concatenate([states, actions], axis=1)
        self.input_mean = inputs_raw.mean(axis=0)
        self.input_std = inputs_raw.std(axis=0) + 1e-6
        self.target_mean = float(rewards.mean())
        self.target_std = float(rewards.std() + 1e-6)
        targets = ((rewards - self.target_mean) / self.target_std)[:, None]
        inputs = (inputs_raw - self.input_mean) / self.input_std

        rng = make_rng(self.config.seed)
        optimizer = nn.Adam(
            self.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        n = inputs.shape[0]
        batch = min(self.config.batch_size, n)
        losses = []
        for epoch in range(self.config.epochs):
            order = rng.permutation(n)
            epoch_loss, batches = 0.0, 0
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                optimizer.zero_grad()
                loss = nn.mse_loss(self.forward_score(nn.Tensor(inputs[idx])), nn.Tensor(targets[idx]))
                loss.backward()
                nn.clip_grad_norm(self.parameters(), 10.0)
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            losses.append(epoch_loss / batches)
            if verbose and epoch % 10 == 0:
                print(f"[{type(self).__name__}] epoch {epoch} loss {losses[-1]:.4f}")
        return losses

    # ------------------------------------------------------------------
    def recommend(self, states: np.ndarray) -> np.ndarray:
        """Greedy action per user: argmax over the candidate grid."""
        n = states.shape[0]
        g = self._action_grid.shape[0]
        tiled_states = np.repeat(states, g, axis=0)
        tiled_actions = np.tile(self._action_grid, (n, 1))
        scores = self.predict(tiled_states, tiled_actions).reshape(n, g)
        return self._action_grid[np.argmax(scores, axis=1)]

    def as_act_fn(self):
        """Adapt to the ``act_fn(states, t)`` protocol of :func:`repro.rl.evaluate`."""
        model = self

        class _ActFn:
            def reset(self, num_users: int) -> None:
                pass

            def __call__(self, states: np.ndarray, t: int) -> np.ndarray:
                return model.recommend(states)

        return _ActFn()
