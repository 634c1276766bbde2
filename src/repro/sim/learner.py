"""Data-driven user-simulator learning — the H(D', λ) black box.

The paper builds its simulator set Ω' by running a user-simulator learning
algorithm H with different hyper-parameters λ (seeds, learning rates) and
data subsets D' ⊆ D (Sec. IV-C). The original uses DEMER; here H is
maximum-likelihood learning of a neural feedback model

    p(y | s, a) = Π_c N(y_c; μ_c(s, a), σ_c(s, a)) · Π_b Bern(y_b; p_b(s, a))

with Gaussian heads for continuous feedback dimensions (orders, online
hours) and Bernoulli heads for binary ones (program completed). Inputs and
continuous targets are standardised with statistics frozen from the
training subset.

Learned this way, ensemble members genuinely disagree off the behaviour
policy's data manifold — which is exactly the property Ω' needs for the
uncertainty penalty and the intervention analysis (Fig. 10) to be
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .. import nn
from ..utils.seeding import make_rng
from .dataset import TrajectoryDataset


@dataclass
class SimulatorLearnerConfig:
    """Hyper-parameters λ of the simulator learning algorithm H."""

    hidden_sizes: Tuple[int, ...] = (64, 64)
    learning_rate: float = 1e-3
    epochs: int = 60
    batch_size: int = 256
    weight_decay: float = 1e-5
    binary_dims: Tuple[int, ...] = (2,)  # indices of Bernoulli feedback dims
    seed: Optional[int] = None


class UserSimulator(nn.Module):
    """A learned feedback model M_ω: (s, a) → distribution over y."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        feedback_dim: int,
        config: SimulatorLearnerConfig,
    ):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.feedback_dim = feedback_dim
        self.config = config
        self.binary_idx = np.array(sorted(config.binary_dims), dtype=np.int64)
        self.continuous_idx = np.array(
            [i for i in range(feedback_dim) if i not in set(config.binary_dims)],
            dtype=np.int64,
        )
        rng = make_rng(config.seed)
        in_dim = state_dim + action_dim
        n_cont, n_bin = len(self.continuous_idx), len(self.binary_idx)
        out_dim = 2 * n_cont + n_bin  # mean + log_std per continuous, logit per binary
        self.net = nn.MLP([in_dim, *config.hidden_sizes, out_dim], rng, activation="tanh")
        # Input / output standardisation (frozen after fit_normalizer).
        self.input_mean = np.zeros(in_dim)
        self.input_std = np.ones(in_dim)
        self.target_mean = np.zeros(max(n_cont, 1))
        self.target_std = np.ones(max(n_cont, 1))

    # ------------------------------------------------------------------
    def fit_normalizer(self, states: np.ndarray, actions: np.ndarray, feedback: np.ndarray) -> None:
        inputs = np.concatenate([states, actions], axis=1)
        self.input_mean = inputs.mean(axis=0)
        self.input_std = inputs.std(axis=0) + 1e-6
        if len(self.continuous_idx) > 0:
            targets = feedback[:, self.continuous_idx]
            self.target_mean = targets.mean(axis=0)
            self.target_std = targets.std(axis=0) + 1e-6

    def normalizer_state(self) -> dict:
        """Standardisation stats; not Parameters, so persist them beside
        ``state_dict()``."""
        return {
            "input_mean": self.input_mean.copy(),
            "input_std": self.input_std.copy(),
            "target_mean": self.target_mean.copy(),
            "target_std": self.target_std.copy(),
        }

    def load_normalizer_state(self, state: dict) -> None:
        for key, value in self.normalizer_state().items():
            incoming = np.asarray(state[key], dtype=np.float64)
            if incoming.shape != value.shape:
                raise ValueError(f"normalizer shape mismatch for {key}")
            setattr(self, key, incoming.copy())

    def _forward(self, states: np.ndarray, actions: np.ndarray) -> Tuple[nn.Tensor, nn.Tensor, nn.Tensor]:
        inputs = (np.concatenate([states, actions], axis=1) - self.input_mean) / self.input_std
        out = self.net(nn.Tensor(inputs))
        n_cont = len(self.continuous_idx)
        mean = out[:, :n_cont]
        log_std = out[:, n_cont : 2 * n_cont].clip(-5.0, 2.0)
        logits = out[:, 2 * n_cont :]
        return mean, log_std, logits

    # ------------------------------------------------------------------
    def log_likelihood(self, states: np.ndarray, actions: np.ndarray, feedback: np.ndarray) -> nn.Tensor:
        """Mean log p(y | s, a) over the batch (differentiable)."""
        mean, log_std, logits = self._forward(states, actions)
        total = None
        if len(self.continuous_idx) > 0:
            targets = (feedback[:, self.continuous_idx] - self.target_mean) / self.target_std
            gaussian = nn.DiagGaussian(mean, log_std)
            total = gaussian.log_prob(targets)
        if len(self.binary_idx) > 0:
            binary = nn.Bernoulli(logits)
            bin_ll = binary.log_prob(feedback[:, self.binary_idx]).sum(axis=-1)
            total = bin_ll if total is None else total + bin_ll
        return total.mean()

    def predict_mean(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """E[y | s, a] in raw feedback scale (binary dims → probabilities)."""
        with nn.no_grad():
            mean, _, logits = self._forward(states, actions)
        out = np.zeros((states.shape[0], self.feedback_dim))
        if len(self.continuous_idx) > 0:
            out[:, self.continuous_idx] = mean.data * self.target_std + self.target_mean
        if len(self.binary_idx) > 0:
            out[:, self.binary_idx] = 1.0 / (1.0 + np.exp(-logits.data))
        return out

    def sample_from_outputs(
        self,
        mean: np.ndarray,
        log_std: np.ndarray,
        logits: np.ndarray,
        normal_noise: Optional[np.ndarray] = None,
        uniform_draws: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Turn raw network outputs plus noise into a feedback sample.

        Shared by :meth:`sample` and the batched env stepper (which draws
        the noise per city from per-city streams); keeping the
        de-normalisation here guarantees both paths stay numerically
        identical.
        """
        out = np.zeros((mean.shape[0], self.feedback_dim))
        if len(self.continuous_idx) > 0:
            standardised = mean + np.exp(log_std) * normal_noise
            out[:, self.continuous_idx] = standardised * self.target_std + self.target_mean
        if len(self.binary_idx) > 0:
            probs = 1.0 / (1.0 + np.exp(-logits))
            out[:, self.binary_idx] = (uniform_draws < probs).astype(np.float64)
        return out

    def sample(self, states: np.ndarray, actions: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw ŷ ~ p(y | s, a)."""
        with nn.no_grad():
            mean, log_std, logits = self._forward(states, actions)
        noise = rng.standard_normal(mean.shape) if len(self.continuous_idx) > 0 else None
        draws = rng.random(logits.shape) if len(self.binary_idx) > 0 else None
        return self.sample_from_outputs(mean.data, log_std.data, logits.data, noise, draws)


DataLike = Union[TrajectoryDataset, Tuple[np.ndarray, np.ndarray, np.ndarray]]


def _as_pairs(data: DataLike) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    if isinstance(data, TrajectoryDataset):
        return data.transition_pairs()
    states, actions, feedback = data
    return np.asarray(states), np.asarray(actions), np.asarray(feedback)


def train_user_simulator(
    data: DataLike,
    config: Optional[SimulatorLearnerConfig] = None,
    verbose: bool = False,
) -> UserSimulator:
    """Run H(D', λ): fit a :class:`UserSimulator` by maximum likelihood."""
    config = config or SimulatorLearnerConfig()
    states, actions, feedback = _as_pairs(data)
    simulator = UserSimulator(states.shape[1], actions.shape[1], feedback.shape[1], config)
    simulator.fit_normalizer(states, actions, feedback)
    rng = make_rng(None if config.seed is None else config.seed + 1)
    optimizer = nn.Adam(
        simulator.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
    )
    n = states.shape[0]
    batch = min(config.batch_size, n)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_ll = 0.0
        batches = 0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            optimizer.zero_grad()
            ll = simulator.log_likelihood(states[idx], actions[idx], feedback[idx])
            loss = -ll
            loss.backward()
            nn.clip_grad_norm(simulator.parameters(), 10.0)
            optimizer.step()
            epoch_ll += ll.item()
            batches += 1
        if verbose and epoch % 10 == 0:
            print(f"[simulator] epoch {epoch} mean log-likelihood {epoch_ll / batches:.4f}")
    return simulator


def heldout_log_likelihood(simulator: UserSimulator, data: DataLike) -> float:
    """Mean log-likelihood of ``data`` under the simulator (no gradients)."""
    states, actions, feedback = _as_pairs(data)
    with nn.no_grad():
        return simulator.log_likelihood(states, actions, feedback).item()
