"""The simulator set Ω' and ensemble uncertainty U(s, a).

Sec. IV-C: Ω' := {ω : H(D', λ), λ ∈ Λ, D' ⊆ D} — a population of learned
user simulators differing in random seed and training-data subset. The
ensemble provides

- a sampling strategy p(Ω) over members (Alg. 1, line 4),
- the model-uncertainty penalty
  ``U(s, a) = E_j[‖μ_j(s, a) − μ̄(s, a)‖₂]`` measuring prediction
  disagreement at (s, a) (Sec. V-C2),
- train / hold-out splits for the offline experiments (12 train + 3 test
  simulators, Sec. V-C3).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dataset import TrajectoryDataset
from .learner import SimulatorLearnerConfig, UserSimulator, train_user_simulator


def _member_mean(values: np.ndarray) -> np.ndarray:
    """``values.mean(axis=0)`` with the member axis summed in member order.

    numpy sums a reduction axis pairwise when it is the contiguous one,
    which for a single-row batch it is, from 8 members on; summing in
    order keeps every row's bits independent of the batch length. For
    two or more rows this is the sum numpy itself computes.
    """
    total = values[0].copy()
    for member in values[1:]:
        total += member
    return total / len(values)


class SimulatorEnsemble:
    """A set of user simulators sharing input/output conventions."""

    def __init__(self, members: Sequence[UserSimulator]):
        if not members:
            raise ValueError("ensemble needs at least one member")
        dims = {(m.state_dim, m.action_dim, m.feedback_dim) for m in members}
        if len(dims) != 1:
            raise ValueError("ensemble members must share dimensions")
        self.members: List[UserSimulator] = list(members)

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, index: int) -> UserSimulator:
        return self.members[index]

    def sample_member(self, rng: np.random.Generator) -> UserSimulator:
        """Uniform p(Ω) sampling strategy over the simulator set."""
        return self.members[int(rng.integers(0, len(self.members)))]

    def predict_means(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Stacked member predictions, shape ``[K, N, dy]``."""
        return np.stack([m.predict_mean(states, actions) for m in self.members])

    def uncertainty(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """U(s, a) = E_j ‖μ_j(s, a) − μ̄(s, a)‖₂ over continuous feedback dims.

        Row-stable: a row's U does not depend on the other rows scored
        with it (see :func:`_member_mean`).
        """
        predictions = self.predict_means(states, actions)
        cont = self.members[0].continuous_idx
        if len(cont) > 0:
            predictions = predictions[:, :, cont]
        consensus = _member_mean(predictions)
        deviations = np.linalg.norm(predictions - consensus, axis=-1)
        return _member_mean(deviations)

    def split(self, holdout: Sequence[int]) -> Tuple["SimulatorEnsemble", "SimulatorEnsemble"]:
        """Partition into (train, holdout) sub-ensembles by member index."""
        holdout_set = set(holdout)
        if not holdout_set or any(i < 0 or i >= len(self.members) for i in holdout_set):
            raise ValueError("holdout indices out of range")
        train = [m for i, m in enumerate(self.members) if i not in holdout_set]
        held = [m for i, m in enumerate(self.members) if i in holdout_set]
        if not train:
            raise ValueError("holdout cannot cover the whole ensemble")
        return SimulatorEnsemble(train), SimulatorEnsemble(held)


def build_simulator_set(
    dataset: TrajectoryDataset,
    num_members: int = 15,
    base_config: Optional[SimulatorLearnerConfig] = None,
    data_fraction: float = 0.8,
    seed: int = 0,
    verbose: bool = False,
) -> SimulatorEnsemble:
    """Construct Ω' by varying seeds and user subsets across members.

    Mirrors the paper's recipe: "15 simulators based on DEMER with
    different random seeds and different data sources of cities".
    Members alternate between training on all groups and on group subsets
    so the ensemble covers both global and per-city idiosyncrasies.
    """
    base_config = base_config or SimulatorLearnerConfig()
    members = []
    group_ids = dataset.group_ids
    for index in range(num_members):
        member_seed = seed + 97 * index
        member_config = replace(base_config, seed=member_seed)
        if index % 3 == 0 or len(group_ids) <= 1:
            subset = dataset.subsample_users(data_fraction, seed=member_seed)
        else:
            # Drop one group to vary the data source across members.
            dropped = group_ids[index % len(group_ids)]
            kept = [gid for gid in group_ids if gid != dropped]
            subset = dataset.select_groups(kept).subsample_users(data_fraction, seed=member_seed)
        if verbose:
            print(f"[ensemble] training member {index + 1}/{num_members}")
        members.append(train_user_simulator(subset, member_config))
    return SimulatorEnsemble(members)
