"""Data-driven user-simulator stack: datasets, learners, ensembles, wrappers.

The ensemble's :meth:`SimulatorEnsemble.uncertainty` is the one U(s, a)
of the Sec. IV-C penalty (the mean deviation of Sec. V-C2).
"""

from .dataset import GroupTrajectories, TrajectoryDataset
from .ensemble import SimulatorEnsemble, build_simulator_set
from .env_wrapper import SimulatedDPREnv
from .learner import (
    SimulatorLearnerConfig,
    UserSimulator,
    heldout_log_likelihood,
    train_user_simulator,
)

__all__ = [
    "GroupTrajectories",
    "SimulatedDPREnv",
    "SimulatorEnsemble",
    "SimulatorLearnerConfig",
    "TrajectoryDataset",
    "UserSimulator",
    "build_simulator_set",
    "heldout_log_likelihood",
    "train_user_simulator",
]
