"""Data-driven user-simulator stack: datasets, learners, ensembles, wrappers."""

from .dataset import GroupTrajectories, TrajectoryDataset
from .ensemble import SimulatorEnsemble, build_simulator_set
from .env_wrapper import SimulatedDPREnv
from .learner import (
    SimulatorLearnerConfig,
    UserSimulator,
    heldout_log_likelihood,
    train_user_simulator,
)
from .uncertainty import (
    UNCERTAINTY_ESTIMATORS,
    get_uncertainty_estimator,
    max_deviation,
    mean_deviation,
    pairwise_disagreement,
)

__all__ = [
    "GroupTrajectories",
    "UNCERTAINTY_ESTIMATORS",
    "get_uncertainty_estimator",
    "max_deviation",
    "mean_deviation",
    "pairwise_disagreement",
    "SimulatedDPREnv",
    "SimulatorEnsemble",
    "SimulatorLearnerConfig",
    "TrajectoryDataset",
    "UserSimulator",
    "build_simulator_set",
    "heldout_log_likelihood",
    "train_user_simulator",
]
