"""Environment samplers shared by the RL baselines.

Each returns an ``EnvSampler`` — a callable ``rng → MultiUserEnv`` plugged
into :class:`repro.core.trainer.PolicyTrainer`. They encode the only thing
that differs between DIRECT / DR-UNI / DR-OSI and Sim2Rec at the
environment level: whether training sees one simulator or the whole set.
"""

from __future__ import annotations

import numpy as np

from ..core.trainer import EnvSampler
from ..envs.base import MultiUserEnv
from ..envs.lts_tasks import LTSTask
from ..sim.dataset import TrajectoryDataset
from ..sim.ensemble import SimulatorEnsemble
from ..sim.env_wrapper import SimulatedDPREnv
from ..sim.learner import UserSimulator


def lts_task_sampler(task: LTSTask) -> EnvSampler:
    """Uniform sampling over the task's training simulator set (DR-*)."""
    envs = task.make_train_envs()

    def sampler(rng: np.random.Generator) -> MultiUserEnv:
        return envs[int(rng.integers(0, len(envs)))]

    return sampler


def lts_single_sampler(task: LTSTask, index: int = 0) -> EnvSampler:
    """A single fixed simulator from the set (the DIRECT baseline)."""
    env = task.make_train_env(index)

    def sampler(rng: np.random.Generator) -> MultiUserEnv:
        return env

    return sampler


def dpr_ensemble_sampler(
    ensemble: SimulatorEnsemble,
    dataset: TrajectoryDataset,
    truncate_horizon: int = 5,
    seed: int = 0,
) -> EnvSampler:
    """Sample (M_ω, group) pairs across the whole simulator set (DR-*)."""
    counter = [0]
    groups = dataset.groups

    def sampler(rng: np.random.Generator) -> MultiUserEnv:
        member = ensemble.sample_member(rng)
        group = groups[int(rng.integers(0, len(groups)))]
        counter[0] += 1
        return SimulatedDPREnv(
            member,
            group,
            truncate_horizon=truncate_horizon,
            seed=seed + 60_000 + counter[0],
        )

    return sampler


def dpr_single_sampler(
    simulator: UserSimulator,
    dataset: TrajectoryDataset,
    truncate_horizon: int = 5,
    seed: int = 0,
) -> EnvSampler:
    """One fixed learned simulator over all groups (the DIRECT baseline)."""
    counter = [0]
    groups = dataset.groups

    def sampler(rng: np.random.Generator) -> MultiUserEnv:
        group = groups[int(rng.integers(0, len(groups)))]
        counter[0] += 1
        return SimulatedDPREnv(
            simulator,
            group,
            truncate_horizon=truncate_horizon,
            seed=seed + 70_000 + counter[0],
        )

    return sampler
