"""Reinforcement-learning substrate: GAE, buffers, policies, PPO, vec rollouts."""

from .buffer import RolloutBuffer, RolloutSegment
from .gae import compute_gae, valid_step_mask
from .policies import ActorCriticBase, MLPActorCritic, RecurrentActorCritic
from .ppo import PPO, PPOConfig, TrainingDiverged
from .runner import collect_segment, collect_segments_sequential
from .evaluate import evaluate
from .vec import (
    BlockRNG,
    VecEnvPool,
    assemble_segments,
    collect_segments_vec,
    split_rng,
)
from .chaos import ChaosSchedule, FaultSpec
from .workers import (
    FaultPolicy,
    ShardedVecEnvPool,
    StaleReplicaError,
    WorkerCrashed,
    WorkerStepError,
    WorkerTimeout,
    sharding_available,
)
from .parity import (
    ROLLOUT_MODES,
    assert_segments_identical,
    collect_rollout_mode,
    verify_rollout_parity,
)

__all__ = [
    "ActorCriticBase",
    "BlockRNG",
    "ChaosSchedule",
    "FaultPolicy",
    "FaultSpec",
    "MLPActorCritic",
    "PPO",
    "PPOConfig",
    "ROLLOUT_MODES",
    "RecurrentActorCritic",
    "RolloutBuffer",
    "RolloutSegment",
    "ShardedVecEnvPool",
    "StaleReplicaError",
    "TrainingDiverged",
    "VecEnvPool",
    "WorkerCrashed",
    "WorkerStepError",
    "WorkerTimeout",
    "assemble_segments",
    "assert_segments_identical",
    "collect_rollout_mode",
    "collect_segment",
    "collect_segments_sequential",
    "collect_segments_vec",
    "compute_gae",
    "evaluate",
    "sharding_available",
    "split_rng",
    "valid_step_mask",
    "verify_rollout_parity",
]
