"""Configuration bundles encoding the paper's hyper-parameters (Table II).

``lts_paper_config`` / ``dpr_paper_config`` reproduce Table II verbatim.
They are sized for the paper's 2·10⁹-step budget; the ``*_small_config``
variants keep the same structure at laptop scale and are what the tests,
examples and benches use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from ..rl.ppo import PPOConfig
from .sadae import SADAEConfig

__all__ = [
    "Sim2RecConfig",
    "dpr_paper_config",
    "dpr_small_config",
    "lts_paper_config",
    "lts_small_config",
    "scenario_small_config",
]

@dataclass
class Sim2RecConfig:
    """Everything needed to assemble and train a Sim2Rec agent."""

    # --- context-aware policy and extractor φ -------------------------
    fc_sizes: Tuple[int, ...] = (64, 32)        # layers f between q_κ and φ
    lstm_hidden: int = 64                        # units of LSTM in φ
    head_hidden: Tuple[int, ...] = (128, 64)     # context-aware layer π
    init_log_std: float = -1.0

    # --- SADAE ---------------------------------------------------------
    sadae: SADAEConfig = field(default_factory=SADAEConfig)
    sadae_pretrain_epochs: int = 30
    sadae_updates_per_iteration: int = 1
    sadae_sets_per_update: int = 8

    # --- PPO (Eq. 4) -----------------------------------------------------
    ppo: PPOConfig = field(default_factory=PPOConfig)
    segments_per_iteration: int = 2

    # --- run checkpoint / resume ----------------------------------------
    # Every checkpoint_every completed iterations (0 = off) the trainer
    # atomically snapshots policy + optimiser + RNG streams + aux state
    # to checkpoint_path (repro.core.checkpoint); a fresh trainer built
    # from the same config resumes from it on the unbroken run's exact
    # trajectory.
    checkpoint_every: int = 0
    checkpoint_path: Optional[str] = None

    # --- observability ---------------------------------------------------
    # When set, the trainer appends one CRC32-framed JSONL record per
    # completed iteration — the full metrics-registry snapshot plus the
    # logged metrics dict — to this path (repro.obs.JSONLMetricsSink).
    # Purely additive: instrumentation never feeds back into training
    # state, so runs with and without a sink are bit-identical.
    metrics_path: Optional[str] = None

    # --- scenario (registry-driven environment family) ------------------
    # A registered-family config dict resolved by repro.scenarios, e.g.
    # {"family": "slate", "num_envs": 48, "num_users": 10}. Consumed by
    # repro.scenarios.trainer_from_config and the
    # `python -m repro.scenarios train` CLI when no spec is passed
    # explicitly; Sim2RecDPRTrainer and the baseline trainers ignore it
    # (their environments come from an ensemble or a sampler).
    scenario: Optional[Dict[str, Any]] = None

    # --- simulator-error countermeasures (Sec. IV-C) --------------------
    truncate_horizon: Optional[int] = None   # T_c; None = full episodes
    uncertainty_alpha: float = 0.01          # α, coefficient of the U penalty
    use_uncertainty_penalty: bool = True     # off → the Sim2Rec-PE ablation
    use_trend_filter: bool = True            # off (with exec) → Sim2Rec-EE
    use_exec_filter: bool = True
    exec_r_min: float = 0.0                  # R_min of the task
    exec_tolerance: float = 0.02

    seed: int = 0

    def ablate_prediction_error_handling(self) -> "Sim2RecConfig":
        """Sim2Rec-PE: drop the uncertainty penalty and the T_c truncation."""
        return replace(
            self,
            use_uncertainty_penalty=False,
            truncate_horizon=None,
            ppo=replace(self.ppo, bootstrap_truncated=False),
        )

    def ablate_extrapolation_error_handling(self) -> "Sim2RecConfig":
        """Sim2Rec-EE: drop both F_trend and F_exec."""
        return replace(self, use_trend_filter=False, use_exec_filter=False)


def lts_paper_config() -> Sim2RecConfig:
    """Table II, LTS column (paper scale)."""
    return Sim2RecConfig(
        fc_sizes=(128, 128, 128, 32),
        lstm_hidden=64,
        head_hidden=(128, 64),
        sadae=SADAEConfig(
            latent_dim=5,
            encoder_hidden=(512, 512),
            decoder_hidden=(512, 512),
            learning_rate=2e-5,
            weight_decay=0.1,
            state_only=True,
        ),
        ppo=PPOConfig(
            learning_rate=1e-4,
            final_learning_rate=1e-6,
            gamma=0.99,
            update_epochs=4,
            minibatches_per_segment=4,
        ),
        # The LTS simulator set is exact (configurable parameters), so the
        # data-driven error countermeasures are off, as in the paper.
        use_uncertainty_penalty=False,
        use_trend_filter=False,
        use_exec_filter=False,
    )


def dpr_paper_config() -> Sim2RecConfig:
    """Table II, DPR column (paper scale)."""
    return Sim2RecConfig(
        fc_sizes=(512, 512, 256),
        lstm_hidden=256,
        head_hidden=(512, 256),
        sadae=SADAEConfig(
            latent_dim=200,
            encoder_hidden=(512, 512),
            decoder_hidden=(512, 512),
            learning_rate=1e-6,
            weight_decay=0.001,
            state_only=False,
        ),
        ppo=PPOConfig(
            learning_rate=1e-4,
            final_learning_rate=1e-6,
            gamma=0.9,
            update_epochs=4,
            minibatches_per_segment=4,
            bootstrap_truncated=True,
        ),
        truncate_horizon=5,
        uncertainty_alpha=0.01,
    )


def lts_small_config(seed: int = 0) -> Sim2RecConfig:
    """Laptop-scale LTS preset (same structure, smaller nets / faster LR)."""
    return Sim2RecConfig(
        fc_sizes=(32, 16),
        lstm_hidden=32,
        head_hidden=(64, 32),
        sadae=SADAEConfig(
            latent_dim=4,
            encoder_hidden=(64, 64),
            decoder_hidden=(64, 64),
            learning_rate=1e-3,
            weight_decay=1e-3,
            state_only=True,
            seed=seed,
        ),
        sadae_pretrain_epochs=40,
        ppo=PPOConfig(
            learning_rate=1e-3,
            gamma=0.99,
            update_epochs=3,
            minibatches_per_segment=2,
        ),
        use_uncertainty_penalty=False,
        use_trend_filter=False,
        use_exec_filter=False,
        seed=seed,
    )


def scenario_small_config(seed: int = 0) -> Sim2RecConfig:
    """Laptop-scale preset for arbitrary registered scenarios.

    Family-agnostic: the full state-action SADAE form (``state_only=
    False``) identifies any world's group parameters, and the error
    countermeasures stay off because scenario simulators are exact
    environment variants (as in the LTS tasks). Pair it with
    ``config.scenario = {...}`` and
    :func:`repro.scenarios.trainer_from_config`.
    """
    return Sim2RecConfig(
        fc_sizes=(32, 16),
        lstm_hidden=32,
        head_hidden=(64, 32),
        sadae=SADAEConfig(
            latent_dim=4,
            encoder_hidden=(64, 64),
            decoder_hidden=(64, 64),
            learning_rate=1e-3,
            weight_decay=1e-3,
            state_only=False,
            seed=seed,
        ),
        sadae_pretrain_epochs=20,
        ppo=PPOConfig(
            learning_rate=1e-3,
            gamma=0.99,
            update_epochs=3,
            minibatches_per_segment=2,
        ),
        use_uncertainty_penalty=False,
        use_trend_filter=False,
        use_exec_filter=False,
        seed=seed,
    )


def dpr_small_config(seed: int = 0) -> Sim2RecConfig:
    """Laptop-scale DPR preset."""
    return Sim2RecConfig(
        fc_sizes=(32, 16),
        lstm_hidden=32,
        head_hidden=(64, 32),
        sadae=SADAEConfig(
            latent_dim=8,
            encoder_hidden=(64, 64),
            decoder_hidden=(64, 64),
            learning_rate=1e-3,
            weight_decay=1e-4,
            state_only=False,
            seed=seed,
        ),
        sadae_pretrain_epochs=20,
        ppo=PPOConfig(
            learning_rate=1e-3,
            gamma=0.9,
            update_epochs=3,
            minibatches_per_segment=2,
            bootstrap_truncated=True,
        ),
        truncate_horizon=5,
        uncertainty_alpha=0.01,
        seed=seed,
    )
