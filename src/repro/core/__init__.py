"""The Sim2Rec core: SADAE, context-aware policy, filters, Algorithm 1."""

from .checkpoint import (
    CHECKPOINT_VERSION,
    checkpoint_iteration,
    load_checkpoint,
    save_checkpoint,
)
from .config import (
    Sim2RecConfig,
    dpr_paper_config,
    dpr_small_config,
    lts_paper_config,
    lts_small_config,
    scenario_small_config,
)
from .filters import (
    TrendFilterResult,
    apply_exec_filter,
    apply_uncertainty_penalty,
    compute_trend_filter,
    filter_group_log,
    intervention_response,
)
from .policy import Sim2RecPolicy
from .sadae import SADAE, SADAEConfig, train_sadae
from .trainer import (
    PolicyTrainer,
    Sim2RecDPRTrainer,
    build_sim2rec_policy,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "PolicyTrainer",
    "SADAE",
    "SADAEConfig",
    "Sim2RecConfig",
    "Sim2RecDPRTrainer",
    "Sim2RecPolicy",
    "TrendFilterResult",
    "apply_exec_filter",
    "apply_uncertainty_penalty",
    "build_sim2rec_policy",
    "checkpoint_iteration",
    "compute_trend_filter",
    "dpr_paper_config",
    "dpr_small_config",
    "filter_group_log",
    "intervention_response",
    "load_checkpoint",
    "lts_paper_config",
    "lts_small_config",
    "save_checkpoint",
    "scenario_small_config",
    "train_sadae",
]
