"""Environments: the LTS, DPR and SlateRec world families.

Families are also registered declaratively in :mod:`repro.scenarios`;
``make_scenario({"family": ...})`` builds whole populations from config
dicts.
"""

from .base import MultiUserEnv
from .dpr import (
    COST_RATE,
    CityProfile,
    DPRCityEnv,
    DPRConfig,
    DPRFeaturizer,
    DPRWorld,
    DriverPersona,
    FEEDBACK_DIM,
    GroundTruthResponse,
    HISTORY_DAYS,
)
from .dpr_logging import (
    BehaviorPolicy,
    BehaviorPolicyConfig,
    collect_city_log,
    collect_dpr_dataset,
)
from .lts import LTSConfig, LTSEnv, MU_C_REAL, MU_K_REAL, oracle_constant_policy_return
from .lts_tasks import LTSTask, admissible_omega_g, make_lts_task
from .slate import MU_CLICK_REAL, MU_KALE_REAL, SlateConfig, SlateRecEnv
from .spaces import Box, Discrete

__all__ = [
    "BehaviorPolicy",
    "BehaviorPolicyConfig",
    "Box",
    "COST_RATE",
    "CityProfile",
    "DPRCityEnv",
    "DPRConfig",
    "DPRFeaturizer",
    "DPRWorld",
    "Discrete",
    "DriverPersona",
    "FEEDBACK_DIM",
    "GroundTruthResponse",
    "HISTORY_DAYS",
    "LTSConfig",
    "LTSEnv",
    "LTSTask",
    "MU_CLICK_REAL",
    "MU_C_REAL",
    "MU_KALE_REAL",
    "MU_K_REAL",
    "MultiUserEnv",
    "SlateConfig",
    "SlateRecEnv",
    "admissible_omega_g",
    "collect_city_log",
    "collect_dpr_dataset",
    "make_lts_task",
    "oracle_constant_policy_return",
]
