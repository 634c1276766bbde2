"""Training on registered scenarios: the Algorithm-1 trainer.

:class:`ScenarioTrainer` runs Algorithm 1 on any registered family, the
LTS transfer tasks included: it samples simulators uniformly from a
scenario's training population, rides the pooled in-process collection
of :class:`repro.core.PolicyTrainer`, and keeps SADAE learning on state
sets observed during rollouts through the Eq. (8) step it shares with
:class:`repro.core.Sim2RecDPRTrainer`.
:func:`trainer_from_config` resolves ``Sim2RecConfig.scenario`` — a
registered-family config dict — into a ready trainer, sizing the
Sim2Rec policy from the scenario's dims; the ``python -m
repro.scenarios`` CLI is a thin shell around it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.checkpoint import pickle_to_array, unpickle_array
from ..core.config import Sim2RecConfig
from ..core.policy import Sim2RecPolicy
from ..core.sadae import StateActionSet, train_sadae
from ..core.trainer import PolicyTrainer, build_sim2rec_policy, sadae_step
from ..envs.base import MultiUserEnv
from ..rl.buffer import RolloutSegment
from ..utils.logging import MetricLogger
from ..utils.seeding import make_rng
from .registry import Scenario, SpecLike, make_scenario


def collect_scenario_state_sets(
    scenario: Scenario,
    steps_per_env: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> List[StateActionSet]:
    """Build a SADAE pretraining corpus from every training simulator.

    Each simulator contributes its observed state-action sets under
    uniform random actions. The sets come from fresh env instances at
    the scenario's ``corpus_seed_offset``, so the shared training envs
    are not advanced: offset 0 for ``lts`` (copies of the training envs
    themselves), 3000 for the other built-in families.
    """
    rng = rng or make_rng(0)
    sets: List[StateActionSet] = []
    for index in range(scenario.num_train_envs):
        env = scenario.make_train_env(index, seed_offset=scenario.corpus_seed_offset)
        states = env.reset()
        actions = np.zeros((env.num_users, env.action_dim))
        sets.append((states.copy(), actions.copy()))
        for _ in range(steps_per_env - 1):
            actions = rng.random((env.num_users, env.action_dim))
            states, _, _, _ = env.step(actions)
            sets.append((states.copy(), actions.copy()))
    return sets


class ScenarioTrainer(PolicyTrainer):
    """Algorithm 1 over any registered scenario's training population.

    Simulators are shared env objects sampled uniformly per segment (env
    state and RNG streams persist across iterations). On a scenario with
    ``resample_users`` set, each draw also redraws the sampled env's
    per-user gaps (Fig. 7's unlimited-user simulators). SADAE keeps
    learning from state sets snapshotted out of the collected rollouts.
    """

    def __init__(
        self,
        policy: Sim2RecPolicy,
        scenario: Scenario,
        config: Sim2RecConfig,
        logger: Optional[MetricLogger] = None,
    ):
        self.scenario = scenario
        self._train_envs = scenario.make_train_envs()
        self._recent_sets: List[StateActionSet] = []

        def sampler(rng: np.random.Generator) -> MultiUserEnv:
            env = self._train_envs[int(rng.integers(0, len(self._train_envs)))]
            if scenario.resample_users:
                env.resample_user_gaps()
            return env

        super().__init__(policy, sampler, config, logger)
        self.sim2rec_policy = policy
        # Resampling changes *shared* env objects at sample time; batching
        # samples up front would let a later resample overwrite an earlier
        # one before its rollout runs. Keep the sample→rollout order then.
        self._sequential_collect = scenario.resample_users

    def pretrain_sadae(
        self, epochs: Optional[int] = None, steps_per_env: int = 10
    ) -> List[float]:
        """Fit q_κ/p_θ on state-action sets from the training simulators."""
        sets = collect_scenario_state_sets(
            self.scenario, steps_per_env=steps_per_env, rng=self.rng
        )
        with self._phase_timer("sadae_pretrain"):
            return train_sadae(
                self.sim2rec_policy.sadae,
                sets,
                epochs=epochs or self.config.sadae_pretrain_epochs,
                rng=self.rng,
            )

    def post_process_segment(self, segment: RolloutSegment, env: MultiUserEnv) -> None:
        for t in range(0, segment.horizon, max(segment.horizon // 4, 1)):
            self._recent_sets.append((segment.states[t], segment.prev_actions[t]))
        self._recent_sets = self._recent_sets[-64:]

    def checkpoint_extra_state(self) -> Dict[str, np.ndarray]:
        """The shared env objects, whole (their RNGs and episode state
        travel inside the pickle), and the SADAE replay window."""
        return {
            "train_envs": pickle_to_array(self._train_envs),
            "recent_sets": pickle_to_array(self._recent_sets),
        }

    def load_checkpoint_extra_state(self, state: Dict[str, np.ndarray]) -> None:
        """Write the saved env states **into** the existing env objects,
        which the sampler holds, and restore the replay window."""
        saved = unpickle_array(state["train_envs"])
        if len(saved) != len(self._train_envs):
            raise ValueError(
                f"checkpoint has {len(saved)} training envs, trainer has "
                f"{len(self._train_envs)} — config mismatch"
            )
        for mine, theirs in zip(self._train_envs, saved):
            vars(mine).update(vars(theirs))
        self._recent_sets = unpickle_array(state["recent_sets"])

    def after_update(self) -> List[float]:
        return sadae_step(
            self.sim2rec_policy.sadae, self._recent_sets, self.config, self.rng
        )


def trainer_from_config(
    config: Sim2RecConfig,
    scenario: Optional[SpecLike] = None,
    logger: Optional[MetricLogger] = None,
) -> ScenarioTrainer:
    """Resolve ``config.scenario`` (or an explicit spec) into a trainer.

    Builds the Sim2Rec policy sized by the scenario's observation and
    action dimensions, then wires it to the scenario's population. The
    spec may be a family name, a config dict, a :class:`ScenarioSpec`,
    or an already-built :class:`Scenario`.
    """
    if scenario is None:
        scenario = config.scenario
    if scenario is None:
        raise ValueError(
            "no scenario given: set Sim2RecConfig.scenario to a registered-"
            "family config dict (e.g. {'family': 'slate'}) or pass one here"
        )
    if not isinstance(scenario, Scenario):
        scenario = make_scenario(scenario)
    policy = build_sim2rec_policy(scenario.state_dim, scenario.action_dim, config)
    return ScenarioTrainer(policy, scenario, config, logger)
