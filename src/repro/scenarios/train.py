"""Training on registered scenarios: the generic Algorithm-1 trainer.

:class:`ScenarioTrainer` is the family-agnostic counterpart of
:class:`repro.core.Sim2RecLTSTrainer`: it samples simulators uniformly
from a scenario's training population, rides the pooled in-process
collection of :class:`repro.core.PolicyTrainer`, and keeps SADAE
learning on state sets observed during rollouts.
:func:`trainer_from_config` resolves ``Sim2RecConfig.scenario`` — a
registered-family config dict — into a ready trainer, sizing the
Sim2Rec policy from the scenario's dims; the ``python -m
repro.scenarios`` CLI is a thin shell around it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.config import Sim2RecConfig
from ..core.policy import Sim2RecPolicy
from ..core.sadae import train_sadae
from ..core.trainer import (
    PolicyTrainer,
    build_sim2rec_policy,
    env_population_extra_state,
    load_env_population_extra_state,
)
from ..envs.base import MultiUserEnv
from ..rl.buffer import RolloutSegment
from ..utils.logging import MetricLogger
from ..utils.seeding import make_rng
from .registry import Scenario, SpecLike, make_scenario


def collect_scenario_state_sets(
    scenario: Scenario,
    users_per_set: Optional[int] = None,
    steps_per_env: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Build a SADAE pretraining corpus from every training simulator.

    Each simulator contributes its observed state-action sets under
    uniform random actions (fresh env instances at a dedicated seed
    offset, so the scenario's shared training envs are not advanced).
    ``users_per_set`` is accepted for interface parity with the LTS
    corpus collector but scenario populations are sized by their spec —
    a mismatch raises rather than silently resizing.
    """
    rng = rng or make_rng(0)
    sets: List[Tuple[np.ndarray, np.ndarray]] = []
    for index in range(scenario.num_train_envs):
        env = scenario.make_train_env(index, seed_offset=3000)
        if users_per_set is not None and users_per_set != env.num_users:
            raise ValueError(
                f"users_per_set={users_per_set} does not match the scenario's "
                f"num_users={env.num_users}; size the population via the spec"
            )
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

    Simulators are shared env objects sampled uniformly per segment (the
    LTS-trainer convention — env state and RNG streams persist across
    iterations). SADAE keeps learning from state sets snapshotted out of
    the collected rollouts, exactly as in the LTS trainer.
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
        self._recent_sets: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []

        def sampler(rng: np.random.Generator) -> MultiUserEnv:
            return self._train_envs[int(rng.integers(0, len(self._train_envs)))]

        super().__init__(policy, sampler, config, logger)
        self.sim2rec_policy = policy

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

    def checkpoint_extra_state(self):
        return env_population_extra_state(self._train_envs, self._recent_sets)

    def load_checkpoint_extra_state(self, state) -> None:
        self._recent_sets = load_env_population_extra_state(self._train_envs, state)

    def after_update(self) -> None:
        if not self._recent_sets or self.config.sadae_updates_per_iteration <= 0:
            return
        count = min(self.config.sadae_sets_per_update, len(self._recent_sets))
        indices = self.rng.choice(len(self._recent_sets), size=count, replace=False)
        sets = [self._recent_sets[i] for i in indices]
        train_sadae(
            self.sim2rec_policy.sadae,
            sets,
            epochs=self.config.sadae_updates_per_iteration,
            rng=self.rng,
            fit_normalizer=False,
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
