"""The simulated transition process P_{M,τʳ} (Sec. III-B).

A :class:`SimulatedDPREnv` turns a learned user simulator M_ω plus logged
real trajectories τʳ into a trainable environment:

1. the simulator predicts only the user feedback ŷ_{t+1} for (s_t, a_t);
2. the history block s^hist and statistics s^stat of the next state are
   updated from ŷ;
3. the exogenous blocks — s^user, s^group, s^time — are loaded from the
   real trajectory, exactly as the paper prescribes ("instead of directly
   predicting the whole next state, the simulator just predicts y and
   constructs the other states from historical data τʳ").

Following the compounding-error countermeasures of Sec. IV-C, ``reset``
draws a random initial state from the logged dataset and rollouts are
truncated at T_c steps. ``exec_low`` / ``exec_high``, each user's logged
action extremes, are the bounds F_exec checks actions against; the U
penalty is scored after collection
(:func:`repro.core.filters.apply_uncertainty_penalty`), not per step.

Envs that share one simulator step through one stacked
``_SimulatedDPRBatchStepper`` pass per timestep in a
:class:`~repro.rl.vec.VecEnvPool`, bit-identical to stepping each env.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..envs.base import MultiUserEnv
from ..envs.dpr import COST_RATE, DPRFeaturizer, FEEDBACK_DIM, HISTORY_DAYS
from ..envs.spaces import Box
from ..utils.seeding import make_rng
from .dataset import GroupTrajectories
from .learner import UserSimulator


class SimulatedDPREnv(MultiUserEnv):
    """Rollout environment backed by a learned simulator and logged data."""

    def __init__(
        self,
        simulator: UserSimulator,
        group_log: GroupTrajectories,
        truncate_horizon: int = 5,
        alpha1: float = 1.0,
        seed: Optional[int] = None,
    ):
        if simulator.state_dim != group_log.state_dim:
            raise ValueError("simulator/state dims disagree with the logged data")
        self.simulator = simulator
        self.group_log = group_log
        self.featurizer = DPRFeaturizer()
        self.truncate_horizon = truncate_horizon
        self.alpha1 = alpha1
        self.num_users = group_log.num_users
        self.horizon = truncate_horizon
        self.group_id = group_log.group_id
        self.observation_space = Box(
            low=np.full(self.featurizer.state_dim, -np.inf),
            high=np.full(self.featurizer.state_dim, np.inf),
        )
        self.action_space = Box(low=np.zeros(2), high=np.ones(2))
        self._rng = make_rng(seed)
        # F_exec support: each user's historical action extremes in this group.
        flat_actions = group_log.actions.reshape(-1, self.num_users, group_log.action_dim)
        self.exec_low = flat_actions.min(axis=0)
        self.exec_high = flat_actions.max(axis=0)
        self._steps = 0
        self._time_index = 0
        self._states: np.ndarray = np.zeros((self.num_users, self.featurizer.state_dim))
        self._order_history: np.ndarray = np.zeros((self.num_users, HISTORY_DAYS))
        self._user_static: np.ndarray = np.zeros((self.num_users, DPRFeaturizer.USER_DIM))
        self._group_static: np.ndarray = np.zeros(DPRFeaturizer.GROUP_DIM)
        self._last_feedback: np.ndarray = np.zeros((self.num_users, FEEDBACK_DIM))

    # ------------------------------------------------------------------
    def _history_from_state(self, states: np.ndarray) -> np.ndarray:
        """Reconstruct a 14-day order history consistent with s^stat.

        The logged state stores only 7- and 14-day means; we rebuild a
        piecewise-constant history with the same statistics so that rolling
        it forward with predicted orders reproduces the real update rule.
        """
        stat = states[:, self.featurizer.slices["stat"]]
        stat7, stat14 = stat[:, 0], stat[:, 1]
        early = np.maximum(0.0, 2.0 * stat14 - stat7)  # mean of days 8..14 back
        history = np.empty((states.shape[0], HISTORY_DAYS))
        history[:, : HISTORY_DAYS - 7] = early[:, None]
        history[:, HISTORY_DAYS - 7 :] = stat7[:, None]
        return history

    def reset(self) -> np.ndarray:
        log = self.group_log
        episode = int(self._rng.integers(0, log.num_episodes))
        max_start = max(log.horizon - self.truncate_horizon, 0)
        start = int(self._rng.integers(0, max_start + 1))
        states = log.states[episode, start].copy()
        self._states = states
        # Copies, not views: ``step`` rebuilds the state in place into the
        # ``self._states`` buffer, so the exogenous blocks must not alias it.
        self._user_static = states[:, self.featurizer.slices["user"]].copy()
        self._group_static = states[0, self.featurizer.slices["group"]].copy()
        self._last_feedback = states[:, self.featurizer.slices["hist"]].copy()
        self._order_history = self._history_from_state(states)
        self._time_index = start
        self._steps = 0
        return states.copy()

    def step(self, actions: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[str, Any]]:
        actions = self._validate_actions(actions)
        actions = np.clip(actions, 0.0, 1.0)
        bonus = actions[:, 1]

        feedback = self.simulator.sample(self._states, actions, self._rng)
        feedback[:, 0] = np.maximum(feedback[:, 0], 0.0)  # orders
        feedback[:, 1] = np.maximum(feedback[:, 1], 0.0)  # hours
        orders = feedback[:, 0]
        cost = COST_RATE * bonus * orders
        rewards = orders - self.alpha1 * cost

        self._order_history = np.roll(self._order_history, -1, axis=1)
        self._order_history[:, -1] = orders
        self._last_feedback = feedback
        self._time_index += 1
        self._steps += 1

        self._states = self.featurizer.build_states(
            self._user_static,
            self._group_static,
            self._time_index,
            self._order_history,
            self._last_feedback,
            out=self._states,
        )
        dones = np.full(self.num_users, self._steps >= self.truncate_horizon)
        info: Dict[str, Any] = {
            "orders": orders,
            "cost": cost,
            "completed": feedback[:, 2],
            "t": self._steps,
        }
        return self._states.copy(), rewards, dones, info

    @classmethod
    def make_batch_stepper(cls, envs: Sequence["SimulatedDPREnv"], slices: Sequence[slice]):
        """Block-diagonal stepper for pools sharing one simulator M_ω.

        Batching across cities requires every member to query the *same*
        simulator, so the network forward runs once per timestep for the
        whole stacked batch. Returns None otherwise; the pool falls back
        to per-env stepping.
        """
        if len(envs) < 2:
            return None
        if any(type(env) is not SimulatedDPREnv for env in envs):
            return None
        first = envs[0]
        if any(env.simulator is not first.simulator for env in envs):
            return None
        if len({env.truncate_horizon for env in envs}) != 1:
            return None
        return _SimulatedDPRBatchStepper(list(envs), list(slices))


class _SimulatedDPRBatchStepper:
    """Vectorized reset/step over a stacked batch of :class:`SimulatedDPREnv`.

    The learned-simulator forward runs once over all cities; feedback
    noise is drawn per city from that city's own generator, and episode
    starts are drawn per city exactly as in ``SimulatedDPREnv.reset`` —
    the results are numerically identical to stepping the member envs
    one by one.
    """

    def __init__(self, envs: Sequence["SimulatedDPREnv"], slices: Sequence[slice]):
        self.envs = list(envs)
        self.slices = list(slices)
        self.total = self.slices[-1].stop
        first = self.envs[0]
        self.simulator = first.simulator
        self.featurizer = first.featurizer
        self.truncate_horizon = first.truncate_horizon
        self.alpha1 = np.empty(self.total)
        for env, block in zip(self.envs, self.slices):
            self.alpha1[block] = env.alpha1
        ds = self.featurizer.state_dim
        self._states = np.zeros((self.total, ds))
        self._user_static = np.zeros((self.total, DPRFeaturizer.USER_DIM))
        self._group_static = np.zeros((self.total, DPRFeaturizer.GROUP_DIM))
        self._last_feedback = np.zeros((self.total, FEEDBACK_DIM))
        self._order_history = np.zeros((self.total, HISTORY_DAYS))
        self._time_index = np.zeros(len(self.envs), dtype=np.int64)
        self._steps = 0

    def reset(self) -> np.ndarray:
        featurizer = self.featurizer
        for index, (env, block) in enumerate(zip(self.envs, self.slices)):
            log = env.group_log
            episode = int(env._rng.integers(0, log.num_episodes))
            max_start = max(log.horizon - env.truncate_horizon, 0)
            start = int(env._rng.integers(0, max_start + 1))
            states = log.states[episode, start]
            self._states[block] = states
            self._group_static[block] = states[0, featurizer.slices["group"]]
            self._time_index[index] = start
        self._user_static[:] = self._states[:, featurizer.slices["user"]]
        self._last_feedback[:] = self._states[:, featurizer.slices["hist"]]
        # _history_from_state is already row-vectorized; reuse it on the
        # stacked batch so the reconstruction rule lives in one place.
        self._order_history[:] = self.envs[0]._history_from_state(self._states)
        self._steps = 0
        return self._states.copy()

    def _sample_feedback(self, actions: np.ndarray) -> np.ndarray:
        """One simulator forward for all cities; per-city noise streams."""
        simulator = self.simulator
        with nn.no_grad():
            mean, log_std, logits = simulator._forward(self._states, actions)
        n_cont = len(simulator.continuous_idx)
        n_bin = len(simulator.binary_idx)
        noise = np.empty((self.total, n_cont)) if n_cont > 0 else None
        draws = np.empty((self.total, n_bin)) if n_bin > 0 else None
        for env, block in zip(self.envs, self.slices):
            # Per stream: continuous noise first, then binary draws —
            # the order UserSimulator.sample consumes them in.
            count = block.stop - block.start
            if noise is not None:
                noise[block] = env._rng.standard_normal((count, n_cont))
            if draws is not None:
                draws[block] = env._rng.random((count, n_bin))
        return simulator.sample_from_outputs(
            mean.data, log_std.data, logits.data, noise, draws
        )

    def step(self, actions: np.ndarray):
        actions = np.clip(np.asarray(actions, dtype=np.float64), 0.0, 1.0)
        bonus = actions[:, 1]

        feedback = self._sample_feedback(actions)
        feedback[:, 0] = np.maximum(feedback[:, 0], 0.0)
        feedback[:, 1] = np.maximum(feedback[:, 1], 0.0)
        orders = feedback[:, 0]
        cost = COST_RATE * bonus * orders
        rewards = orders - self.alpha1 * cost

        self._order_history = np.roll(self._order_history, -1, axis=1)
        self._order_history[:, -1] = orders
        self._last_feedback = feedback
        self._time_index += 1
        self._steps += 1

        for index, block in enumerate(self.slices):
            self.featurizer.build_states(
                self._user_static[block],
                self._group_static[block],
                int(self._time_index[index]),
                self._order_history[block],
                self._last_feedback[block],
                out=self._states[block],
            )
        dones = np.full(self.total, self._steps >= self.truncate_horizon)
        infos = [
            {
                "orders": orders[block].copy(),
                "cost": cost[block].copy(),
                "completed": feedback[block, 2].copy(),
                "t": self._steps,
            }
            for block in self.slices
        ]
        return self._states.copy(), rewards, dones, infos
