"""Driver Program Recommendation (DPR) — a synthetic ride-hailing world.

This is the substitute for the proprietary DidiChuxing platform of
Sec. V-C. It models:

- **Cities (groups)** with demand scales spanning orders of magnitude —
  the paper's "group-behaviour differences": a driver's order volume
  depends on the city's passenger base independent of their persona.
- **Drivers (users)** with heterogeneous personas: task-difficulty
  tolerance, bonus elasticity and base activity.
- **Programs (actions)**: ``a = [difficulty, bonus] ∈ [0, 1]²`` — a task
  for the driver plus the platform's expense when completed.
- **Long-term engagement dynamics**: completing programs raises a latent
  engagement level E_t; failing too-hard tasks erodes it. Since orders
  scale with E_t, myopically pushing hard tasks or skimping on bonuses
  hurts cumulative orders — the LTE structure the paper optimises.

Feedback ``y = [orders, online_hours, completed]``; per-step reward is
``orders - α₁ · cost`` with ``cost = bonus · orders · COST_RATE`` (the
expense of the program; α₁ plays the GMV-per-order trade-off role).

The state layout (Sec. III-A) is produced by :class:`DPRFeaturizer`, which
is shared verbatim with the learned-simulator wrapper
(:mod:`repro.sim.env_wrapper`) so the simulated transition process
P_{M,τr} constructs states exactly like the real world does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..utils.seeding import make_rng
from .base import MultiUserEnv
from .spaces import Box

COST_RATE = 0.5  # fraction of an order's value paid out per unit bonus
FEEDBACK_DIM = 3  # [orders, online_hours, completed]
HISTORY_DAYS = 14


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.maximum(x, -60.0)))


@dataclass
class DPRConfig:
    """World-generation parameters."""

    num_cities: int = 5
    drivers_per_city: int = 50
    horizon: int = 30
    alpha1: float = 1.0  # cost trade-off (average GMV per order)
    demand_scale_low: float = 0.5
    demand_scale_high: float = 4.0
    engagement_min: float = 0.1
    engagement_max: float = 2.0
    seed: Optional[int] = None


@dataclass
class CityProfile:
    """Static group-level ground truth."""

    city_id: int
    demand_scale: float
    city_size: float  # an observable proxy correlated with demand

    def group_features(self) -> np.ndarray:
        return np.array([np.log(self.demand_scale), self.city_size])


@dataclass
class DriverPersona:
    """Static user-level ground truth (never observed directly)."""

    tolerance: float        # max task difficulty comfortably completed
    bonus_elasticity: float  # marginal orders per unit bonus
    base_activity: float    # baseline order productivity
    base_hours: float       # baseline online hours

    def observable_profile(self, rng: np.random.Generator) -> np.ndarray:
        """Noisy static profile features (the s^user block)."""
        return np.array(
            [
                self.base_activity + rng.normal(0, 0.1),
                self.tolerance + rng.normal(0, 0.15),
                self.bonus_elasticity + rng.normal(0, 0.15),
                self.base_hours + rng.normal(0, 0.2),
            ]
        )


class DPRFeaturizer:
    """Builds the observed state from static features + feedback history.

    Layout (indices exposed via :attr:`slices`):

    - ``user`` (4): static noisy persona proxies
    - ``hist`` (3): yesterday's orders, online hours, completed flag
    - ``stat`` (2): mean orders over the last 7 and 14 days
    - ``group`` (2): log demand level, city size
    - ``time`` (2): day-of-week sin/cos
    """

    USER_DIM, HIST_DIM, STAT_DIM, GROUP_DIM, TIME_DIM = 4, 3, 2, 2, 2

    def __init__(self):
        dims = {
            "user": self.USER_DIM,
            "hist": self.HIST_DIM,
            "stat": self.STAT_DIM,
            "group": self.GROUP_DIM,
            "time": self.TIME_DIM,
        }
        self.slices: Dict[str, slice] = {}
        offset = 0
        for key, dim in dims.items():
            self.slices[key] = slice(offset, offset + dim)
            offset += dim
        self.state_dim = offset

    def time_features(self, t: int) -> np.ndarray:
        phase = 2.0 * np.pi * (t % 7) / 7.0
        return np.array([np.sin(phase), np.cos(phase)])

    def build_states(
        self,
        user_static: np.ndarray,      # [N, USER_DIM]
        group_static: np.ndarray,     # [GROUP_DIM]
        t: int,
        order_history: np.ndarray,    # [N, HISTORY_DAYS], most recent last
        last_feedback: np.ndarray,    # [N, FEEDBACK_DIM]
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Assemble the state matrix; ``out`` lets hot paths reuse a buffer.

        ``out`` must not alias any of the inputs except through copies —
        slice writes happen block by block.
        """
        n = user_static.shape[0]
        if out is None:
            out = np.empty((n, self.state_dim))
        slices = self.slices
        out[:, slices["user"]] = user_static
        out[:, slices["hist"]] = last_feedback
        stat = out[:, slices["stat"]]
        stat[:, 0] = order_history[:, -7:].mean(axis=1)
        stat[:, 1] = order_history.mean(axis=1)
        out[:, slices["group"]] = group_static
        out[:, slices["time"]] = self.time_features(t)
        return out


class GroundTruthResponse:
    """The real user-feedback model E(y | s, a, F_u(u), F_g(g)).

    Vectorised over drivers. Kept separate from the env so tests can query
    counterfactual responses directly. ``demand_scale`` and the engagement
    bounds are stored as broadcastable attributes (scalars for one city,
    per-driver arrays after :meth:`from_stacked`), so the same formulas
    serve both the single-city env and the block-diagonal batch stepper.
    """

    def __init__(
        self,
        personas: List[DriverPersona],
        city: CityProfile,
        config: DPRConfig,
    ):
        self.city = city
        self.config = config
        # One pass over the persona list instead of four.
        traits = np.array(
            [
                (p.tolerance, p.bonus_elasticity, p.base_activity, p.base_hours)
                for p in personas
            ]
        ).reshape(-1, 4)
        self.tolerance = np.ascontiguousarray(traits[:, 0])
        self.bonus_elasticity = np.ascontiguousarray(traits[:, 1])
        self.base_activity = np.ascontiguousarray(traits[:, 2])
        self.base_hours = np.ascontiguousarray(traits[:, 3])
        self.demand_scale = city.demand_scale
        self.engagement_min = config.engagement_min
        self.engagement_max = config.engagement_max

    @classmethod
    def from_stacked(
        cls, responses: List["GroundTruthResponse"], slices: List[slice]
    ) -> "GroundTruthResponse":
        """Stack several cities' responses on the driver axis.

        The result answers the same formulas for the whole stacked batch;
        the per-city scalars become per-driver rows.
        """
        total = slices[-1].stop
        stacked = cls.__new__(cls)
        stacked.city = None
        stacked.config = None
        for name in ("tolerance", "bonus_elasticity", "base_activity", "base_hours"):
            rows = np.empty(total)
            for response, block in zip(responses, slices):
                rows[block] = getattr(response, name)
            setattr(stacked, name, rows)
        for name in ("demand_scale", "engagement_min", "engagement_max"):
            rows = np.empty(total)
            for response, block in zip(responses, slices):
                rows[block] = getattr(response, name)
            setattr(stacked, name, rows)
        return stacked

    def completion_probability(self, difficulty: np.ndarray, bonus: np.ndarray) -> np.ndarray:
        return _sigmoid(6.0 * (self.tolerance - difficulty) + 1.5 * bonus)

    def expected_orders(
        self, engagement: np.ndarray, difficulty: np.ndarray, bonus: np.ndarray, completed: np.ndarray
    ) -> np.ndarray:
        productivity = (
            self.base_activity
            + 1.2 * completed * difficulty
            + 0.8 * self.bonus_elasticity * bonus
        )
        return self.demand_scale * engagement * productivity

    def orders_noise_std(self, orders_mean: np.ndarray) -> np.ndarray:
        return 0.3 * np.sqrt(np.maximum(orders_mean, 0.1)) + 0.1

    def sample_feedback(
        self,
        engagement: np.ndarray,
        difficulty: np.ndarray,
        bonus: np.ndarray,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Returns (feedback [N, 3], completed [N])."""
        p_complete = self.completion_probability(difficulty, bonus)
        completed = (rng.random(p_complete.shape) < p_complete).astype(np.float64)
        orders_mean = self.expected_orders(engagement, difficulty, bonus, completed)
        orders = np.maximum(
            0.0, rng.normal(orders_mean, self.orders_noise_std(orders_mean))
        )
        hours = np.maximum(0.0, self.base_hours * engagement + rng.normal(0, 0.3, orders.shape))
        feedback = np.stack([orders, hours, completed], axis=1)
        return feedback, completed

    def engagement_update(
        self, engagement: np.ndarray, difficulty: np.ndarray, completed: np.ndarray
    ) -> np.ndarray:
        delta = 0.08 * completed - 0.05 * (1.0 - completed) * difficulty - 0.01
        return np.clip(engagement + delta, self.engagement_min, self.engagement_max)


class DPRCityEnv(MultiUserEnv):
    """One city's drivers as a multi-user environment (a group g)."""

    def __init__(
        self,
        city: CityProfile,
        personas: List[DriverPersona],
        config: DPRConfig,
        seed: Optional[int] = None,
    ):
        self.city = city
        self.config = config
        self.personas = personas
        self.num_users = len(personas)
        self.horizon = config.horizon
        self.group_id = city.city_id
        self.featurizer = DPRFeaturizer()
        self.observation_space = Box(
            low=np.full(self.featurizer.state_dim, -np.inf),
            high=np.full(self.featurizer.state_dim, np.inf),
        )
        self.action_space = Box(low=np.zeros(2), high=np.ones(2))
        self._rng = make_rng(seed if seed is not None else config.seed)
        self.response = GroundTruthResponse(personas, city, config)
        self.user_static = np.stack(
            [p.observable_profile(self._rng) for p in personas]
        )
        self.group_static = city.group_features()
        self._engagement: np.ndarray = np.ones(self.num_users)
        self._order_history: np.ndarray = np.zeros((self.num_users, HISTORY_DAYS))
        self._last_feedback: np.ndarray = np.zeros((self.num_users, FEEDBACK_DIM))
        self._state_out: np.ndarray = np.empty((self.num_users, self.featurizer.state_dim))
        self._t = 0

    # ------------------------------------------------------------------
    def reset(self) -> np.ndarray:
        response = self.response
        self._engagement = np.clip(
            response.base_activity + self._rng.normal(0, 0.05, self.num_users),
            self.config.engagement_min,
            self.config.engagement_max,
        )
        # Seed history with persona-consistent typical days.
        typical = self.city.demand_scale * self._engagement * response.base_activity
        noise = self._rng.normal(0, 0.1, (self.num_users, HISTORY_DAYS))
        self._order_history = np.maximum(0.0, typical[:, None] * (1.0 + noise))
        typical_hours = response.base_hours * self._engagement
        self._last_feedback = np.stack(
            [self._order_history[:, -1], typical_hours, np.ones(self.num_users)], axis=1
        )
        self._t = 0
        return self._build_states()

    def _build_states(self) -> np.ndarray:
        # Assembled into a reused scratch buffer; callers get a fresh copy.
        return self.featurizer.build_states(
            self.user_static,
            self.group_static,
            self._t,
            self._order_history,
            self._last_feedback,
            out=self._state_out,
        ).copy()

    def step(self, actions: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[str, Any]]:
        actions = self._validate_actions(actions)
        difficulty = np.clip(actions[:, 0], 0.0, 1.0)
        bonus = np.clip(actions[:, 1], 0.0, 1.0)

        feedback, completed = self.response.sample_feedback(
            self._engagement, difficulty, bonus, self._rng
        )
        orders = feedback[:, 0]
        cost = COST_RATE * bonus * orders
        rewards = orders - self.config.alpha1 * cost

        self._engagement = self.response.engagement_update(
            self._engagement, difficulty, completed
        )
        self._order_history = np.roll(self._order_history, -1, axis=1)
        self._order_history[:, -1] = orders
        self._last_feedback = feedback
        self._t += 1

        states = self._build_states()
        dones = np.full(self.num_users, self._t >= self.horizon)
        info = {
            "orders": orders,
            "cost": cost,
            "completed": completed,
            "engagement": self._engagement.copy(),
            "t": self._t,
        }
        return states, rewards, dones, info

    @classmethod
    def make_batch_stepper(cls, envs: List["DPRCityEnv"], slices: List[slice]):
        """Block-diagonal stepper for a VecEnvPool of homogeneous city envs.

        Returns None when batching is not applicable (mixed env types or
        horizons); the pool then falls back to per-env stepping.
        """
        if len(envs) < 2:
            return None
        if any(type(env) is not DPRCityEnv for env in envs):
            return None
        if len({env.horizon for env in envs}) != 1:
            return None
        return _DPRCityBatchStepper(envs, slices)


class _DPRCityBatchStepper:
    """Block-diagonal reset/step for a homogeneous list of :class:`DPRCityEnv`.

    All per-step arithmetic (completion probabilities, order/hour models,
    engagement updates, history rolls, state assembly) runs once over the
    stacked user axis; only the random draws loop over cities, each from
    that city's own generator, so every number — and every env's RNG
    stream — is bit-identical to stepping the envs one by one.

    While a stepper drives a pool, the member envs' mutable episode state
    (``_engagement`` etc.) is *not* written back; their RNGs do advance,
    so a later ``env.reset()`` is fully consistent with the sequential
    path.
    """

    def __init__(self, envs: List["DPRCityEnv"], slices: List[slice]):
        self.envs = envs
        self.slices = slices
        self.total = slices[-1].stop
        self.horizon = envs[0].horizon
        self.featurizer = envs[0].featurizer
        # One response object answering the shared formulas for the whole
        # stacked batch — the model constants live only in
        # GroundTruthResponse.
        self.response = GroundTruthResponse.from_stacked(
            [e.response for e in envs], slices
        )
        self.alpha1 = np.empty(self.total)
        for env, block in zip(envs, slices):
            self.alpha1[block] = env.config.alpha1
        self.user_static = np.concatenate([e.user_static for e in envs], axis=0)
        self.group_static = np.concatenate(
            [np.tile(e.group_static, (e.num_users, 1)) for e in envs], axis=0
        )
        self._engagement = np.ones(self.total)
        self._order_history = np.zeros((self.total, HISTORY_DAYS))
        self._last_feedback = np.zeros((self.total, FEEDBACK_DIM))
        self._state_out = np.empty((self.total, self.featurizer.state_dim))
        self._t = 0

    # ------------------------------------------------------------------
    def _build_states(self) -> np.ndarray:
        return self.featurizer.build_states(
            self.user_static,
            self.group_static,
            self._t,
            self._order_history,
            self._last_feedback,
            out=self._state_out,
        ).copy()

    def reset(self) -> np.ndarray:
        response = self.response
        eng_noise = np.empty(self.total)
        hist_noise = np.empty((self.total, HISTORY_DAYS))
        for env, block in zip(self.envs, self.slices):
            # Same draws, same order as DPRCityEnv.reset, per-city stream.
            eng_noise[block] = env._rng.normal(0, 0.05, env.num_users)
            hist_noise[block] = env._rng.normal(0, 0.1, (env.num_users, HISTORY_DAYS))
        self._engagement = np.clip(
            response.base_activity + eng_noise,
            response.engagement_min,
            response.engagement_max,
        )
        typical = response.demand_scale * self._engagement * response.base_activity
        self._order_history = np.maximum(0.0, typical[:, None] * (1.0 + hist_noise))
        typical_hours = response.base_hours * self._engagement
        self._last_feedback = np.stack(
            [self._order_history[:, -1], typical_hours, np.ones(self.total)], axis=1
        )
        self._t = 0
        return self._build_states()

    def step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict[str, Any]]]:
        response = self.response
        difficulty = np.clip(actions[:, 0], 0.0, 1.0)
        bonus = np.clip(actions[:, 1], 0.0, 1.0)

        # GroundTruthResponse.sample_feedback, with the draws split per
        # city stream (each block consumes completed → orders → hours in
        # the same order as the sequential env).
        p_complete = response.completion_probability(difficulty, bonus)
        completed = np.empty(self.total)
        for env, block in zip(self.envs, self.slices):
            completed[block] = (
                env._rng.random(env.num_users) < p_complete[block]
            ).astype(np.float64)
        orders_mean = response.expected_orders(
            self._engagement, difficulty, bonus, completed
        )
        orders_std = response.orders_noise_std(orders_mean)
        orders = np.empty(self.total)
        hours_noise = np.empty(self.total)
        for env, block in zip(self.envs, self.slices):
            orders[block] = env._rng.normal(orders_mean[block], orders_std[block])
            hours_noise[block] = env._rng.normal(0, 0.3, env.num_users)
        orders = np.maximum(0.0, orders)
        hours = np.maximum(0.0, response.base_hours * self._engagement + hours_noise)
        feedback = np.stack([orders, hours, completed], axis=1)

        cost = COST_RATE * bonus * orders
        rewards = orders - self.alpha1 * cost

        self._engagement = response.engagement_update(
            self._engagement, difficulty, completed
        )
        self._order_history = np.roll(self._order_history, -1, axis=1)
        self._order_history[:, -1] = orders
        self._last_feedback = feedback
        self._t += 1

        states = self._build_states()
        dones = np.full(self.total, self._t >= self.horizon)
        infos: List[Dict[str, Any]] = []
        for block in self.slices:
            infos.append(
                {
                    "orders": orders[block].copy(),
                    "cost": cost[block].copy(),
                    "completed": completed[block].copy(),
                    "engagement": self._engagement[block].copy(),
                    "t": self._t,
                }
            )
        return states, rewards, dones, infos


class DPRWorld:
    """The full multi-city world: generates cities, drivers and env instances."""

    def __init__(self, config: DPRConfig):
        self.config = config
        rng = make_rng(config.seed)
        self._rng = rng
        self.cities: List[CityProfile] = []
        self.personas: List[List[DriverPersona]] = []
        # Demand scales spread geometrically so cities differ in magnitude.
        scales = np.geomspace(
            config.demand_scale_low, config.demand_scale_high, config.num_cities
        )
        for city_id in range(config.num_cities):
            size = float(np.log(scales[city_id]) + rng.normal(0, 0.1))
            self.cities.append(
                CityProfile(city_id=city_id, demand_scale=float(scales[city_id]), city_size=size)
            )
            drivers = [
                DriverPersona(
                    tolerance=float(rng.uniform(0.25, 0.85)),
                    bonus_elasticity=float(rng.uniform(0.2, 1.5)),
                    base_activity=float(rng.uniform(0.6, 1.4)),
                    base_hours=float(rng.uniform(4.0, 10.0)),
                )
                for _ in range(config.drivers_per_city)
            ]
            self.personas.append(drivers)

    @property
    def num_cities(self) -> int:
        return self.config.num_cities

    def make_city_env(self, city_index: int, seed: Optional[int] = None) -> DPRCityEnv:
        if seed is None:
            base = self.config.seed or 0
            seed = base + 10_000 + city_index
        return DPRCityEnv(
            self.cities[city_index],
            self.personas[city_index],
            self.config,
            seed=seed,
        )

    def make_all_city_envs(self, seed_offset: int = 0) -> List[DPRCityEnv]:
        return [
            self.make_city_env(i, seed=(self.config.seed or 0) + 10_000 + i + seed_offset)
            for i in range(self.num_cities)
        ]
