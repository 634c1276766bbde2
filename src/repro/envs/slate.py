"""SlateRec — a RecSim-style slate recommendation world with churn.

The third first-class environment family (after LTS and DPR), covering
the scenario axes the RecSim line of work defines (Zhao et al., "Toward
Simulating Environments in RL Based Recommendations"; the Choc/Kale
interest-evolution tutorial environment): **slate choice models**,
**interest evolution**, **boredom/novelty dynamics** and **stochastic
churn/return** as the long-term engagement signal.

Each step the recommender presents every user a K-item slate; an item is
described by one attribute ``a ∈ [0, 1]`` (its clickbaitiness — the same
Choc/Kale axis as the LTS world), so the action is the slate's attribute
vector ``[K]`` per user. The user picks at most one item through a
multinomial-logit choice model over the K items plus a no-click option:

    z_k   = (appeal · match_k + click_pull · a_k − b · familiar_k) / temp
    z_∅   = null_utility / temp
    p     = softmax([z_1 .. z_K, z_∅])

where ``match_k = 1 − |a_k − ι|`` scores the item against the user's
*interest centre* ι, ``familiar_k = 1 − |a_k − m|`` scores it against the
recent-consumption memory m, and b is the user's *boredom* level — a
bored user discounts items similar to what they recently consumed
(novelty seeking).

Consuming an item a* evolves the latent user state:

    ι  ← ι + λ_ι (a* − ι)                    (interest drifts toward content)
    m  ← m + λ_m (a* − m)                    (recency memory)
    b  ← δ_b b + g_b · familiar(a*)          (boredom builds on repetition)
    NPE ← γ NPE − 2 (a* − 0.5)               (net positive exposure, as in LTS)
    SAT = sigmoid(h · NPE − w_b · b)         (satisfaction, eroded by boredom)

Engagement (the per-step reward) mirrors the LTS construction —
``engagement ~ N((a* μ_c + (1−a*) μ_k) · SAT, σ)`` for the clicked item,
0 otherwise — and **churn** makes engagement long-term: an active user
leaves with probability ``churn_base · (1 − SAT)`` per step, a churned
user contributes nothing until they stochastically return. Myopically
clickbaity slates buy engagement now, erode SAT, and lose the user.

Environment parameters follow the LTS convention so transfer tasks and
SADAE identification carry over: the group parameter μ_c is shifted by
ω_g per environment, the per-user μ_k by ω_u (scalar or ~U(−β, β)), and
the observation carries a noisy group channel ``o ~ N(μ_c, σ_o²)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..utils.seeding import make_rng
from .base import MultiUserEnv
from .spaces import Box

MU_CLICK_REAL = 10.0  # μ_c,r: engagement scale of fully clickbaity content
MU_KALE_REAL = 4.0    # μ_k,r: engagement scale of fully nutritious content


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.maximum(x, -60.0)))


# The SlateConfig constants read by the choice model, the engagement draw
# and the user transition. The batch stepper holds each one as per-user
# rows, so envs with different values still step as one stacked batch.
_ROW_CONSTANTS = (
    "appeal",
    "click_pull",
    "temperature",
    "null_utility",
    "sigma_engagement",
    "interest_lr",
    "recency_lr",
    "boredom_decay",
    "boredom_gain",
    "boredom_weight",
    "churn_base",
    "return_prob",
)


@dataclass
class SlateConfig:
    """Static configuration of a SlateRec environment instance."""

    num_users: int = 50
    horizon: int = 30
    slate_size: int = 5
    omega_g: float = 0.0
    omega_u: float = 0.0  # scalar shift, or use omega_u_range for per-user draws
    omega_u_range: Optional[float] = None  # β: draw ω_u ~ U(−β, β) per user
    # choice model
    temperature: float = 0.4
    null_utility: float = 0.3
    appeal: float = 1.0            # weight of the interest-match term
    click_pull: float = 0.6        # direct pull of clickbaity items
    # interest evolution / boredom
    interest_low: float = 0.2      # ι₀ ~ U(low, high) per user
    interest_high: float = 0.8
    interest_lr: float = 0.05      # λ_ι
    recency_lr: float = 0.5        # λ_m
    boredom_decay: float = 0.8     # δ_b
    boredom_gain: float = 0.4      # g_b
    boredom_weight: float = 1.5    # w_b (SAT erosion per unit boredom)
    # engagement + satisfaction (LTS-style)
    sigma_engagement: float = 1.0
    sensitivity_low: float = 0.05  # h ~ U(low, high)
    sensitivity_high: float = 0.15
    memory_discount_low: float = 0.85  # γ ~ U(low, high)
    memory_discount_high: float = 0.95
    # churn / return
    churn_base: float = 0.08
    return_prob: float = 0.2
    observation_noise_std: float = 2.0  # std of o ~ N(μ_c, σ_o²)
    seed: Optional[int] = None

    @property
    def mu_click(self) -> float:
        return MU_CLICK_REAL + self.omega_g

    @property
    def mu_kale(self) -> float:
        return MU_KALE_REAL + self.omega_u

    def validate(self) -> None:
        if self.num_users < 1:
            raise ValueError(
                f"SlateConfig.num_users must be >= 1, got {self.num_users}"
            )
        if self.horizon < 1:
            raise ValueError(f"SlateConfig.horizon must be >= 1, got {self.horizon}")
        if self.slate_size < 1:
            raise ValueError(
                f"SlateConfig.slate_size must be >= 1, got {self.slate_size}"
            )


class SlateRecEnv(MultiUserEnv):
    """Multi-user slate recommendation environment (one group).

    Users in one instance share the group parameter μ_c (hence ω_g);
    user-level heterogeneity comes from the h, γ, ι₀ draws and the
    optional per-user ω_u shift of μ_k. The observed state per user is
    ``[SAT, active, m, o]`` with ``o ~ N(μ_c, σ_o²)`` the noisy group
    observation; interest ι and boredom b stay latent.
    """

    STATE_DIM = 4  # [SAT, active, m, o]

    def __init__(self, config: SlateConfig):
        config.validate()
        self.config = config
        self.num_users = config.num_users
        self.horizon = config.horizon
        self.group_id = float(config.omega_g)
        self.observation_space = Box(
            low=np.array([0.0, 0.0, 0.0, -np.inf]),
            high=np.array([1.0, 1.0, 1.0, np.inf]),
        )
        k = config.slate_size
        self.action_space = Box(low=np.zeros(k), high=np.ones(k))
        self._rng = make_rng(config.seed)
        self._init_users()
        self._t = 0
        self._reset_mutable_state()

    def _init_users(self) -> None:
        cfg = self.config
        n = self.num_users
        self.sensitivity = self._rng.uniform(cfg.sensitivity_low, cfg.sensitivity_high, n)
        self.memory_discount = self._rng.uniform(
            cfg.memory_discount_low, cfg.memory_discount_high, n
        )
        self.interest0 = self._rng.uniform(cfg.interest_low, cfg.interest_high, n)
        if cfg.omega_u_range is not None:
            omega_u = self._rng.uniform(-cfg.omega_u_range, cfg.omega_u_range, n)
        else:
            omega_u = np.full(n, cfg.omega_u)
        self.mu_kale_users = MU_KALE_REAL + omega_u
        self.mu_click = cfg.mu_click

    def resample_user_gaps(self) -> None:
        """Redraw per-user ω_u (the unlimited-user simulators setting)."""
        cfg = self.config
        if cfg.omega_u_range is None:
            return
        omega_u = self._rng.uniform(-cfg.omega_u_range, cfg.omega_u_range, self.num_users)
        self.mu_kale_users = MU_KALE_REAL + omega_u

    def _reset_mutable_state(self) -> None:
        n = self.num_users
        self._npe = np.zeros(n)
        self._boredom = np.zeros(n)
        self._interest = self.interest0.copy()
        self._recent = self.interest0.copy()
        self._active = np.ones(n)
        self._sat = _sigmoid(self.sensitivity * self._npe)

    # ------------------------------------------------------------------
    def _observe(self) -> np.ndarray:
        noise = self._rng.normal(0.0, self.config.observation_noise_std, self.num_users)
        return np.stack(
            [self._sat, self._active, self._recent, self.mu_click + noise], axis=1
        )

    def reset(self) -> np.ndarray:
        self._t = 0
        self._reset_mutable_state()
        return self._observe()

    def step(self, actions: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[str, Any]]:
        actions = self._validate_actions(actions)
        slates = np.clip(actions, 0.0, 1.0)  # [n, K]
        cfg = self.config

        choice_draw = self._rng.random(self.num_users)
        engagement_noise = self._rng.standard_normal(self.num_users)
        churn_draw = self._rng.random(self.num_users)

        chosen, clicked = _choose_items(
            slates,
            self._interest,
            self._recent,
            self._boredom,
            self._active,
            cfg,
            choice_draw,
        )
        mu_t = (chosen * self.mu_click + (1.0 - chosen) * self.mu_kale_users) * self._sat
        engagement = clicked * np.maximum(
            0.0, mu_t + cfg.sigma_engagement * engagement_noise
        )

        (
            self._npe,
            self._sat,
            self._boredom,
            self._interest,
            self._recent,
            self._active,
        ) = _update_users(
            chosen,
            clicked,
            self._npe,
            self._boredom,
            self._interest,
            self._recent,
            self._active,
            self.sensitivity,
            self.memory_discount,
            cfg,
            churn_draw,
        )
        self._t += 1

        states = self._observe()
        rewards = engagement
        dones = np.full(self.num_users, self._t >= self.horizon)
        info = {
            "engagement_mean": mu_t * clicked,
            "sat": self._sat.copy(),
            "boredom": self._boredom.copy(),
            "active": self._active.copy(),
            "clicked": clicked,
            "t": self._t,
        }
        return states, rewards, dones, info

    # ------------------------------------------------------------------
    def choice_probabilities(self, slates: np.ndarray) -> np.ndarray:
        """MNL probabilities [n, K+1] (last column: no click) at the
        current latent state — exposed for oracle computations in tests."""
        slates = np.clip(np.asarray(slates, dtype=np.float64), 0.0, 1.0)
        return _choice_probabilities(
            slates, self._interest, self._recent, self._boredom, self.config
        )

    @classmethod
    def make_batch_stepper(cls, envs: List["SlateRecEnv"], slices: List[slice]):
        """Block-diagonal stepper for a VecEnvPool of homogeneous slate envs.

        Members may differ in every environment parameter (ω_g, ω_u,
        choice-model constants, user draws, ...) but must all be plain
        :class:`SlateRecEnv` instances sharing one horizon and one slate
        size so the whole batch terminates simultaneously and stacks on
        the action axis (the pool contract for native steppers). Returns
        None otherwise; the pool then falls back to per-env stepping.
        """
        if len(envs) < 2:
            return None
        if any(type(env) is not SlateRecEnv for env in envs):
            return None
        if len({env.horizon for env in envs}) != 1:
            return None
        if len({env.config.slate_size for env in envs}) != 1:
            return None
        return _SlateBatchStepper(envs, slices)


def _column(value):
    """A per-user ``[n]`` constant as an ``[n, 1]`` column; scalars as is."""
    return value[:, None] if isinstance(value, np.ndarray) else value


def _choice_probabilities(
    slates: np.ndarray,
    interest: np.ndarray,
    recent: np.ndarray,
    boredom: np.ndarray,
    cfg: SlateConfig,
) -> np.ndarray:
    """Softmax over the K slate items plus the no-click option, [n, K+1].

    ``cfg`` holds the choice-model constants either as one env's scalars
    or as the batch stepper's per-user rows, which broadcast as columns,
    so every user's arithmetic is identical either way.
    """
    match = 1.0 - np.abs(slates - interest[:, None])
    familiar = 1.0 - np.abs(slates - recent[:, None])
    temperature = _column(cfg.temperature)
    logits = np.empty((slates.shape[0], slates.shape[1] + 1))
    np.divide(
        _column(cfg.appeal) * match
        + _column(cfg.click_pull) * slates
        - boredom[:, None] * familiar,
        temperature,
        out=logits[:, :-1],
    )
    logits[:, -1:] = _column(cfg.null_utility) / temperature
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    return exp / exp.sum(axis=1, keepdims=True)


def _choose_items(
    slates: np.ndarray,
    interest: np.ndarray,
    recent: np.ndarray,
    boredom: np.ndarray,
    active: np.ndarray,
    cfg: Any,
    choice_draw: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One MNL choice per user: (chosen attribute [n], clicked flag [n]).

    Inactive (churned) users never click; their draw is still consumed so
    the per-env RNG stream advances identically whatever the churn state.
    """
    probs = _choice_probabilities(slates, interest, recent, boredom, cfg)
    cumulative = np.cumsum(probs, axis=1)
    index = (choice_draw[:, None] >= cumulative).sum(axis=1)  # in [0, K]
    clicked = (index < slates.shape[1]) & (active > 0.0)
    rows = np.arange(slates.shape[0])
    chosen = np.where(clicked, slates[rows, np.minimum(index, slates.shape[1] - 1)], 0.0)
    return chosen, clicked.astype(np.float64)


def _update_users(
    chosen: np.ndarray,
    clicked: np.ndarray,
    npe: np.ndarray,
    boredom: np.ndarray,
    interest: np.ndarray,
    recent: np.ndarray,
    active: np.ndarray,
    sensitivity: np.ndarray,
    memory_discount: np.ndarray,
    cfg: Any,
    churn_draw: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """Latent-state transition shared by the env and the batch stepper.

    ``cfg`` holds the transition constants as one env's scalars or as
    the stepper's per-user rows; the arithmetic is elementwise either way.
    """
    familiar = clicked * (1.0 - np.abs(chosen - recent))
    boredom = cfg.boredom_decay * boredom + cfg.boredom_gain * familiar
    interest = interest + cfg.interest_lr * clicked * (chosen - interest)
    recent = recent + cfg.recency_lr * clicked * (chosen - recent)
    # NPE: consumption moves it as in LTS; idle (no-click or churned)
    # users' exposure decays toward neutral — rest recovers satisfaction.
    npe = memory_discount * npe - 2.0 * clicked * (chosen - 0.5)
    sat = _sigmoid(sensitivity * npe - cfg.boredom_weight * boredom)
    # Churn/return: one uniform draw per user per step, interpreted by
    # the user's current side of the active flag.
    p_churn = cfg.churn_base * (1.0 - sat)
    leaves = (active > 0.0) & (churn_draw < p_churn)
    returns = (active <= 0.0) & (churn_draw < cfg.return_prob)
    active = np.where(leaves, 0.0, np.where(returns, 1.0, active))
    return npe, sat, boredom, interest, recent, active


class _SlateBatchStepper:
    """Block-diagonal reset/step for a homogeneous list of :class:`SlateRecEnv`.

    The per-env constants the dynamics read — the user draws, μ_c and the
    :data:`_ROW_CONSTANTS` of each env's :class:`SlateConfig` — are held
    as per-user rows, so the choice model, the engagement means and the
    latent-state update run once over the stacked user axis even when
    every env has its own temperature, churn rate, ... Only the random
    draws — choice, engagement noise, churn, and the group observation
    noise — loop over member envs, each consuming that env's own
    generator with exactly the shapes and order of the sequential
    :meth:`SlateRecEnv.step` / ``_observe``. All arithmetic is
    elementwise or per row, so every number and every env's RNG stream is
    bit-identical to stepping the envs one by one.

    Member envs' mutable episode state is *not* written back while the
    stepper drives a pool; their RNGs do advance, so a later
    ``env.reset()`` is fully consistent with the sequential path.
    Per-user parameters are re-read on every :meth:`reset` so
    ``resample_user_gaps`` between episodes is honoured.
    """

    def __init__(self, envs: List["SlateRecEnv"], slices: List[slice]):
        self.envs = envs
        self.slices = slices
        self.total = slices[-1].stop
        self.horizon = envs[0].horizon
        self.slate_size = envs[0].config.slate_size
        # Per-user rows of the per-env parameters; refreshed in reset().
        self.sensitivity = np.empty(self.total)
        self.memory_discount = np.empty(self.total)
        self.mu_kale_users = np.empty(self.total)
        self.mu_click = np.empty(self.total)
        self.interest0 = np.empty(self.total)
        self.constants = SimpleNamespace(
            **{name: np.empty(self.total) for name in _ROW_CONSTANTS}
        )
        self._t = 0

    def _refresh_parameters(self) -> None:
        for env, block in zip(self.envs, self.slices):
            self.sensitivity[block] = env.sensitivity
            self.memory_discount[block] = env.memory_discount
            self.mu_kale_users[block] = env.mu_kale_users
            self.mu_click[block] = env.mu_click
            self.interest0[block] = env.interest0
            for name in _ROW_CONSTANTS:
                getattr(self.constants, name)[block] = getattr(env.config, name)

    def _observe(self) -> np.ndarray:
        noise = np.empty(self.total)
        for env, block in zip(self.envs, self.slices):
            # Same draw, same order as SlateRecEnv._observe, per-env stream.
            noise[block] = env._rng.normal(
                0.0, env.config.observation_noise_std, env.num_users
            )
        return np.stack(
            [self._sat, self._active, self._recent, self.mu_click + noise], axis=1
        )

    def reset(self) -> np.ndarray:
        self._refresh_parameters()
        self._t = 0
        self._npe = np.zeros(self.total)
        self._boredom = np.zeros(self.total)
        self._interest = self.interest0.copy()
        self._recent = self.interest0.copy()
        self._active = np.ones(self.total)
        self._sat = _sigmoid(self.sensitivity * self._npe)
        return self._observe()

    def step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict[str, Any]]]:
        slates = np.clip(actions, 0.0, 1.0)
        constants = self.constants

        choice_draw = np.empty(self.total)
        engagement_noise = np.empty(self.total)
        churn_draw = np.empty(self.total)
        for env, block in zip(self.envs, self.slices):
            # Same three draws, same order as SlateRecEnv.step.
            choice_draw[block] = env._rng.random(env.num_users)
            engagement_noise[block] = env._rng.standard_normal(env.num_users)
            churn_draw[block] = env._rng.random(env.num_users)

        chosen, clicked = _choose_items(
            slates,
            self._interest,
            self._recent,
            self._boredom,
            self._active,
            constants,
            choice_draw,
        )
        mu_t = (chosen * self.mu_click + (1.0 - chosen) * self.mu_kale_users) * self._sat
        engagement = clicked * np.maximum(
            0.0, mu_t + constants.sigma_engagement * engagement_noise
        )
        (
            self._npe,
            self._sat,
            self._boredom,
            self._interest,
            self._recent,
            self._active,
        ) = _update_users(
            chosen,
            clicked,
            self._npe,
            self._boredom,
            self._interest,
            self._recent,
            self._active,
            self.sensitivity,
            self.memory_discount,
            constants,
            churn_draw,
        )
        self._t += 1

        states = self._observe()
        dones = np.full(self.total, self._t >= self.horizon)
        infos: List[Dict[str, Any]] = []
        for block in self.slices:
            infos.append(
                {
                    "engagement_mean": mu_t[block] * clicked[block],
                    "sat": self._sat[block].copy(),
                    "boredom": self._boredom[block].copy(),
                    "active": self._active[block].copy(),
                    "clicked": clicked[block].copy(),
                    "t": self._t,
                }
            )
        return states, engagement, dones, infos
