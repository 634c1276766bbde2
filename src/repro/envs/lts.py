"""The long-term satisfaction (Choc/Kale) environment from Google RecSim.

Re-implementation of the synthetic dynamics described in Sec. V-B1 of the
Sim2Rec paper. A recommender sends content with a clickbaitiness score
``a ∈ [0, 1]`` to each user; engagement is drawn from

    engagement_t ~ N(μ_t, σ_t²)
    μ_t = (a μ_c + (1 - a) μ_k) · SAT_t
    σ_t = a σ_c + (1 - a) σ_k

where SAT is the long-term satisfaction driven by net positive exposure:

    NPE_t = γ_n NPE_{t-1} - 2 (a_t - 0.5)
    SAT_t = sigmoid(h_s · NPE_t)

High clickbaitiness (``a → 1``, "Choc") yields large immediate engagement
(μ_c > μ_k) but erodes satisfaction; low clickbaitiness ("Kale") builds
satisfaction at the cost of immediate engagement. The observed state per user
is ``[SAT_t, o]`` with ``o ~ N(μ_c, 4)`` a noisy group observation; the
user feedback ``y`` is SAT_{t+1}.

Environment parameters follow the paper's construction:

    u = [σ_c, σ_k, h_s, γ_n, μ_k]  (user features)
    g = [μ_c]                      (group feature)
    F_ωu(u) = [σ_c, σ_k, h_s, γ_n, μ_k,r + ω_u]
    F_ωg(g) = [μ_c,r + ω_g],   μ_c,r = 14,  μ_k,r = 4

so a simulator variant is identified by ω = [ω_u, ω_g] and the "real"
deployment environment is ω* = [0, 0].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..utils.seeding import make_rng
from .base import MultiUserEnv
from .spaces import Box

MU_C_REAL = 14.0
MU_K_REAL = 4.0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.maximum(x, -60.0)))


@dataclass
class LTSConfig:
    """Static configuration of an LTS environment instance."""

    num_users: int = 100
    horizon: int = 140
    omega_g: float = 0.0
    omega_u: float = 0.0  # scalar shift, or use omega_u_range for per-user draws
    omega_u_range: Optional[float] = None  # β: draw ω_u ~ U(-β, β) per user
    sigma_c: float = 1.0
    sigma_k: float = 1.0
    sensitivity_low: float = 0.05  # h_s ~ U(low, high)
    sensitivity_high: float = 0.15
    memory_discount_low: float = 0.85  # γ_n ~ U(low, high)
    memory_discount_high: float = 0.95
    observation_noise_std: float = 2.0  # std of o ~ N(μ_c, 4)
    seed: Optional[int] = None

    @property
    def mu_c(self) -> float:
        return MU_C_REAL + self.omega_g

    @property
    def mu_k(self) -> float:
        return MU_K_REAL + self.omega_u


class LTSEnv(MultiUserEnv):
    """Multi-user long-term satisfaction environment.

    All users in one instance share the group parameter μ_c (and hence
    ``omega_g``); user-level heterogeneity comes from h_s, γ_n draws and the
    optional per-user ω_u shift of μ_k.
    """

    STATE_DIM = 2  # [SAT_t, o]

    def __init__(self, config: LTSConfig):
        self.config = config
        self.num_users = config.num_users
        self.horizon = config.horizon
        self.group_id = float(config.omega_g)
        self.observation_space = Box(
            low=np.array([0.0, -np.inf]), high=np.array([1.0, np.inf])
        )
        self.action_space = Box(low=np.array([0.0]), high=np.array([1.0]))
        self._rng = make_rng(config.seed)
        self._init_users()
        self._t = 0
        self._npe: np.ndarray = np.zeros(self.num_users)
        self._sat: np.ndarray = np.full(self.num_users, 0.5)

    def _init_users(self) -> None:
        cfg = self.config
        n = self.num_users
        self.sensitivity = self._rng.uniform(cfg.sensitivity_low, cfg.sensitivity_high, n)
        self.memory_discount = self._rng.uniform(
            cfg.memory_discount_low, cfg.memory_discount_high, n
        )
        if cfg.omega_u_range is not None:
            omega_u = self._rng.uniform(-cfg.omega_u_range, cfg.omega_u_range, n)
        else:
            omega_u = np.full(n, cfg.omega_u)
        self.mu_k_users = MU_K_REAL + omega_u
        self.mu_c = cfg.mu_c

    def resample_user_gaps(self) -> None:
        """Redraw per-user ω_u (the "unlimited-user simulators" setting of Fig. 7)."""
        cfg = self.config
        if cfg.omega_u_range is None:
            return
        omega_u = self._rng.uniform(-cfg.omega_u_range, cfg.omega_u_range, self.num_users)
        self.mu_k_users = MU_K_REAL + omega_u

    # ------------------------------------------------------------------
    def _observe(self) -> np.ndarray:
        noise = self._rng.normal(0.0, self.config.observation_noise_std, self.num_users)
        return np.stack([self._sat, self.mu_c + noise], axis=1)

    def reset(self) -> np.ndarray:
        self._t = 0
        self._npe = np.zeros(self.num_users)
        self._sat = _sigmoid(self.sensitivity * self._npe)
        return self._observe()

    def step(self, actions: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[str, Any]]:
        actions = self._validate_actions(actions)
        a = np.clip(actions[:, 0], 0.0, 1.0)
        cfg = self.config

        mu_t = (a * self.mu_c + (1.0 - a) * self.mu_k_users) * self._sat
        sigma_t = a * cfg.sigma_c + (1.0 - a) * cfg.sigma_k
        engagement = self._rng.normal(mu_t, np.maximum(sigma_t, 1e-8))

        self._npe = self.memory_discount * self._npe - 2.0 * (a - 0.5)
        self._sat = _sigmoid(self.sensitivity * self._npe)
        self._t += 1

        states = self._observe()
        rewards = engagement
        dones = np.full(self.num_users, self._t >= self.horizon)
        info = {
            "engagement_mean": mu_t,
            "sat": self._sat.copy(),
            "npe": self._npe.copy(),
            "t": self._t,
        }
        return states, rewards, dones, info

    # ------------------------------------------------------------------
    @classmethod
    def make_batch_stepper(cls, envs: List["LTSEnv"], slices: List[slice]):
        """Block-diagonal stepper for a VecEnvPool of homogeneous LTS envs.

        The counterpart of :meth:`repro.envs.dpr.DPRCityEnv.make_batch_stepper`
        for the LTS world: member groups may differ in every environment
        parameter (ω_g, ω_u, σ_c/σ_k, sensitivity draws, ...) because the
        stepper stacks them to per-user rows, but they must all be plain
        :class:`LTSEnv` instances sharing one horizon so the whole batch
        terminates simultaneously (the pool contract for native steppers).
        Returns None otherwise; the pool then falls back to per-env
        stepping.
        """
        if len(envs) < 2:
            return None
        if any(type(env) is not LTSEnv for env in envs):
            return None
        if len({env.horizon for env in envs}) != 1:
            return None
        return _LTSBatchStepper(envs, slices)


class _LTSBatchStepper:
    """Block-diagonal reset/step for a homogeneous list of :class:`LTSEnv`.

    All satisfaction dynamics (NPE recursion, SAT sigmoid, engagement
    means) run once over the stacked user axis; only the random draws —
    per-step engagement noise and the group observation noise — loop over
    member envs, each consuming that env's own generator with exactly the
    shapes and order of the sequential :meth:`LTSEnv.step` /
    :meth:`LTSEnv._observe`, so every number and every env's RNG stream
    is bit-identical to stepping the envs one by one.

    Member envs' mutable episode state (``_npe``, ``_sat``, ``_t``) is
    *not* written back while the stepper drives a pool; their RNGs do
    advance, so a later ``env.reset()`` is fully consistent with the
    sequential path. Per-user parameters are re-read on every
    :meth:`reset` so ``resample_user_gaps`` between episodes is honoured.
    """

    def __init__(self, envs: List["LTSEnv"], slices: List[slice]):
        self.envs = envs
        self.slices = slices
        self.total = slices[-1].stop
        self.horizon = envs[0].horizon
        # Per-user rows of the per-env scalars; refreshed in reset().
        self.sigma_c = np.empty(self.total)
        self.sigma_k = np.empty(self.total)
        self.mu_c = np.empty(self.total)
        self.sensitivity = np.empty(self.total)
        self.memory_discount = np.empty(self.total)
        self.mu_k_users = np.empty(self.total)
        self._npe = np.zeros(self.total)
        self._sat = np.full(self.total, 0.5)
        self._t = 0

    def _refresh_parameters(self) -> None:
        for env, block in zip(self.envs, self.slices):
            self.sigma_c[block] = env.config.sigma_c
            self.sigma_k[block] = env.config.sigma_k
            self.mu_c[block] = env.mu_c
            self.sensitivity[block] = env.sensitivity
            self.memory_discount[block] = env.memory_discount
            self.mu_k_users[block] = env.mu_k_users

    def _observe(self) -> np.ndarray:
        noise = np.empty(self.total)
        for env, block in zip(self.envs, self.slices):
            # Same draw, same order as LTSEnv._observe, per-env stream.
            noise[block] = env._rng.normal(
                0.0, env.config.observation_noise_std, env.num_users
            )
        return np.stack([self._sat, self.mu_c + noise], axis=1)

    def reset(self) -> np.ndarray:
        self._refresh_parameters()
        self._t = 0
        self._npe = np.zeros(self.total)
        self._sat = _sigmoid(self.sensitivity * self._npe)
        return self._observe()

    def step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict[str, Any]]]:
        a = np.clip(actions[:, 0], 0.0, 1.0)

        mu_t = (a * self.mu_c + (1.0 - a) * self.mu_k_users) * self._sat
        sigma_t = np.maximum(a * self.sigma_c + (1.0 - a) * self.sigma_k, 1e-8)
        engagement = np.empty(self.total)
        for env, block in zip(self.envs, self.slices):
            engagement[block] = env._rng.normal(mu_t[block], sigma_t[block])

        self._npe = self.memory_discount * self._npe - 2.0 * (a - 0.5)
        self._sat = _sigmoid(self.sensitivity * self._npe)
        self._t += 1

        states = self._observe()
        dones = np.full(self.total, self._t >= self.horizon)
        infos: List[Dict[str, Any]] = []
        for block in self.slices:
            infos.append(
                {
                    "engagement_mean": mu_t[block],
                    "sat": self._sat[block].copy(),
                    "npe": self._npe[block].copy(),
                    "t": self._t,
                }
            )
        return states, engagement, dones, infos


def oracle_constant_policy_return(
    env: LTSEnv, a: float, gamma: float = 1.0
) -> float:
    """Expected (discounted) per-user return of the constant policy a_t = a.

    Used by tests and the Upper Bound computation: with a constant action the
    NPE recursion has the closed form
    ``NPE_t = -2 (a - 0.5) (1 - γ_n^t) / (1 - γ_n)``.
    """
    n = env.num_users
    npe = np.zeros(n)
    sat = _sigmoid(env.sensitivity * npe)
    total = np.zeros(n)
    discount = 1.0
    for _ in range(env.horizon):
        mu_t = (a * env.mu_c + (1.0 - a) * env.mu_k_users) * sat
        total += discount * mu_t
        npe = env.memory_discount * npe - 2.0 * (a - 0.5)
        sat = _sigmoid(env.sensitivity * npe)
        discount *= gamma
    return float(total.mean())
