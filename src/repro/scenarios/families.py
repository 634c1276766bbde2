"""Built-in scenario families: ``lts``, ``dpr`` and ``slate``.

Each family wraps the corresponding world in :mod:`repro.envs` behind
the registry protocol, making the whole population — training simulator
set plus held-out target environment — buildable from a pure config
dict. The hand-wired constructors (:func:`repro.envs.make_lts_task`,
:class:`repro.envs.DPRWorld`) remain as thin construction helpers; the
scenario layer is the first-class entry point that sizes, seeds and
parameterises them declaratively.
"""

from __future__ import annotations

import numpy as np

from ..envs.dpr import DPRConfig, DPRWorld
from ..envs.lts import LTSEnv
from ..envs.lts_tasks import make_lts_task
from ..envs.slate import SlateConfig, SlateRecEnv
from .registry import Scenario, ScenarioSpec, register_scenario

LTS_DEFAULTS = {
    "task": "LTS3",
    "beta": None,
    "num_users": 100,
    "horizon": 140,
    "observation_noise_std": 2.0,
    "sensitivity_range": (0.05, 0.15),
    "memory_discount_range": (0.85, 0.95),
    # Fig. 7's unlimited-user simulators: redraw per-user gaps ω_u on
    # every draw of a training simulator (a no-op without beta).
    "resample_users": False,
}


@register_scenario(
    "lts",
    description="Long-term satisfaction (Choc/Kale) transfer tasks, Sec. V-B1",
    defaults=LTS_DEFAULTS,
)
def build_lts_scenario(spec: ScenarioSpec) -> Scenario:
    params = spec.params
    resample_users = params["resample_users"]
    if not isinstance(resample_users, bool):
        raise ValueError(
            f"scenario 'lts': resample_users must be true or false, got "
            f"{resample_users!r}"
        )
    task = make_lts_task(
        params["task"],
        beta=params["beta"],
        num_users=params["num_users"],
        horizon=params["horizon"],
        seed=spec.seed,
        observation_noise_std=params["observation_noise_std"],
        sensitivity_range=tuple(params["sensitivity_range"]),
        memory_discount_range=tuple(params["memory_discount_range"]),
    )
    return Scenario(
        spec,
        num_train_envs=task.num_simulators,
        state_dim=LTSEnv.STATE_DIM,
        action_dim=1,
        make_train_env=task.make_train_env,
        make_target_env=lambda seed_offset=0: task.make_target_env(seed_offset),
        resample_users=resample_users,
        # The paper draws SADAE's state dataset D from the simulator set
        # itself: the corpus envs are fresh copies of the training envs.
        corpus_seed_offset=0,
    )


DPR_DEFAULTS = {
    "num_cities": 5,
    "drivers_per_city": 50,
    "horizon": 30,
    "alpha1": 1.0,
    "demand_scale_low": 0.5,
    "demand_scale_high": 4.0,
    "target_city": None,  # defaults to the middle city
}


@register_scenario(
    "dpr",
    description="Driver-program recommendation: multi-city ride-hailing world",
    defaults=DPR_DEFAULTS,
)
def build_dpr_scenario(spec: ScenarioSpec) -> Scenario:
    params = spec.params
    world = DPRWorld(
        DPRConfig(
            num_cities=params["num_cities"],
            drivers_per_city=params["drivers_per_city"],
            horizon=params["horizon"],
            alpha1=params["alpha1"],
            demand_scale_low=params["demand_scale_low"],
            demand_scale_high=params["demand_scale_high"],
            seed=spec.seed,
        )
    )
    target_city = params["target_city"]
    if target_city is None:
        target_city = world.num_cities // 2
    if (
        isinstance(target_city, bool)
        or not isinstance(target_city, int)
        or not 0 <= target_city < world.num_cities
    ):
        raise ValueError(
            f"scenario 'dpr': target_city must be an integer in "
            f"[0, {world.num_cities}), got {target_city!r}"
        )
    # Genuinely held out: the target city never appears in the training
    # population (the same hold-out convention as the lts/slate gap).
    train_cities = [city for city in range(world.num_cities) if city != target_city]
    if not train_cities:
        raise ValueError(
            "scenario 'dpr': num_cities=1 leaves no training city once the "
            "target city is held out; use num_cities >= 2"
        )
    base_seed = spec.seed + 10_000

    def make_train_env(index: int, seed_offset: int = 0):
        city = train_cities[index % len(train_cities)]
        return world.make_city_env(city, seed=base_seed + index + seed_offset)

    def make_target_env(seed_offset: int = 0):
        return world.make_city_env(target_city, seed=spec.seed + 777 + seed_offset)

    return Scenario(
        spec,
        num_train_envs=len(train_cities),
        state_dim=world.make_city_env(0).observation_dim,
        action_dim=2,
        make_train_env=make_train_env,
        make_target_env=make_target_env,
    )


SLATE_DEFAULTS = {
    "num_envs": 8,
    "num_users": 50,
    "horizon": 30,
    "slate_size": 5,
    # Hidden-parameter distribution of the training population: per-env
    # group shifts ω_g ~ U([low, -gap] ∪ [gap, high]) — the target env
    # sits at ω_g = 0, at least `min_gap` away from every simulator.
    "omega_g_low": -6.0,
    "omega_g_high": 6.0,
    "min_gap": 2.0,
    "beta": None,  # per-user ω_u ~ U(−β, β)
    "temperature": 0.4,
    "null_utility": 0.3,
    "appeal": 1.0,
    "click_pull": 0.6,
    "interest_lr": 0.05,
    "recency_lr": 0.5,
    "boredom_decay": 0.8,
    "boredom_gain": 0.4,
    "boredom_weight": 1.5,
    "churn_base": 0.08,
    "return_prob": 0.2,
    "observation_noise_std": 2.0,
}


def _draw_omega_gs(
    rng: np.random.Generator, count: int, low: float, high: float, gap: float
) -> np.ndarray:
    """ω_g draws from U([low, −gap] ∪ [gap, high]) — the gapped support."""
    if low >= high:
        raise ValueError(f"omega_g_low {low} must be < omega_g_high {high}")
    gap = abs(gap)
    left_len = max(0.0, min(-gap, high) - low)
    right_len = max(0.0, high - max(gap, low))
    total = left_len + right_len
    if total <= 0.0:
        raise ValueError(
            f"no admissible ω_g mass in [{low}, {high}] with min_gap {gap}"
        )
    u = rng.random(count) * total
    return np.where(u < left_len, low + u, max(gap, low) + (u - left_len))


@register_scenario(
    "slate",
    description="RecSim-style K-item slate world: MNL choice, boredom, churn",
    defaults=SLATE_DEFAULTS,
)
def build_slate_scenario(spec: ScenarioSpec) -> Scenario:
    params = spec.params
    omega_gs = _draw_omega_gs(
        np.random.default_rng(spec.seed),
        params["num_envs"],
        params["omega_g_low"],
        params["omega_g_high"],
        params["min_gap"],
    )

    def make_config(omega_g: float, omega_u_range, seed: int) -> SlateConfig:
        return SlateConfig(
            num_users=params["num_users"],
            horizon=params["horizon"],
            slate_size=params["slate_size"],
            omega_g=float(omega_g),
            omega_u_range=omega_u_range,
            temperature=params["temperature"],
            null_utility=params["null_utility"],
            appeal=params["appeal"],
            click_pull=params["click_pull"],
            interest_lr=params["interest_lr"],
            recency_lr=params["recency_lr"],
            boredom_decay=params["boredom_decay"],
            boredom_gain=params["boredom_gain"],
            boredom_weight=params["boredom_weight"],
            churn_base=params["churn_base"],
            return_prob=params["return_prob"],
            observation_noise_std=params["observation_noise_std"],
            seed=seed,
        )

    def make_train_env(index: int, seed_offset: int = 0):
        omega_g = omega_gs[index % len(omega_gs)]
        return SlateRecEnv(
            make_config(omega_g, params["beta"], spec.seed + 1000 * index + seed_offset)
        )

    def make_target_env(seed_offset: int = 0):
        return SlateRecEnv(make_config(0.0, None, spec.seed + 777 + seed_offset))

    return Scenario(
        spec,
        num_train_envs=params["num_envs"],
        state_dim=SlateRecEnv.STATE_DIM,
        action_dim=params["slate_size"],
        make_train_env=make_train_env,
        make_target_env=make_target_env,
    )
