"""Shared helpers for the LTS SADAE benches (Fig. 3, 4, 5)."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core import SADAE, SADAEConfig, train_sadae
from repro.envs import LTSConfig, LTSEnv, make_lts_task
from repro.scenarios import collect_scenario_state_sets, make_scenario

STATE_DIM = 2
OBS_NOISE_STD = 2.0  # o ~ N(μ_c, 4)


def build_lts3_corpus(num_users: int = 150, steps_per_env: int = 6, seed: int = 0):
    """State sets from every LTS3 training simulator, tagged with ω_g."""
    params = {"num_users": num_users, "horizon": steps_per_env, "seed": seed}
    task = make_lts_task("LTS3", **params)
    sets = collect_scenario_state_sets(
        make_scenario({"family": "lts", "task": "LTS3", **params}),
        steps_per_env=steps_per_env,
        rng=np.random.default_rng(seed),
    )
    omega_tags = [
        task.train_omega_gs[i // steps_per_env] for i in range(len(sets))
    ]
    return task, sets, omega_tags


def make_lts_sadae(seed: int = 0, latent_dim: int = 5) -> SADAE:
    """State-only SADAE matching the paper's LTS setup (5 latent units)."""
    return SADAE(
        STATE_DIM,
        1,
        SADAEConfig(
            latent_dim=latent_dim,
            encoder_hidden=(64, 64),
            decoder_hidden=(64, 64),
            learning_rate=1e-3,
            weight_decay=1e-4,
            state_only=True,
            seed=seed,
        ),
    )


def fresh_group_states(
    omega_g: float, num_users: int, seed: int, steps: int = 3
) -> np.ndarray:
    """Observed states of a fresh group with parameter ω_g (for eval)."""
    env = LTSEnv(
        LTSConfig(num_users=num_users, horizon=steps, omega_g=omega_g, seed=seed)
    )
    states = [env.reset()]
    rng = np.random.default_rng(seed)
    for _ in range(steps - 1):
        step_states, _, _, _ = env.step(rng.random((num_users, 1)))
        states.append(step_states)
    return np.concatenate(states, axis=0)


def train_with_checkpoints(
    sadae: SADAE,
    sets,
    total_epochs: int,
    checkpoint_every: int,
    snapshot,
    seed: int = 0,
) -> Dict[int, object]:
    """Train and call ``snapshot(epoch)`` at epoch 0 and every checkpoint.

    Returns ``{epoch: snapshot_result}``.
    """
    results = {0: snapshot(0)}
    sadae.fit_normalizer(sets)

    def callback(epoch: int) -> None:
        completed = epoch + 1
        if completed % checkpoint_every == 0 or completed == total_epochs:
            results[completed] = snapshot(completed)

    train_sadae(
        sadae,
        sets,
        epochs=total_epochs,
        rng=np.random.default_rng(seed),
        fit_normalizer=False,
        callback=callback,
    )
    return results
