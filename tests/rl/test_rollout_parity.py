"""Cross-mode rollout parity: one harness, every collection path.

The single source of truth for rollout equivalence: the ``vectorized``
mode (one in-process pool) must produce **bitwise-identical** segments
to the sequential per-env ``collect_segment`` loop, across ragged env
sizes, heterogeneous horizons, truncation, extras, and MLP / Recurrent
/ Sim2Rec policies. The harness itself lives in :mod:`repro.rl.parity`
so ``benchmarks/perf_rollout.py`` runs the exact same check before
timing anything.
"""

import numpy as np
import pytest

from repro.core import build_sim2rec_policy, dpr_small_config
from repro.envs import (
    DPRConfig,
    DPRWorld,
    LTSConfig,
    LTSEnv,
    SlateConfig,
    SlateRecEnv,
)
from repro.rl import (
    ROLLOUT_MODES,
    MLPActorCritic,
    RecurrentActorCritic,
    VecEnvPool,
    assert_segments_identical,
    collect_rollout_mode,
    collect_segments_sequential,
)


# ----------------------------------------------------------------------
# Env-set factories: fresh envs per call, same seeds -> same initial state.
# ----------------------------------------------------------------------
def make_dpr_envs():
    world = DPRWorld(DPRConfig(num_cities=5, drivers_per_city=7, horizon=6, seed=3))
    return world.make_all_city_envs()


def make_ragged_lts_envs():
    """Envs with *different* user counts (ragged shard blocks)."""
    sizes = [(3, 0.0), (9, 2.0), (5, 4.0), (7, 6.0), (4, 8.0)]
    return [
        LTSEnv(LTSConfig(num_users=k, horizon=6, omega_g=g, seed=10 + i))
        for i, (k, g) in enumerate(sizes)
    ]


def make_hetero_horizon_envs():
    """Members that leave the pool at their own horizon (3 / 8 / 6)."""
    world = DPRWorld(DPRConfig(num_cities=3, drivers_per_city=6, horizon=8, seed=9))
    envs = world.make_all_city_envs()
    envs[0].horizon = 3
    envs[2].horizon = 6
    return envs


def make_ragged_slate_envs():
    """SlateRec members with ragged user counts and per-env choice models."""
    sizes = [(4, -4.0), (8, 2.0), (3, 5.0), (6, -2.0)]
    return [
        SlateRecEnv(
            SlateConfig(
                num_users=k,
                horizon=6,
                slate_size=3,
                omega_g=g,
                omega_u_range=2.0,
                temperature=0.4 + 0.1 * i,
                churn_base=0.15,
                seed=20 + i,
            )
        )
        for i, (k, g) in enumerate(sizes)
    ]


ENV_SETS = {
    "dpr": (make_dpr_envs, 13, 2),
    "ragged_lts": (make_ragged_lts_envs, 2, 1),
    "hetero_horizons": (make_hetero_horizon_envs, 13, 2),
    "ragged_slate": (make_ragged_slate_envs, 4, 3),
}


def make_policy(kind: str, state_dim: int, action_dim: int):
    if kind == "mlp":
        return MLPActorCritic(
            state_dim, action_dim, np.random.default_rng(1), hidden_sizes=(16,)
        )
    if kind == "recurrent":
        return RecurrentActorCritic(
            state_dim, action_dim, np.random.default_rng(0),
            lstm_hidden=16, head_hidden=(32,),
        )
    if kind == "gru":
        return RecurrentActorCritic(
            state_dim, action_dim, np.random.default_rng(2),
            lstm_hidden=16, head_hidden=(32,), cell="gru",
        )
    if kind == "sim2rec":
        return build_sim2rec_policy(state_dim, action_dim, dpr_small_config(seed=0))
    raise ValueError(kind)


def rngs_for(count: int, seed: int):
    return [np.random.default_rng(seed + i) for i in range(count)]


def collect_reference(make_envs, policy, seed, **kwargs):
    envs = make_envs()
    return collect_segments_sequential(envs, policy, rngs_for(len(envs), seed), **kwargs)


# ----------------------------------------------------------------------
# The acceptance grid: mode x env layout x policy family. Sim2Rec runs
# its stacked context pass over every layout's user groups (distinct
# sizes, finished members, slate choice models).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy_kind", ["mlp", "recurrent", "sim2rec"])
@pytest.mark.parametrize("env_set", sorted(ENV_SETS))
@pytest.mark.parametrize("mode", ROLLOUT_MODES[1:])
class TestModeParity:
    def test_bitwise_matches_sequential(self, mode, env_set, policy_kind):
        make_envs, state_dim, action_dim = ENV_SETS[env_set]
        policy = make_policy(policy_kind, state_dim, action_dim)
        reference = collect_reference(make_envs, policy, seed=100)
        envs = make_envs()
        collected = collect_rollout_mode(mode, envs, policy, rngs_for(len(envs), 100))
        assert_segments_identical(
            reference, collected, label=f"{env_set}/{policy_kind}/{mode}"
        )


@pytest.mark.parametrize("mode", ROLLOUT_MODES[1:])
class TestFeatureParity:
    def test_truncation_and_extras(self, mode):
        """max_steps truncation + info-dict extras survive every mode."""
        policy = make_policy("mlp", 13, 2)
        kwargs = dict(max_steps=4, extras_from_info=("orders", "cost"))
        reference = collect_reference(make_dpr_envs, policy, seed=70, **kwargs)
        envs = make_dpr_envs()
        collected = collect_rollout_mode(
            mode, envs, policy, rngs_for(len(envs), 70), **kwargs
        )
        assert_segments_identical(reference, collected, label=f"extras/{mode}")
        assert collected[0].horizon == 4
        assert set(collected[0].extras) == {"orders", "cost"}

    def test_slate_truncation_and_extras(self, mode):
        """The slate family's info-dict extras (sat/active: the churn
        signal) and max_steps truncation survive every mode."""
        policy = make_policy("mlp", 4, 3)
        kwargs = dict(max_steps=4, extras_from_info=("sat", "active"))
        reference = collect_reference(make_ragged_slate_envs, policy, seed=75, **kwargs)
        envs = make_ragged_slate_envs()
        collected = collect_rollout_mode(
            mode, envs, policy, rngs_for(len(envs), 75), **kwargs
        )
        assert_segments_identical(reference, collected, label=f"slate-extras/{mode}")
        assert collected[0].horizon == 4
        assert set(collected[0].extras) == {"sat", "active"}

    def test_sim2rec_policy_with_fitted_normalizer(self, mode):
        """SADAE context policies: υ per block + normaliser buffers in sync.

        The normaliser statistics are plain arrays outside state_dict;
        the stacked context pass must read the fitted ones, or the first
        act call would diverge from the sequential loop.
        """
        policy = make_policy("sim2rec", 13, 2)
        rng = np.random.default_rng(5)
        sets = [(rng.normal(size=(20, 13)), rng.random((20, 2))) for _ in range(4)]
        policy.sadae.fit_normalizer(sets)
        reference = collect_reference(make_dpr_envs, policy, seed=200, max_steps=4)
        envs = make_dpr_envs()
        collected = collect_rollout_mode(
            mode, envs, policy, rngs_for(len(envs), 200), max_steps=4
        )
        assert_segments_identical(reference, collected, label=f"sim2rec/{mode}")


class TestContinuityParity:
    @pytest.mark.parametrize("mode", ROLLOUT_MODES[1:])
    def test_multi_episode_rng_continuity(self, mode):
        """Back-to-back episodes on one persistent pool keep every env
        stream and every env's internal RNG aligned with the sequential
        loop."""
        policy = make_policy("recurrent", 13, 2)
        envs_seq = make_dpr_envs()
        rngs_seq = rngs_for(5, 50)
        rngs_par = rngs_for(5, 50)
        pool = VecEnvPool(make_dpr_envs())
        for episode in range(2):
            reference = collect_segments_sequential(envs_seq, policy, rngs_seq)
            collected = collect_rollout_mode(mode, [], policy, rngs_par, pool=pool)
            assert_segments_identical(
                reference, collected, label=f"continuity/{mode}/ep{episode}"
            )

    def test_gru_policy_odd_block_sizes(self):
        """7 drivers/city blocks that do not align with BLAS kernel
        chunking — the regression case for the value-head gemv fix, now
        swept across every mode at once."""
        policy = make_policy("gru", 13, 2)
        reference = collect_reference(make_dpr_envs, policy, seed=300)
        for mode in ROLLOUT_MODES[1:]:
            envs = make_dpr_envs()
            collected = collect_rollout_mode(mode, envs, policy, rngs_for(len(envs), 300))
            assert_segments_identical(reference, collected, label=f"gru/{mode}")


class TestModeDispatch:
    """Names outside the two modes fail loudly."""

    def test_step_server_mode_is_rejected(self):
        """``sharded`` (workers step, the parent acts) is not a mode."""
        assert ROLLOUT_MODES == ("sequential", "vectorized")
        envs = make_dpr_envs()
        with pytest.raises(ValueError, match="unknown rollout mode 'sharded'"):
            collect_rollout_mode(
                "sharded", envs, make_policy("mlp", 13, 2), rngs_for(len(envs), 0)
            )
