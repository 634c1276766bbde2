"""SlateRec world: choice model, churn dynamics, and the native stepper.

Covers the family contract every env needs to ride the rollout stack:
shape/space conformance, validated construction, pickling (worker
shipping), and the ``make_batch_stepper`` bit-identity with sequential
per-env stepping — plus the slate-specific behaviour: MNL choice
probabilities, interest/boredom evolution, and churn as the long-term
engagement signal.
"""

import pickle

import numpy as np
import pytest

from repro.envs import SlateConfig, SlateRecEnv
from repro.rl import (
    MLPActorCritic,
    VecEnvPool,
    collect_segment,
    collect_segments_vec,
)
from repro.rl.parity import assert_segments_identical


def make_env(**overrides):
    defaults = dict(num_users=12, horizon=10, slate_size=4, seed=7)
    defaults.update(overrides)
    return SlateRecEnv(SlateConfig(**defaults))


def make_envs(num_envs=4, num_users=8, horizon=7, slate_size=3, seed0=100, **overrides):
    envs = []
    for g in range(num_envs):
        config = SlateConfig(
            num_users=num_users,
            horizon=horizon,
            slate_size=slate_size,
            omega_g=2.0 * g - 3.0,        # heterogeneous group parameters
            omega_u_range=2.0,             # per-user gaps
            temperature=0.4 + 0.1 * g,     # heterogeneous choice models
            seed=seed0 + g,
            **overrides,
        )
        envs.append(SlateRecEnv(config))
    return envs


#: One value per env for every per-env constant the stepper stacks into
#: per-user rows, plus the observation noise it draws per env. The second
#: item holds fixed overrides that make the constant matter within a short
#: horizon (``return_prob`` only acts on users who churned).
HETEROGENEOUS_CONSTANTS = {
    "appeal": ((0.5, 1.0, 1.5, 2.5), {}),
    "click_pull": ((0.0, 0.6, 1.2, 2.0), {}),
    "temperature": ((0.2, 0.4, 0.7, 1.0), {}),
    "null_utility": ((-0.5, 0.3, 0.8, 1.5), {}),
    "sigma_engagement": ((0.5, 1.0, 2.0, 3.0), {}),
    "interest_lr": ((0.0, 0.05, 0.2, 0.5), {}),
    "recency_lr": ((0.1, 0.5, 0.8, 1.0), {}),
    "boredom_decay": ((0.5, 0.8, 0.9, 0.99), {}),
    "boredom_gain": ((0.0, 0.4, 1.0, 2.0), {}),
    "boredom_weight": ((0.5, 1.5, 3.0, 5.0), {}),
    "churn_base": ((0.05, 0.2, 0.5, 0.9), {}),
    "return_prob": ((0.05, 0.2, 0.5, 0.9), {"churn_base": 0.9}),
    "observation_noise_std": ((0.5, 1.0, 2.0, 4.0), {}),
}


def make_policy(slate_size=3, seed=2):
    return MLPActorCritic(4, slate_size, np.random.default_rng(seed), hidden_sizes=(16,))


def constant_slate(env, spread=True):
    k = env.config.slate_size
    if spread:
        return np.tile(np.linspace(0.1, 0.9, k), (env.num_users, 1))
    return np.full((env.num_users, k), 0.95)


class TestSlateRecEnv:
    def test_spaces_and_shapes(self):
        env = make_env()
        assert env.observation_dim == SlateRecEnv.STATE_DIM
        assert env.action_dim == env.config.slate_size == 4
        states = env.reset()
        assert states.shape == (12, 4)
        next_states, rewards, dones, info = env.step(constant_slate(env))
        assert next_states.shape == (12, 4)
        assert rewards.shape == (12,)
        assert not dones.any()
        assert info["sat"].shape == (12,)
        assert set(info) >= {"engagement_mean", "sat", "boredom", "active", "clicked"}

    def test_episode_terminates_at_horizon(self):
        env = make_env(horizon=5)
        env.reset()
        for t in range(5):
            _, _, dones, _ = env.step(constant_slate(env))
        assert dones.all()

    def test_validation_rejects_empty_population(self):
        for field in ("num_users", "horizon", "slate_size"):
            try:
                SlateRecEnv(SlateConfig(**{field: 0}))
            except ValueError as error:
                assert field in str(error)
            else:
                raise AssertionError(f"{field}=0 should raise ValueError")

    def test_choice_probabilities_normalised(self):
        env = make_env()
        env.reset()
        probs = env.choice_probabilities(constant_slate(env))
        assert probs.shape == (12, env.config.slate_size + 1)
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_interest_drifts_toward_consumed_content(self):
        env = make_env(seed=3, churn_base=0.0, num_users=200, interest_lr=0.2)
        env.reset()
        before = np.abs(env._interest - 0.9).mean()
        for _ in range(10):
            env.step(np.full((env.num_users, env.config.slate_size), 0.9))
        after = np.abs(env._interest - 0.9).mean()
        assert after < before  # clicked users moved toward the content

    def test_boredom_builds_on_repetition(self):
        env = make_env(seed=4, churn_base=0.0, num_users=200)
        env.reset()
        for _ in range(8):
            env.step(np.full((env.num_users, env.config.slate_size), 0.5))
        assert env._boredom.mean() > 0.1

    def test_clickbait_erodes_satisfaction_and_churns_users(self):
        """The long-term engagement structure: pure-Choc slates buy
        clicks but drop SAT and lose users; Kale-leaning slates keep
        satisfaction (and hence the population) up."""
        choc = make_env(seed=5, num_users=300, horizon=40)
        kale = make_env(seed=5, num_users=300, horizon=40)
        choc.reset()
        kale.reset()
        for _ in range(40):
            choc.step(np.full((300, 4), 1.0))
            kale.step(np.full((300, 4), 0.15))
        assert choc._sat.mean() < kale._sat.mean()
        assert choc._active.mean() < kale._active.mean()
        assert kale._active.mean() > 0.5

    def test_churned_users_earn_nothing_and_can_return(self):
        env = make_env(seed=6, num_users=400, horizon=60, churn_base=0.5, return_prob=0.3)
        env.reset()
        returned = False
        prev_active = env._active.copy()
        for _ in range(60):
            _, rewards, _, info = env.step(constant_slate(env, spread=False))
            inactive = prev_active <= 0.0
            assert np.all(rewards[inactive] == 0.0)
            returned = returned or bool((info["active"][inactive] > 0).any())
            prev_active = info["active"].copy()
        assert returned  # the return path actually fires

    def test_resample_user_gaps_redraws_mu_kale(self):
        env = make_env(omega_u_range=3.0)
        before = env.mu_kale_users.copy()
        env.resample_user_gaps()
        assert not np.array_equal(before, env.mu_kale_users)

    def test_env_pickles(self):
        env = make_env()
        env.reset()
        env.step(constant_slate(env))
        clone = pickle.loads(pickle.dumps(env))
        actions = constant_slate(env)
        states_a, rewards_a, _, _ = env.step(actions)
        states_b, rewards_b, _, _ = clone.step(actions)
        np.testing.assert_array_equal(states_a, states_b)
        np.testing.assert_array_equal(rewards_a, rewards_b)


class TestSlateBatchStepper:
    def test_stepper_engaged_for_homogeneous_pool(self):
        pool = VecEnvPool(make_envs())
        assert pool._batch_stepper is not None

    def test_not_engaged_for_single_env_or_mixed_shapes(self):
        assert SlateRecEnv.make_batch_stepper(make_envs(num_envs=1), [slice(0, 8)]) is None
        mixed_horizon = make_envs()
        mixed_horizon[1].horizon = 3
        assert VecEnvPool(mixed_horizon)._batch_stepper is None

    def test_not_engaged_for_subclasses(self):
        class TweakedSlateEnv(SlateRecEnv):
            pass

        envs = make_envs(num_envs=2)
        envs.append(TweakedSlateEnv(SlateConfig(num_users=8, horizon=7, slate_size=3, seed=9)))
        assert VecEnvPool(envs)._batch_stepper is None

    def test_rollouts_bit_identical_to_sequential(self):
        policy = make_policy()
        seq = [
            collect_segment(env, policy, np.random.default_rng(90 + i), extras_from_info=("sat", "active"))
            for i, env in enumerate(make_envs())
        ]
        pool = VecEnvPool(make_envs())
        assert pool._batch_stepper is not None
        vec = collect_segments_vec(
            pool,
            policy,
            [np.random.default_rng(90 + i) for i in range(4)],
            extras_from_info=("sat", "active"),
        )
        assert_segments_identical(seq, vec, label="slate-stepper")

    def test_truncated_rollouts_bit_identical(self):
        policy = make_policy(seed=5)
        seq = [
            collect_segment(env, policy, np.random.default_rng(30 + i), max_steps=3)
            for i, env in enumerate(make_envs())
        ]
        vec = collect_segments_vec(
            make_envs(),
            policy,
            [np.random.default_rng(30 + i) for i in range(4)],
            max_steps=3,
        )
        assert all(s.horizon == 3 for s in vec)
        assert_segments_identical(seq, vec, label="slate-truncated")

    def test_multi_episode_rng_continuity(self):
        policy = make_policy(seed=3)
        envs_seq = make_envs(seed0=200)
        pool = VecEnvPool(make_envs(seed0=200))
        rngs_seq = [np.random.default_rng(40 + i) for i in range(4)]
        rngs_vec = [np.random.default_rng(40 + i) for i in range(4)]
        for _ in range(2):
            seq = [collect_segment(e, policy, r) for e, r in zip(envs_seq, rngs_seq)]
            vec = collect_segments_vec(pool, policy, rngs_vec)
            assert_segments_identical(seq, vec, label="slate-continuity")

    def test_resample_user_gaps_honoured_between_episodes(self):
        policy = make_policy(seed=4)
        envs_seq = make_envs(seed0=300)
        envs_vec = make_envs(seed0=300)
        pool = VecEnvPool(envs_vec)
        for i, env in enumerate(envs_seq):
            collect_segment(env, policy, np.random.default_rng(50 + i))
        collect_segments_vec(pool, policy, [np.random.default_rng(50 + i) for i in range(4)])
        for env in envs_seq:
            env.resample_user_gaps()
        for env in envs_vec:
            env.resample_user_gaps()
        seq = [
            collect_segment(env, policy, np.random.default_rng(60 + i))
            for i, env in enumerate(envs_seq)
        ]
        vec = collect_segments_vec(
            pool, policy, [np.random.default_rng(60 + i) for i in range(4)]
        )
        assert_segments_identical(seq, vec, label="slate-resample")

    @pytest.mark.parametrize("name", sorted(HETEROGENEOUS_CONSTANTS))
    def test_heterogeneous_constant_bit_identical(self, name):
        """Each env carries its own value of one constant: the stacked
        rows must give every env exactly its sequential trajectory."""
        values, overrides = HETEROGENEOUS_CONSTANTS[name]

        def envs():
            return [
                SlateRecEnv(
                    SlateConfig(
                        num_users=8,
                        horizon=10,
                        slate_size=3,
                        omega_g=2.0 * g - 3.0,
                        omega_u_range=2.0,
                        seed=400 + g,
                        **{name: value, **overrides},
                    )
                )
                for g, value in enumerate(values)
            ]

        policy = make_policy(seed=6)
        extras = ("sat", "active")
        seq = [
            collect_segment(env, policy, np.random.default_rng(70 + i), extras_from_info=extras)
            for i, env in enumerate(envs())
        ]
        pool = VecEnvPool(envs())
        assert pool._batch_stepper is not None
        vec = collect_segments_vec(
            pool,
            policy,
            [np.random.default_rng(70 + i) for i in range(len(values))],
            extras_from_info=extras,
        )
        assert_segments_identical(seq, vec, label=f"slate-{name}")
