"""Tests for the simulated transition process P_{M,τʳ}."""

import numpy as np
import pytest

from repro.envs import COST_RATE, DPRConfig, DPRFeaturizer, DPRWorld, collect_dpr_dataset
from repro.rl import MLPActorCritic, VecEnvPool, collect_segment, collect_segments_vec
from repro.rl.parity import assert_segments_identical
from repro.sim import (
    SimulatedDPREnv,
    SimulatorLearnerConfig,
    train_user_simulator,
)


@pytest.fixture(scope="module")
def setup():
    world = DPRWorld(DPRConfig(num_cities=3, drivers_per_city=10, horizon=12, seed=21))
    dataset = collect_dpr_dataset(world, episodes=2)
    config = SimulatorLearnerConfig(hidden_sizes=(32, 32), epochs=25, seed=0)
    simulator = train_user_simulator(dataset, config)
    return world, dataset, simulator


def make_env(setup, **kwargs):
    _, dataset, simulator = setup
    defaults = dict(truncate_horizon=5, seed=0)
    defaults.update(kwargs)
    return SimulatedDPREnv(simulator, dataset.groups[0], **defaults)


class TestReset:
    def test_initial_state_from_log(self, setup):
        _, dataset, _ = setup
        env = make_env(setup)
        state = env.reset()
        log_states = dataset.groups[0].states
        # The reset state must be one of the logged (episode, t) slices.
        matches = [
            np.allclose(state, log_states[e, t])
            for e in range(log_states.shape[0])
            for t in range(log_states.shape[1])
        ]
        assert any(matches)

    def test_random_starts_vary(self, setup):
        env = make_env(setup)
        starts = {env.reset()[0, -2:].tobytes() for _ in range(20)}
        assert len(starts) > 1  # different time features → different starts

    def test_history_reconstruction_preserves_stats(self, setup):
        env = make_env(setup)
        state = env.reset()
        featurizer = DPRFeaturizer()
        stat = state[:, featurizer.slices["stat"]]
        np.testing.assert_allclose(env._order_history[:, -7:].mean(axis=1), stat[:, 0], atol=1e-9)
        np.testing.assert_allclose(env._order_history.mean(axis=1), stat[:, 1], atol=1e-9)

    def test_dim_mismatch_raises(self, setup):
        _, dataset, _ = setup
        bad = train_user_simulator(
            (np.zeros((10, 5)), np.zeros((10, 2)), np.zeros((10, 3))),
            SimulatorLearnerConfig(hidden_sizes=(4,), epochs=0),
        )
        with pytest.raises(ValueError):
            SimulatedDPREnv(bad, dataset.groups[0])


class TestStep:
    def test_shapes(self, setup):
        env = make_env(setup)
        env.reset()
        states, rewards, dones, info = env.step(np.full((10, 2), 0.4))
        assert states.shape == (10, 13)
        assert rewards.shape == (10,)
        assert not np.any(dones)

    def test_truncation_at_tc(self, setup):
        env = make_env(setup, truncate_horizon=3)
        env.reset()
        for step in range(3):
            _, _, dones, _ = env.step(np.full((10, 2), 0.4))
        assert np.all(dones)

    def test_reward_consistent_with_cost(self, setup):
        env = make_env(setup)
        env.reset()
        actions = np.column_stack([np.full(10, 0.4), np.full(10, 0.6)])
        _, rewards, _, info = env.step(actions)
        np.testing.assert_allclose(info["cost"], COST_RATE * 0.6 * info["orders"])
        np.testing.assert_allclose(rewards, info["orders"] - info["cost"])

    def test_exogenous_features_preserved(self, setup):
        """s^user and s^group must stay fixed (loaded from τʳ, not simulated)."""
        env = make_env(setup)
        featurizer = DPRFeaturizer()
        state0 = env.reset()
        state1, _, _, _ = env.step(np.full((10, 2), 0.4))
        np.testing.assert_array_equal(
            state0[:, featurizer.slices["user"]], state1[:, featurizer.slices["user"]]
        )
        np.testing.assert_array_equal(
            state0[:, featurizer.slices["group"]], state1[:, featurizer.slices["group"]]
        )

    def test_time_features_advance(self, setup):
        env = make_env(setup)
        featurizer = DPRFeaturizer()
        state0 = env.reset()
        state1, _, _, _ = env.step(np.full((10, 2), 0.4))
        assert not np.allclose(
            state0[:, featurizer.slices["time"]], state1[:, featurizer.slices["time"]]
        )

    def test_hist_block_updated_from_prediction(self, setup):
        env = make_env(setup)
        featurizer = DPRFeaturizer()
        env.reset()
        state1, _, _, info = env.step(np.full((10, 2), 0.4))
        np.testing.assert_array_equal(
            state1[:, featurizer.slices["hist"]][:, 0], info["orders"]
        )

    def test_orders_nonnegative(self, setup):
        env = make_env(setup)
        env.reset()
        rng = np.random.default_rng(0)
        for _ in range(5):
            _, _, _, info = env.step(rng.random((10, 2)))
            assert np.all(info["orders"] >= 0)

    def test_info_holds_the_step_extras(self, setup):
        """Each step reports orders, cost, completion and the step count;
        no per-step uncertainty is computed."""
        env = make_env(setup)
        env.reset()
        _, _, _, info = env.step(np.full((10, 2), 0.4))
        assert set(info) == {"orders", "cost", "completed", "t"}
        assert info["t"] == 1
        for key in ("orders", "cost", "completed"):
            assert info[key].shape == (10,)

    def test_exec_bounds_shape_and_order(self, setup):
        """F_exec bounds are per user and per action dim, low ≤ high."""
        env = make_env(setup)
        assert env.exec_low.shape == (10, 2)
        assert env.exec_high.shape == (10, 2)
        assert np.all(env.exec_low <= env.exec_high)

    def test_exec_bounds_from_log(self, setup):
        _, dataset, _ = setup
        env = make_env(setup)
        group = dataset.groups[0]
        flat = group.actions.reshape(-1, group.num_users, 2)
        np.testing.assert_allclose(env.exec_low, flat.min(axis=0))
        np.testing.assert_allclose(env.exec_high, flat.max(axis=0))

    def test_rollout_reproducible_with_seed(self, setup):
        env1 = make_env(setup, seed=9)
        env2 = make_env(setup, seed=9)
        s1, s2 = env1.reset(), env2.reset()
        np.testing.assert_array_equal(s1, s2)
        a = np.full((10, 2), 0.5)
        np.testing.assert_array_equal(env1.step(a)[1], env2.step(a)[1])


class TestBatchStepper:
    """Envs on one simulator, as DIRECT's single-simulator sampler draws
    them, step as one stacked ``_SimulatedDPRBatchStepper`` pass per
    timestep, bit-identical to stepping each env on its own."""

    EXTRAS = ("orders", "cost", "completed")

    def make_envs(self, setup, simulators=None):
        _, dataset, simulator = setup
        simulators = simulators or [simulator] * 3
        return [
            SimulatedDPREnv(sim, dataset.groups[index], truncate_horizon=4, seed=50 + index)
            for index, sim in enumerate(simulators)
        ]

    def test_pool_collects_bit_identically_to_each_env(self, setup):
        policy = MLPActorCritic(13, 2, np.random.default_rng(3), hidden_sizes=(16,))
        envs_seq = self.make_envs(setup)
        pool = VecEnvPool(self.make_envs(setup))
        assert pool._batch_stepper is not None
        rngs_seq = [np.random.default_rng(70 + i) for i in range(3)]
        rngs_vec = [np.random.default_rng(70 + i) for i in range(3)]
        for _ in range(2):  # back-to-back episodes keep every stream aligned
            seq = [
                collect_segment(env, policy, rng, extras_from_info=self.EXTRAS)
                for env, rng in zip(envs_seq, rngs_seq)
            ]
            vec = collect_segments_vec(pool, policy, rngs_vec, extras_from_info=self.EXTRAS)
            assert [s.horizon for s in vec] == [4, 4, 4]
            assert_segments_identical(seq, vec)

    def test_step_infos_match_each_env(self, setup):
        """Stepping the stacked batch returns each env's own info dict,
        keys and values alike, at every step of an episode."""
        envs = self.make_envs(setup)
        pool = VecEnvPool(self.make_envs(setup))
        assert pool._batch_stepper is not None
        np.testing.assert_array_equal(
            pool.reset(), np.concatenate([env.reset() for env in envs])
        )
        rng = np.random.default_rng(5)
        for _ in range(4):
            actions = rng.random((pool.num_users, 2))
            _, _, _, info = pool.step(actions)
            for env, block, batched in zip(envs, pool.slices, info["per_env"]):
                _, _, _, own = env.step(actions[block])
                assert set(batched) == set(own)
                assert batched["t"] == own["t"]
                for key in self.EXTRAS:
                    np.testing.assert_array_equal(batched[key], own[key])

    def test_envs_on_different_simulators_step_one_by_one(self, setup):
        _, dataset, simulator = setup
        other = train_user_simulator(
            dataset, SimulatorLearnerConfig(hidden_sizes=(16,), epochs=2, seed=1)
        )
        envs = self.make_envs(setup, [simulator, other, simulator])
        assert VecEnvPool(envs)._batch_stepper is None
