"""VecEnvPool protocol, BlockRNG streams and trainer pooling behaviour.

The sequential-equivalence contract itself (vectorized collection is
bit-identical to looping ``collect_segment``) is enforced by the
cross-mode parity suite in ``test_rollout_parity.py`` — this module
keeps the pool-protocol, stream-isolation and trainer-integration tests
that are specific to the in-process :class:`VecEnvPool`.
"""

import numpy as np
import pytest

from repro.core import build_sim2rec_policy, dpr_small_config
from repro.envs import DPRConfig, DPRWorld
from repro.rl import (
    BlockRNG,
    RecurrentActorCritic,
    VecEnvPool,
    collect_segment,
    collect_segments_vec,
    evaluate,
)
from repro.rl.parity import assert_segments_identical


def make_world(**kwargs) -> DPRWorld:
    defaults = dict(num_cities=4, drivers_per_city=10, horizon=6, seed=3)
    defaults.update(kwargs)
    return DPRWorld(DPRConfig(**defaults))


class TestCollectEdgeCases:
    def test_many_city_batch(self):
        # Large stacked batch (200 users): exercises the BLAS kernel
        # regimes where narrow-head matmuls were batch-size dependent —
        # bigger than the parity suite's layouts, so it stays here.
        world = make_world(num_cities=20, drivers_per_city=10, horizon=5, seed=21)
        policy = RecurrentActorCritic(
            13, 2, np.random.default_rng(6), lstm_hidden=32, head_hidden=(64,)
        )
        rngs_seq = [np.random.default_rng(400 + i) for i in range(20)]
        rngs_vec = [np.random.default_rng(400 + i) for i in range(20)]
        seq = [
            collect_segment(env, policy, rng)
            for env, rng in zip(world.make_all_city_envs(), rngs_seq)
        ]
        vec = collect_segments_vec(world.make_all_city_envs(), policy, rngs_vec)
        assert_segments_identical(seq, vec, label="many_city_batch")


class TestVecEnvPool:
    def test_pool_is_a_multi_user_env(self):
        world = make_world()
        pool = VecEnvPool(world.make_all_city_envs())
        assert pool.num_users == 4 * 10
        assert pool.observation_dim == 13
        assert pool.group_id == [0, 1, 2, 3]
        states = pool.reset()
        assert states.shape == (40, 13)
        next_states, rewards, dones, info = pool.step(np.full((40, 2), 0.5))
        assert rewards.shape == (40,)
        assert len(info["per_env"]) == 4

    def test_rejects_duplicate_env_objects(self):
        world = make_world()
        env = world.make_city_env(0)
        with pytest.raises(ValueError, match="distinct"):
            VecEnvPool([env, env])

    def test_rejects_dim_mismatch(self):
        from repro.envs import LTSConfig, LTSEnv

        world = make_world()
        lts = LTSEnv(LTSConfig(num_users=5, horizon=4, seed=0))
        with pytest.raises(ValueError, match="observation dimension"):
            VecEnvPool([world.make_city_env(0), lts])

    def test_block_rng_draws_match_per_env_streams(self):
        slices = [slice(0, 3), slice(3, 8)]
        block = BlockRNG([np.random.default_rng(0), np.random.default_rng(1)], slices)
        direct = [np.random.default_rng(0), np.random.default_rng(1)]
        draws = block.standard_normal((8, 2))
        np.testing.assert_array_equal(draws[0:3], direct[0].standard_normal((3, 2)))
        np.testing.assert_array_equal(draws[3:8], direct[1].standard_normal((5, 2)))
        with pytest.raises(ValueError):
            block.standard_normal((4, 2))


class TestEvaluatePolicyVec:
    def test_matches_sequential_evaluate(self):
        world = make_world()
        policy = RecurrentActorCritic(
            13, 2, np.random.default_rng(5), lstm_hidden=16, head_hidden=(32,)
        )
        seq_returns = np.array(
            [
                evaluate(policy.as_act_fn(np.random.default_rng(0)), env, episodes=1)
                for env in world.make_all_city_envs()
            ]
        )
        vec_returns = evaluate(
            policy.as_act_fn(np.random.default_rng(0)),
            world.make_all_city_envs(),
            episodes=1,
        )
        # Deterministic act_fn + identical env streams: identical numbers.
        np.testing.assert_array_equal(seq_returns, vec_returns)

    def test_pool_works_through_plain_evaluate_policy(self):
        """A prebuilt pool evaluates exactly like the env list it stacks."""
        world = make_world()
        policy = build_sim2rec_policy(13, 2, dpr_small_config(seed=1))
        pooled = evaluate(
            policy.as_act_fn(np.random.default_rng(0)),
            VecEnvPool(world.make_all_city_envs()),
            episodes=1,
        )
        listed = evaluate(
            policy.as_act_fn(np.random.default_rng(0)),
            world.make_all_city_envs(),
            episodes=1,
        )
        assert pooled.shape == (4,)
        np.testing.assert_array_equal(pooled, listed)


class _InjectedStepError(RuntimeError):
    pass


class TestRolloutGroupsCleared:
    """Evaluation and collection declare the pool's blocks on the policy
    and must clear them even when an env step raises mid-rollout, for
    every kind of evaluation input."""

    LOOPS = {
        "policy": lambda policy, envs: evaluate(policy, envs),
        "act_fn": lambda policy, envs: evaluate(
            policy.as_act_fn(np.random.default_rng(0)), envs
        ),
        "act_fn_pool": lambda policy, envs: evaluate(
            policy.as_act_fn(np.random.default_rng(0)), VecEnvPool(envs)
        ),
        "collect": lambda policy, envs: collect_segments_vec(
            envs, policy, np.random.default_rng(0)
        ),
    }

    @pytest.mark.parametrize("loop", sorted(LOOPS))
    def test_groups_are_cleared_when_a_step_raises(self, loop, monkeypatch):
        step, calls = VecEnvPool.step, []

        def failing_step(pool, actions):
            calls.append(None)
            if len(calls) == 4:
                raise _InjectedStepError("env step failed")
            return step(pool, actions)

        monkeypatch.setattr(VecEnvPool, "step", failing_step)
        policy = build_sim2rec_policy(13, 2, dpr_small_config(seed=1))
        with pytest.raises(_InjectedStepError):
            self.LOOPS[loop](policy, make_world().make_all_city_envs())
        assert len(calls) == 4
        assert policy._rollout_groups is None


class TestTrainerVectorizedCollect:
    def test_vectorized_collect_produces_full_buffer(self):
        from repro.core import lts_small_config
        from repro.scenarios import trainer_from_config

        config = lts_small_config(seed=0)
        trainer = trainer_from_config(
            config, {"family": "lts", "num_users": 8, "horizon": 6, "seed": 0}
        )
        buffer, raw_rewards = trainer.collect()
        assert len(buffer) == config.segments_per_iteration
        assert len(raw_rewards) == config.segments_per_iteration
        metrics = trainer.train_iteration()
        assert "reward" in metrics

    def test_duplicate_env_samples_fall_back_to_extra_rounds(self):
        from repro.core.trainer import _poolable_batches

        world = make_world()
        env_a, env_b = world.make_city_env(0), world.make_city_env(1)
        batches = _poolable_batches([env_a, env_b, env_a])
        assert [[index for index, _ in batch] for batch in batches] == [[0, 1], [2]]
