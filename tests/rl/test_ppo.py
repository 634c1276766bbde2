"""Tests for the PPO learner: mechanics plus convergence on simple tasks."""

import numpy as np
import pytest

from repro.envs import LTSConfig, LTSEnv
from repro.rl import evaluate
from repro.envs.base import MultiUserEnv
from repro.envs.spaces import Box
from repro import nn
from repro.rl import (
    MLPActorCritic,
    PPO,
    PPOConfig,
    RecurrentActorCritic,
    RolloutBuffer,
    TrainingDiverged,
    collect_segment,
)


class TargetActionEnv(MultiUserEnv):
    """Reward = -(a - target)², the simplest continuous-control testbed."""

    def __init__(self, num_users=16, horizon=8, target=0.7, seed=0):
        self.num_users = num_users
        self.horizon = horizon
        self.target = target
        self.observation_space = Box(low=np.zeros(2), high=np.ones(2))
        self.action_space = Box(low=np.zeros(1), high=np.ones(1))
        self._rng = np.random.default_rng(seed)
        self._t = 0
        self.group_id = 0

    def reset(self):
        self._t = 0
        return self._rng.random((self.num_users, 2))

    def step(self, actions):
        actions = self._validate_actions(actions)
        rewards = -((actions[:, 0] - self.target) ** 2)
        self._t += 1
        dones = np.full(self.num_users, self._t >= self.horizon)
        return self._rng.random((self.num_users, 2)), rewards, dones, {}


class TestPPOMechanics:
    def test_update_requires_finalized_buffer(self):
        rng = np.random.default_rng(0)
        env = TargetActionEnv()
        policy = MLPActorCritic(2, 1, rng, hidden_sizes=(8,))
        ppo = PPO(policy, PPOConfig())
        buffer = RolloutBuffer()
        buffer.add(collect_segment(env, policy, rng))
        with pytest.raises(RuntimeError):
            ppo.update(buffer)

    def test_update_returns_stats(self):
        rng = np.random.default_rng(0)
        env = TargetActionEnv()
        policy = MLPActorCritic(2, 1, rng, hidden_sizes=(8,))
        ppo = PPO(policy, PPOConfig(update_epochs=1))
        buffer = RolloutBuffer()
        buffer.add(collect_segment(env, policy, rng))
        buffer.finalize(0.99, 0.95)
        stats = ppo.update(buffer)
        for key in ("policy_loss", "value_loss", "entropy", "clip_frac", "learning_rate"):
            assert key in stats

    def test_update_is_reproducible_across_instances(self):
        """Identical buffer contents give identical updates, even through
        distinct segment objects: minibatch shuffles are seeded by buffer
        position, not object identity (the id()-seeded shuffle made every
        run's optimisation trajectory unique)."""

        def run():
            rng = np.random.default_rng(0)
            env = TargetActionEnv()
            policy = MLPActorCritic(2, 1, rng, hidden_sizes=(8,))
            ppo = PPO(policy, PPOConfig(update_epochs=2, minibatches_per_segment=2))
            buffer = RolloutBuffer()
            for _ in range(2):
                buffer.add(collect_segment(env, policy, rng))
            buffer.finalize(0.99, 0.95)
            ppo.update(buffer)
            return [param.data.copy() for param in policy.parameters()]

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)

    def test_update_changes_parameters(self):
        rng = np.random.default_rng(0)
        env = TargetActionEnv()
        policy = MLPActorCritic(2, 1, rng, hidden_sizes=(8,))
        before = policy.actor.layers[0].weight.data.copy()
        ppo = PPO(policy, PPOConfig(update_epochs=2))
        buffer = RolloutBuffer()
        buffer.add(collect_segment(env, policy, rng))
        buffer.finalize(0.99, 0.95)
        ppo.update(buffer)
        assert not np.allclose(before, policy.actor.layers[0].weight.data)

    def test_lr_schedule_decays(self):
        rng = np.random.default_rng(0)
        env = TargetActionEnv()
        policy = MLPActorCritic(2, 1, rng, hidden_sizes=(8,))
        config = PPOConfig(
            learning_rate=1e-3, final_learning_rate=1e-5, total_iterations=5, update_epochs=1
        )
        ppo = PPO(policy, config)
        for _ in range(5):
            buffer = RolloutBuffer()
            buffer.add(collect_segment(env, policy, rng))
            buffer.finalize(0.99, 0.95)
            stats = ppo.update(buffer)
        np.testing.assert_allclose(stats["learning_rate"], 1e-5)

    def test_segments_of_different_sizes(self):
        rng = np.random.default_rng(0)
        policy = MLPActorCritic(2, 1, rng, hidden_sizes=(8,))
        ppo = PPO(policy, PPOConfig(update_epochs=1))
        buffer = RolloutBuffer()
        buffer.add(collect_segment(TargetActionEnv(num_users=4, horizon=3), policy, rng))
        buffer.add(collect_segment(TargetActionEnv(num_users=9, horizon=6), policy, rng))
        buffer.finalize(0.99, 0.95)
        ppo.update(buffer)  # must not raise


def recurrent_buffer(nan_reward=False):
    """A RecurrentActorCritic and a finalized 2-segment buffer; optionally
    one NaN reward in the second segment."""
    rng = np.random.default_rng(4)
    policy = RecurrentActorCritic(2, 1, rng, lstm_hidden=8, head_hidden=(16,))
    buffer = RolloutBuffer()
    for seed in range(2):
        buffer.add(collect_segment(TargetActionEnv(num_users=6, horizon=4, seed=seed), policy, rng))
    if nan_reward:
        buffer.segments[1].rewards[2, 3] = np.nan
    buffer.finalize(0.99, 0.95)
    return policy, buffer


class TestDivergenceGuard:
    def test_nan_reward_raises_and_leaves_parameters_untouched(self):
        policy, buffer = recurrent_buffer(nan_reward=True)
        ppo = PPO(policy, PPOConfig(update_epochs=2))
        before = [p.data.copy() for p in policy.parameters()]
        optimizer_before = ppo.optimizer.state_dict()
        with pytest.raises(TrainingDiverged, match="PPO loss is nan"):
            ppo.update(buffer)
        assert len(before) == 12
        for param, data in zip(policy.parameters(), before):
            np.testing.assert_array_equal(param.data, data)
        for key, value in ppo.optimizer.state_dict().items():
            np.testing.assert_array_equal(value, optimizer_before[key])

    def test_non_finite_gradient_norm_raises_before_the_step(self, monkeypatch):
        policy, buffer = recurrent_buffer()
        ppo = PPO(policy, PPOConfig(update_epochs=1))
        before = [p.data.copy() for p in policy.parameters()]
        monkeypatch.setattr(nn, "clip_grad_norm", lambda params, max_norm: float("inf"))
        with pytest.raises(TrainingDiverged, match="gradient norm is inf"):
            ppo.update(buffer)
        for param, data in zip(policy.parameters(), before):
            np.testing.assert_array_equal(param.data, data)

    def test_diverged_is_exported_from_rl(self):
        import repro.rl

        assert "TrainingDiverged" in repro.rl.__all__
        assert issubclass(TrainingDiverged, RuntimeError)


class TestLearnerHealth:
    def test_approx_kl_matches_a_hand_computed_ratio(self):
        policy = MLPActorCritic(2, 1, np.random.default_rng(0), hidden_sizes=(8,))
        ppo = PPO(policy, PPOConfig())
        new_log_probs = np.array([[-1.0, -0.5, -2.0], [-0.2, -1.5, -0.9]])
        old_log_probs = np.array([[-1.2, -0.5, -1.0], [-0.3, -1.0, -0.4]])
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        ratio = np.exp(new_log_probs - old_log_probs)
        expected = sum(
            (r - 1.0) - np.log(r) for r, m in zip(ratio.ravel(), mask.ravel()) if m
        ) / mask.sum()
        metrics = ppo._loss_step(
            nn.Tensor(new_log_probs, requires_grad=True),
            nn.Tensor(np.zeros((2, 3)), requires_grad=True),
            nn.Tensor(np.zeros((2, 3))),
            np.ones((2, 3)),
            np.zeros((2, 3)),
            old_log_probs,
            mask,
        )
        assert metrics["approx_kl"] == pytest.approx(expected, rel=1e-12)
        assert metrics["approx_kl"] > 0.0

    def test_grad_norm_is_the_mean_pre_clip_norm(self, monkeypatch):
        policy, buffer = recurrent_buffer()
        ppo = PPO(policy, PPOConfig(update_epochs=2))
        norms = []
        original = nn.clip_grad_norm

        def recording(params, max_norm):
            norms.append(original(params, max_norm))
            return norms[-1]

        monkeypatch.setattr(nn, "clip_grad_norm", recording)
        stats = ppo.update(buffer)
        assert len(norms) == 4  # 2 epochs x 2 stacked minibatch rounds
        assert stats["grad_norm"] == pytest.approx(np.mean(norms), rel=1e-12)
        assert stats["grad_norm"] > 0.0

    def test_clip_covers_exactly_the_policy_parameters(self, monkeypatch):
        """Every step clips, through ``repro.nn``, the optimiser's parameter
        list, which is the policy's ``parameters()`` — nothing more."""
        policy, buffer = recurrent_buffer()
        ppo = PPO(policy, PPOConfig(update_epochs=2))
        clipped = []
        original = nn.clip_grad_norm

        def recording(params, max_norm):
            clipped.append([id(param) for param in params])
            return original(params, max_norm)

        monkeypatch.setattr(nn, "clip_grad_norm", recording)
        ppo.update(buffer)
        expected = [id(param) for param in policy.parameters()]
        assert [id(param) for param in ppo.optimizer.parameters] == expected
        assert len(clipped) == 4  # 2 epochs x 2 stacked minibatch rounds
        assert all(ids == expected for ids in clipped)

    def test_health_series_are_deterministic(self):
        def run():
            policy, buffer = recurrent_buffer()
            return PPO(policy, PPOConfig(update_epochs=2)).update(buffer)

        first, second = run(), run()
        assert first == second
        assert {"approx_kl", "grad_norm"} <= first.keys()
        assert all(np.isfinite(value) for value in first.values())


class TestPPOConvergence:
    def train(self, policy, env, iterations, config=None, seed=0):
        rng = np.random.default_rng(seed)
        ppo = PPO(policy, config or PPOConfig(learning_rate=3e-3, update_epochs=4))
        for _ in range(iterations):
            buffer = RolloutBuffer()
            buffer.add(collect_segment(env, policy, rng))
            buffer.finalize(ppo.config.gamma, ppo.config.gae_lambda)
            ppo.update(buffer)
        return policy

    def test_mlp_learns_target_action(self):
        env = TargetActionEnv(num_users=32, horizon=8, target=0.7)
        policy = MLPActorCritic(2, 1, np.random.default_rng(1), hidden_sizes=(16,))
        self.train(policy, env, iterations=40)
        actions, _, _ = policy.act(
            env.reset(), np.zeros((32, 1)), np.random.default_rng(0), deterministic=True
        )
        np.testing.assert_allclose(actions.mean(), 0.7, atol=0.12)

    def test_mlp_improves_lts_reward(self):
        env = LTSEnv(LTSConfig(num_users=40, horizon=30, seed=0))
        policy = MLPActorCritic(
            env.observation_dim, env.action_dim, np.random.default_rng(2), hidden_sizes=(32, 32)
        )
        rng = np.random.default_rng(0)
        before = evaluate(policy.as_act_fn(rng), env, episodes=2)
        self.train(policy, env, iterations=30, config=PPOConfig(learning_rate=1e-3))
        after = evaluate(policy.as_act_fn(np.random.default_rng(0)), env, episodes=2)
        assert after > before

    def test_recurrent_learns_target_action(self):
        env = TargetActionEnv(num_users=16, horizon=6, target=0.3, seed=3)
        policy = RecurrentActorCritic(
            2, 1, np.random.default_rng(3), lstm_hidden=8, head_hidden=(16,)
        )
        self.train(
            policy,
            env,
            iterations=40,
            config=PPOConfig(learning_rate=3e-3, update_epochs=2, minibatches_per_segment=1),
        )
        policy.start_rollout(16)
        actions, _, _ = policy.act(
            env.reset(), np.zeros((16, 1)), np.random.default_rng(0), deterministic=True
        )
        np.testing.assert_allclose(actions.mean(), 0.3, atol=0.15)


class TestCollectSegment:
    def test_segment_shapes(self):
        rng = np.random.default_rng(0)
        env = TargetActionEnv(num_users=7, horizon=5)
        policy = MLPActorCritic(2, 1, rng, hidden_sizes=(8,))
        segment = collect_segment(env, policy, rng)
        assert segment.states.shape == (5, 7, 2)
        assert segment.actions.shape == (5, 7, 1)
        assert segment.rewards.shape == (5, 7)
        assert segment.last_values.shape == (7,)

    def test_prev_actions_shifted(self):
        rng = np.random.default_rng(0)
        env = TargetActionEnv(num_users=4, horizon=5)
        policy = MLPActorCritic(2, 1, rng, hidden_sizes=(8,))
        segment = collect_segment(env, policy, rng)
        np.testing.assert_array_equal(segment.prev_actions[0], np.zeros((4, 1)))
        np.testing.assert_array_equal(segment.prev_actions[1:], segment.actions[:-1])

    def test_max_steps_truncates(self):
        rng = np.random.default_rng(0)
        env = TargetActionEnv(num_users=4, horizon=10)
        policy = MLPActorCritic(2, 1, rng, hidden_sizes=(8,))
        segment = collect_segment(env, policy, rng, max_steps=3)
        assert segment.horizon == 3

    def test_extras_from_info(self):
        rng = np.random.default_rng(0)
        env = LTSEnv(LTSConfig(num_users=4, horizon=5, seed=0))
        policy = MLPActorCritic(2, 1, rng, hidden_sizes=(8,))
        segment = collect_segment(env, policy, rng, extras_from_info=("sat",))
        assert segment.extras["sat"].shape == (5, 4)

    def test_group_id_recorded(self):
        rng = np.random.default_rng(0)
        env = LTSEnv(LTSConfig(num_users=4, horizon=3, omega_g=5.0, seed=0))
        policy = MLPActorCritic(2, 1, rng, hidden_sizes=(8,))
        segment = collect_segment(env, policy, rng)
        assert segment.group_id == 5.0
