"""Tests for the GRU extractor option and full-policy checkpointing."""

import numpy as np
import pytest

from repro import nn
from repro.core import SADAE, SADAEConfig, Sim2RecPolicy
from repro.envs import LTSConfig, LTSEnv
from repro.rl import (
    PPO,
    PPOConfig,
    RecurrentActorCritic,
    RolloutBuffer,
    collect_segment,
)

RNG = np.random.default_rng(13)


class TestGRUExtractor:
    def make_policy(self, cell, seed=0):
        return RecurrentActorCritic(
            2, 1, np.random.default_rng(seed), lstm_hidden=8, head_hidden=(16,), cell=cell
        )

    def test_unknown_cell_raises(self):
        with pytest.raises(ValueError):
            self.make_policy("rnn")

    def test_gru_act_shapes(self):
        policy = self.make_policy("gru")
        policy.start_rollout(4)
        actions, log_probs, values = policy.act(
            RNG.standard_normal((4, 2)), np.zeros((4, 1)), RNG
        )
        assert actions.shape == (4, 1)
        assert values.shape == (4,)

    def test_gru_state_is_single_tensor(self):
        policy = self.make_policy("gru")
        policy.start_rollout(3)
        policy.act(RNG.standard_normal((3, 2)), np.zeros((3, 1)), RNG)
        assert isinstance(policy.recurrent_state(), np.ndarray)

    def test_gru_history_affects_actions(self):
        policy = self.make_policy("gru")
        state = np.ones((1, 2))
        policy.start_rollout(1)
        fresh, _, _ = policy.act(state, np.zeros((1, 1)), RNG, deterministic=True)
        policy.start_rollout(1)
        for _ in range(5):
            policy.act(RNG.standard_normal((1, 2)) * 3, np.ones((1, 1)), RNG)
        with_history, _, _ = policy.act(state, np.zeros((1, 1)), RNG, deterministic=True)
        assert not np.allclose(fresh, with_history)

    def test_gru_ppo_update_runs(self):
        env = LTSEnv(LTSConfig(num_users=6, horizon=5, seed=0))
        policy = self.make_policy("gru")
        ppo = PPO(policy, PPOConfig(update_epochs=1, minibatches_per_segment=1))
        rng = np.random.default_rng(0)
        buffer = RolloutBuffer()
        buffer.add(collect_segment(env, policy, rng))
        buffer.finalize(0.99, 0.95)
        before = policy.actor.layers[0].weight.data.copy()
        ppo.update(buffer)
        assert not np.allclose(before, policy.actor.layers[0].weight.data)

    def test_gru_evaluate_matches_column_independence(self):
        policy = self.make_policy("gru")
        env = LTSEnv(LTSConfig(num_users=5, horizon=4, seed=0))
        segment = collect_segment(env, policy, np.random.default_rng(0))
        segment.finalize(0.99, 0.95)
        lp_all, _, _ = policy.evaluate_segment(segment, np.arange(5))
        lp_sub, _, _ = policy.evaluate_segment(segment, np.array([1, 3]))
        np.testing.assert_allclose(lp_sub.data, lp_all.data[:, [1, 3]], atol=1e-12)

    def test_lstm_default_unchanged(self):
        policy = self.make_policy("lstm")
        assert policy.cell_type == "lstm"
        assert isinstance(policy.extractor, nn.LSTMCell)


class TestFullPolicyCheckpoint:
    def test_sim2rec_policy_roundtrip(self, tmp_path):
        """A trained Sim2Rec agent (SADAE + f + φ + heads) must survive a
        save/load cycle bit-exactly."""
        sadae = SADAE(
            2, 1, SADAEConfig(latent_dim=3, encoder_hidden=(8,), decoder_hidden=(8,), seed=0)
        )
        policy = Sim2RecPolicy(
            2, 1, sadae, np.random.default_rng(0), fc_sizes=(4, 2), lstm_hidden=8, head_hidden=(8,)
        )
        states = RNG.standard_normal((6, 2))
        policy.sadae.fit_normalizer([(states, np.zeros((6, 1)))])

        path = tmp_path / "policy.npz"
        nn.save_state(path, policy.state_dict())

        clone_sadae = SADAE(
            2, 1, SADAEConfig(latent_dim=3, encoder_hidden=(8,), decoder_hidden=(8,), seed=9)
        )
        clone = Sim2RecPolicy(
            2, 1, clone_sadae, np.random.default_rng(9), fc_sizes=(4, 2), lstm_hidden=8, head_hidden=(8,)
        )
        clone.sadae.fit_normalizer([(states, np.zeros((6, 1)))])
        clone.load_state_dict(nn.load_state(path))

        policy.start_rollout(6)
        clone.start_rollout(6)
        a1, _, v1 = policy.act(states, np.zeros((6, 1)), np.random.default_rng(5))
        a2, _, v2 = clone.act(states, np.zeros((6, 1)), np.random.default_rng(5))
        np.testing.assert_allclose(a1, a2, atol=1e-12)
        np.testing.assert_allclose(v1, v2, atol=1e-12)

    def test_normalizer_state_roundtrip(self):
        sadae = SADAE(
            2, 1, SADAEConfig(latent_dim=3, encoder_hidden=(8,), decoder_hidden=(8,), seed=0)
        )
        states = RNG.standard_normal((20, 2)) * 3 + 1
        sadae.fit_normalizer([(states, RNG.standard_normal((20, 1)))])
        saved = sadae.normalizer_state()

        clone = SADAE(
            2, 1, SADAEConfig(latent_dim=3, encoder_hidden=(8,), decoder_hidden=(8,), seed=0)
        )
        clone.load_normalizer_state(saved)
        np.testing.assert_array_equal(clone.input_mean, sadae.input_mean)
        np.testing.assert_array_equal(clone.state_std, sadae.state_std)

    def test_normalizer_shape_mismatch_raises(self):
        sadae = SADAE(
            2, 1, SADAEConfig(latent_dim=3, encoder_hidden=(8,), decoder_hidden=(8,), seed=0)
        )
        bad = sadae.normalizer_state()
        bad["input_mean"] = np.zeros(7)
        with pytest.raises(ValueError):
            sadae.load_normalizer_state(bad)

    def test_simulator_normalizer_roundtrip(self):
        from repro.sim import SimulatorLearnerConfig, train_user_simulator

        rng = np.random.default_rng(0)
        s, a = rng.standard_normal((50, 3)), rng.uniform(0, 1, (50, 2))
        y = np.column_stack([s[:, 0], (a[:, 0] > 0.5).astype(float)])
        config = SimulatorLearnerConfig(hidden_sizes=(8,), epochs=2, binary_dims=(1,), seed=0)
        simulator = train_user_simulator((s, a, y), config)
        saved = simulator.normalizer_state()
        clone = train_user_simulator(
            (s * 0 + 1, a * 0 + 1, y), SimulatorLearnerConfig(hidden_sizes=(8,), epochs=0, binary_dims=(1,), seed=0)
        )
        clone.load_normalizer_state(saved)
        np.testing.assert_array_equal(clone.input_mean, simulator.input_mean)

    def test_checkpoint_includes_sadae_parameters(self, tmp_path):
        sadae = SADAE(
            2, 1, SADAEConfig(latent_dim=3, encoder_hidden=(8,), decoder_hidden=(8,), seed=0)
        )
        policy = Sim2RecPolicy(
            2, 1, sadae, np.random.default_rng(0), fc_sizes=(4, 2), lstm_hidden=8, head_hidden=(8,)
        )
        state = policy.state_dict()
        assert any(key.startswith("sadae.encoder") for key in state)
        assert any(key.startswith("context_mlp") for key in state)
        assert any(key.startswith("extractor") for key in state)
