"""Tests for the Sim2Rec policy wiring and the Table II configs."""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    SADAE,
    SADAEConfig,
    Sim2RecPolicy,
    build_sim2rec_policy,
    dpr_paper_config,
    dpr_small_config,
    lts_paper_config,
    lts_small_config,
)
from repro.rl import RolloutSegment


def make_policy(state_dim=3, action_dim=2, state_only=False, seed=0):
    sadae = SADAE(
        state_dim,
        action_dim,
        SADAEConfig(latent_dim=4, encoder_hidden=(16,), decoder_hidden=(16,), state_only=state_only, seed=seed),
    )
    return Sim2RecPolicy(
        state_dim,
        action_dim,
        sadae,
        np.random.default_rng(seed),
        fc_sizes=(8, 4),
        lstm_hidden=8,
        head_hidden=(16,),
    )


def make_segment(policy, steps=3, n=6, seed=0):
    rng = np.random.default_rng(seed)
    dones = np.zeros((steps, n))
    dones[-1] = 1.0
    segment = RolloutSegment(
        states=rng.standard_normal((steps, n, policy.state_dim)),
        prev_actions=rng.uniform(0, 1, (steps, n, policy.action_dim)),
        actions=rng.uniform(0, 1, (steps, n, policy.action_dim)),
        rewards=rng.standard_normal((steps, n)),
        dones=dones,
        values=rng.standard_normal((steps, n)),
        log_probs=rng.standard_normal((steps, n)),
        last_values=rng.standard_normal(n),
    )
    segment.finalize(0.9, 0.9)
    return segment


class TestSim2RecPolicy:
    def test_context_dim_from_fc_sizes(self):
        policy = make_policy()
        assert policy.context_dim == 4

    def test_act_shapes(self):
        policy = make_policy()
        policy.start_rollout(6)
        actions, log_probs, values = policy.act(
            np.random.default_rng(0).standard_normal((6, 3)),
            np.zeros((6, 2)),
            np.random.default_rng(1),
        )
        assert actions.shape == (6, 2)
        assert log_probs.shape == (6,)

    def test_group_context_shared_across_users(self):
        """υ is a group-level embedding: the rollout context rows are equal."""
        policy = make_policy()
        states = np.random.default_rng(0).standard_normal((5, 3))
        context = policy._rollout_context(states, np.zeros((5, 2)))
        assert context.shape == (5, 4)
        for row in context[1:]:
            np.testing.assert_array_equal(row, context[0])

    def test_context_depends_on_group_distribution(self):
        policy = make_policy()
        rng = np.random.default_rng(0)
        ctx_a = policy._rollout_context(rng.normal(0, 1, (50, 3)), np.zeros((50, 2)))
        ctx_b = policy._rollout_context(rng.normal(5, 1, (50, 3)), np.zeros((50, 2)))
        assert not np.allclose(ctx_a[0], ctx_b[0])

    @pytest.mark.parametrize("state_only", [False, True])
    def test_stacked_context_matches_per_group_loop(self, state_only):
        """Groups of one size embed as one stack; every row must equal
        the per-group posterior and f computed one group at a time."""
        policy = make_policy(state_only=state_only)
        sizes = [4, 6, 4, 0, 6, 3, 4]  # two repeated sizes, an empty group, a singleton
        bounds = np.cumsum([0, *sizes])
        groups = [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
        rng = np.random.default_rng(3)
        states = rng.standard_normal((bounds[-1], 3)) + np.repeat(np.arange(len(sizes)), sizes)[:, None]
        prev = rng.uniform(0, 1, (bounds[-1], 2))
        policy.start_rollout(bounds[-1])
        policy.set_rollout_groups(groups)
        context = policy._rollout_context(states, prev)
        for block in groups:
            if block.start == block.stop:
                continue
            upsilon = policy.sadae.embed(
                states[block], None if state_only else prev[block]
            )
            with nn.no_grad():
                expected = policy.context_mlp(nn.Tensor(upsilon.reshape(1, -1))).data
            assert np.array_equal(context[block], np.repeat(expected, block.stop - block.start, axis=0))

    @pytest.mark.parametrize(
        "groups",
        [
            [slice(0, 10)],  # short cover: rows 10-19 belong to no group
            [slice(0, 8), slice(10, 20)],  # gap
            [slice(0, 12), slice(10, 20)],  # overlap
            [slice(10, 20), slice(0, 10)],  # out of order
        ],
        ids=["short", "gap", "overlap", "order"],
    )
    def test_rollout_groups_must_tile_the_batch(self, groups):
        policy = make_policy()
        policy.start_rollout(20)
        policy.set_rollout_groups(groups)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="20-row batch"):
            policy.act(rng.standard_normal((20, 3)), np.zeros((20, 2)), rng)

    def test_ppo_gradient_reaches_sadae_encoder(self):
        """The Eq. (4) path: policy loss → context → q_κ."""
        policy = make_policy()
        segment = make_segment(policy)
        log_probs, values, _ = policy.evaluate_segment(segment, np.arange(6))
        (log_probs.sum() + values.sum()).backward()
        encoder_grads = [p.grad for p in policy.sadae.encoder.parameters()]
        assert all(g is not None for g in encoder_grads)
        assert any(np.any(g != 0) for g in encoder_grads)

    def test_policy_parameters_include_sadae_and_fc(self):
        policy = make_policy()
        names = [name for name, _ in policy.named_parameters()]
        assert any(name.startswith("sadae.") for name in names)
        assert any(name.startswith("context_mlp.") for name in names)

    def test_state_only_mode(self):
        policy = make_policy(state_only=True)
        policy.start_rollout(4)
        actions, _, _ = policy.act(
            np.random.default_rng(0).standard_normal((4, 3)),
            np.zeros((4, 2)),
            np.random.default_rng(1),
        )
        assert actions.shape == (4, 2)

    def test_build_sim2rec_policy_helper(self):
        config = lts_small_config()
        policy = build_sim2rec_policy(2, 1, config)
        assert isinstance(policy, Sim2RecPolicy)
        assert policy.context_dim == config.fc_sizes[-1]
        assert policy.sadae.config.state_only


class TestConfigs:
    def test_lts_paper_values_match_table2(self):
        config = lts_paper_config()
        assert config.fc_sizes == (128, 128, 128, 32)
        assert config.lstm_hidden == 64
        assert config.head_hidden == (128, 64)
        assert config.ppo.gamma == 0.99
        assert config.sadae.latent_dim == 5
        assert config.sadae.encoder_hidden == (512, 512)
        assert config.sadae.learning_rate == 2e-5
        assert config.sadae.weight_decay == 0.1
        assert config.sadae.state_only

    def test_dpr_paper_values_match_table2(self):
        config = dpr_paper_config()
        assert config.fc_sizes == (512, 512, 256)
        assert config.lstm_hidden == 256
        assert config.head_hidden == (512, 256)
        assert config.ppo.gamma == 0.9
        assert config.sadae.latent_dim == 200
        assert config.sadae.learning_rate == 1e-6
        assert config.sadae.weight_decay == 0.001
        assert config.truncate_horizon == 5
        assert not config.sadae.state_only

    def test_lr_decay_range_matches_table2(self):
        for config in (lts_paper_config(), dpr_paper_config()):
            assert config.ppo.learning_rate == 1e-4
            assert config.ppo.final_learning_rate == 1e-6

    def test_pe_ablation_flags(self):
        config = dpr_small_config().ablate_prediction_error_handling()
        assert not config.use_uncertainty_penalty
        assert config.truncate_horizon is None
        # extrapolation handling stays on
        assert config.use_trend_filter and config.use_exec_filter

    def test_ee_ablation_flags(self):
        config = dpr_small_config().ablate_extrapolation_error_handling()
        assert not config.use_trend_filter
        assert not config.use_exec_filter
        # prediction-error handling stays on
        assert config.use_uncertainty_penalty
        assert config.truncate_horizon == 5

    def test_ablations_do_not_mutate_original(self):
        config = dpr_small_config()
        config.ablate_prediction_error_handling()
        config.ablate_extrapolation_error_handling()
        assert config.use_uncertainty_penalty
        assert config.use_trend_filter

    def test_small_configs_have_lts_dpr_distinction(self):
        assert lts_small_config().sadae.state_only
        assert not dpr_small_config().sadae.state_only
        assert dpr_small_config().truncate_horizon == 5
