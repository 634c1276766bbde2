"""Tests for MLP and recurrent actor-critic policies."""

import numpy as np
import pytest

from repro import nn
from repro.core import SADAE, SADAEConfig, Sim2RecPolicy
from repro.envs import DPRConfig, DPRWorld
from repro.rl import MLPActorCritic, RecurrentActorCritic, RolloutSegment, evaluate

RNG = np.random.default_rng(6)


def make_segment(policy, steps=4, n=5, ds=3, seed=0):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((steps, n, ds))
    prev_actions = np.zeros((steps, n, policy.action_dim))
    actions = rng.uniform(0, 1, (steps, n, policy.action_dim))
    dones = np.zeros((steps, n))
    dones[-1] = 1.0
    segment = RolloutSegment(
        states=states,
        prev_actions=prev_actions,
        actions=actions,
        rewards=rng.standard_normal((steps, n)),
        dones=dones,
        values=rng.standard_normal((steps, n)),
        log_probs=rng.standard_normal((steps, n)),
        last_values=rng.standard_normal(n),
    )
    segment.finalize(0.9, 0.9)
    return segment


class TestMLPActorCritic:
    def test_act_shapes(self):
        policy = MLPActorCritic(3, 2, RNG, hidden_sizes=(8,))
        actions, log_probs, values = policy.act(
            RNG.standard_normal((5, 3)), np.zeros((5, 2)), RNG
        )
        assert actions.shape == (5, 2)
        assert log_probs.shape == (5,)
        assert values.shape == (5,)

    def test_deterministic_act_is_mean(self):
        policy = MLPActorCritic(3, 2, RNG, hidden_sizes=(8,))
        states = RNG.standard_normal((4, 3))
        a1, _, _ = policy.act(states, np.zeros((4, 2)), RNG, deterministic=True)
        a2, _, _ = policy.act(states, np.zeros((4, 2)), RNG, deterministic=True)
        np.testing.assert_array_equal(a1, a2)

    def test_mean_in_unit_interval(self):
        policy = MLPActorCritic(3, 1, RNG, hidden_sizes=(8,))
        actions, _, _ = policy.act(
            RNG.standard_normal((100, 3)) * 10, np.zeros((100, 1)), RNG, deterministic=True
        )
        assert np.all((actions >= 0) & (actions <= 1))

    def test_evaluate_matches_act_log_probs(self):
        policy = MLPActorCritic(3, 2, np.random.default_rng(0), hidden_sizes=(8,))
        segment = make_segment(policy)
        # Recompute log-probs for the stored actions; for a feed-forward
        # policy they depend only on (s, a), so evaluating twice must agree.
        lp1, v1, _ = policy.evaluate_segment(segment, np.arange(5))
        lp2, v2, _ = policy.evaluate_segment(segment, np.arange(5))
        np.testing.assert_allclose(lp1.data, lp2.data)
        np.testing.assert_allclose(v1.data, v2.data)

    def test_evaluate_user_subset(self):
        policy = MLPActorCritic(3, 2, np.random.default_rng(0), hidden_sizes=(8,))
        segment = make_segment(policy)
        lp_all, _, _ = policy.evaluate_segment(segment, np.arange(5))
        lp_sub, _, _ = policy.evaluate_segment(segment, np.array([1, 3]))
        np.testing.assert_allclose(lp_sub.data, lp_all.data[:, [1, 3]])

    def test_evaluate_gradients_reach_all_params(self):
        policy = MLPActorCritic(3, 2, np.random.default_rng(0), hidden_sizes=(8,))
        segment = make_segment(policy)
        log_probs, values, entropy = policy.evaluate_segment(segment, np.arange(5))
        (log_probs.sum() + values.sum() + entropy.sum()).backward()
        for param in policy.parameters():
            assert param.grad is not None

    def test_act_log_prob_consistent_with_evaluate(self):
        policy = MLPActorCritic(3, 1, np.random.default_rng(0), hidden_sizes=(8,))
        states = RNG.standard_normal((4, 3))
        actions, log_probs, _ = policy.act(states, np.zeros((4, 1)), np.random.default_rng(1))
        dist = nn.DiagGaussian(
            policy.actor(nn.Tensor(states)).sigmoid(), policy.log_std
        )
        np.testing.assert_allclose(dist.log_prob(actions).data, log_probs, atol=1e-10)


class TestRecurrentActorCritic:
    def make_policy(self, seed=0, **kwargs):
        defaults = dict(lstm_hidden=8, head_hidden=(16,))
        defaults.update(kwargs)
        return RecurrentActorCritic(3, 2, np.random.default_rng(seed), **defaults)

    def test_act_shapes(self):
        policy = self.make_policy()
        policy.start_rollout(5)
        actions, log_probs, values = policy.act(
            RNG.standard_normal((5, 3)), np.zeros((5, 2)), RNG
        )
        assert actions.shape == (5, 2)
        assert log_probs.shape == (5,)
        assert values.shape == (5,)

    def test_internal_state_evolves(self):
        policy = self.make_policy()
        policy.start_rollout(2)
        states = RNG.standard_normal((2, 3))
        policy.act(states, np.zeros((2, 2)), np.random.default_rng(0))
        h_after_one = policy.recurrent_state()[0]
        policy.act(states, np.zeros((2, 2)), np.random.default_rng(0))
        assert not np.allclose(policy.recurrent_state()[0], h_after_one)

    def test_start_rollout_resets_state(self):
        policy = self.make_policy()
        policy.start_rollout(2)
        policy.act(RNG.standard_normal((2, 3)), np.zeros((2, 2)), RNG)
        policy.start_rollout(2)
        np.testing.assert_array_equal(policy.recurrent_state()[0], np.zeros((2, 8)))

    def test_history_affects_actions(self):
        """Same state, different history → different deterministic action
        (the whole point of the extractor)."""
        policy = self.make_policy()
        state = np.ones((1, 3))
        policy.start_rollout(1)
        a_fresh, _, _ = policy.act(state, np.zeros((1, 2)), RNG, deterministic=True)
        policy.start_rollout(1)
        for _ in range(5):
            policy.act(RNG.standard_normal((1, 3)) * 3, np.ones((1, 2)), RNG)
        a_history, _, _ = policy.act(state, np.zeros((1, 2)), RNG, deterministic=True)
        assert not np.allclose(a_fresh, a_history)

    def test_evaluate_segment_shapes(self):
        policy = self.make_policy()
        segment = make_segment(policy)
        log_probs, values, entropy = policy.evaluate_segment(segment, np.arange(5))
        assert log_probs.shape == (4, 5)
        assert values.shape == (4, 5)
        assert entropy.shape == (4, 5)

    def test_evaluate_gradients_reach_lstm(self):
        policy = self.make_policy()
        segment = make_segment(policy)
        log_probs, values, _ = policy.evaluate_segment(segment, np.arange(5))
        (log_probs.sum() + values.sum()).backward()
        assert policy.extractor.weight_ih.grad is not None
        assert np.any(policy.extractor.weight_ih.grad != 0)

    def test_evaluate_user_subset_independent_columns(self):
        """Each user's LSTM column is independent, so evaluating a subset
        must equal the corresponding columns of a full evaluation."""
        policy = self.make_policy()
        segment = make_segment(policy)
        lp_all, _, _ = policy.evaluate_segment(segment, np.arange(5))
        lp_sub, _, _ = policy.evaluate_segment(segment, np.array([0, 4]))
        np.testing.assert_allclose(lp_sub.data, lp_all.data[:, [0, 4]], atol=1e-12)

    def test_context_dim_zero_by_default(self):
        policy = self.make_policy()
        assert policy.context_dim == 0

    def test_as_act_fn_protocol(self):
        policy = self.make_policy()
        act_fn = policy.as_act_fn(np.random.default_rng(0))
        act_fn.reset(3)
        actions = act_fn(RNG.standard_normal((3, 3)), 0)
        assert actions.shape == (3, 2)


def make_sim2rec(state_dim, action_dim, rng):
    sadae = SADAE(
        state_dim,
        action_dim,
        SADAEConfig(latent_dim=4, encoder_hidden=(16,), decoder_hidden=(16,), seed=0),
    )
    return Sim2RecPolicy(
        state_dim, action_dim, sadae, rng, fc_sizes=(8, 4), lstm_hidden=8, head_hidden=(16,)
    )


POLICIES = {
    "mlp": lambda ds, da, rng: MLPActorCritic(ds, da, rng, hidden_sizes=(8,)),
    "lstm": lambda ds, da, rng: RecurrentActorCritic(
        ds, da, rng, lstm_hidden=8, head_hidden=(16,)
    ),
    "gru": lambda ds, da, rng: RecurrentActorCritic(
        ds, da, rng, lstm_hidden=8, head_hidden=(16,), cell="gru"
    ),
    "sim2rec": make_sim2rec,
}


def state_arrays(policy):
    state = policy.recurrent_state()
    if state is None:
        return []
    return list(state) if isinstance(state, tuple) else [state]


class TestActionsOnly:
    """``actions`` is ``act(...)[0]`` without the critic and the log-prob."""

    @pytest.mark.parametrize("deterministic", [False, True], ids=["sampled", "mode"])
    @pytest.mark.parametrize("kind", sorted(POLICIES))
    def test_actions_match_act_bit_for_bit(self, kind, deterministic):
        """Same actions, same rng end state and same recurrent state after
        every step, on a 2-group batch."""
        policy = POLICIES[kind](3, 2, np.random.default_rng(0))
        data = np.random.default_rng(7)
        steps = [
            data.standard_normal((10, 3)) + np.repeat([[-1.0], [2.0]], [4, 6], axis=0)
            for _ in range(3)
        ]
        runs = {}
        for method in ("act", "actions"):
            rng = np.random.default_rng(11)
            policy.start_rollout(10)
            policy.set_rollout_groups([slice(0, 4), slice(4, 10)])
            prev = np.zeros((10, 2))
            trace = []
            for states in steps:
                out = getattr(policy, method)(states, prev, rng, deterministic=deterministic)
                prev = out[0] if method == "act" else out
                trace.append((prev, state_arrays(policy)))
            runs[method] = (trace, rng.bit_generator.state)
        (act_trace, act_rng), (only_trace, only_rng) = runs["act"], runs["actions"]
        assert only_rng == act_rng
        for (act_actions, act_state), (actions, state) in zip(act_trace, only_trace):
            assert np.array_equal(actions, act_actions)
            assert len(state) == len(act_state)
            for part, act_part in zip(state, act_state):
                assert np.array_equal(part, act_part)

    def test_base_class_default_is_act(self):
        """A policy that only implements ``act`` gets ``act(...)[0]``."""
        from repro.rl.policies import ActorCriticBase

        class ActOnly(MLPActorCritic):
            actions = ActorCriticBase.actions

        policy = ActOnly(3, 2, np.random.default_rng(0), hidden_sizes=(8,))
        states = RNG.standard_normal((5, 3))
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        expected, _, _ = policy.act(states, np.zeros((5, 2)), rng_a)
        assert np.array_equal(policy.actions(states, np.zeros((5, 2)), rng_b), expected)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("kind", ["lstm", "gru", "sim2rec"])
def test_snapshots_are_copies_and_exchange_hands_over(kind):
    """``recurrent_state`` / ``set_recurrent_state`` copy; the serving
    kernel's ``exchange_recurrent_state`` adopts and returns uncopied."""
    policy = POLICIES[kind](13, 2, np.random.default_rng(4))
    policy.start_rollout(3)
    policy.act(RNG.standard_normal((3, 13)), np.zeros((3, 2)), np.random.default_rng(0))
    live = [part.copy() for part in state_arrays(policy)]
    snapshot = policy.recurrent_state()
    parts = snapshot if isinstance(snapshot, tuple) else (snapshot,)
    for part in parts:
        part[...] = 7.0  # writing a snapshot leaves the policy alone
    assert all(np.array_equal(a, b) for a, b in zip(state_arrays(policy), live))
    policy.set_recurrent_state(snapshot)
    for part in parts:
        part[...] = 8.0  # and so does writing what was restored
    assert all((part == 7.0).all() for part in state_arrays(policy))

    fresh = policy.initial_recurrent_state(3)
    fresh_parts = fresh if isinstance(fresh, tuple) else (fresh,)
    assert all(part.shape == (3, 8) and not part.any() for part in fresh_parts)
    handed = policy.exchange_recurrent_state(fresh)
    assert all((part == 7.0).all() for part in (handed if isinstance(handed, tuple) else (handed,)))
    assert policy.exchange_recurrent_state(None) is fresh
    assert policy.recurrent_state() is None


def test_feed_forward_policy_holds_no_state():
    policy = POLICIES["mlp"](13, 2, np.random.default_rng(4))
    assert policy.initial_recurrent_state(3) is None
    assert policy.exchange_recurrent_state(None) is None
    with pytest.raises(ValueError, match="stateless"):
        policy.exchange_recurrent_state(np.zeros((3, 8)))


class _CriticCalled(nn.Module):
    def __call__(self, *args, **kwargs):
        raise AssertionError("evaluation ran the critic")

    infer = __call__


def _log_prob_called(*args, **kwargs):
    raise AssertionError("evaluation computed a log-prob")


@pytest.mark.parametrize("kind", sorted(POLICIES))
def test_evaluation_runs_only_the_actor(kind, monkeypatch):
    """With the critic and the log-prob made to raise, the replica kernel
    and ``as_act_fn`` still return the unpatched returns bit for bit.

    The probes cover what the array-level rollout step calls (the
    critic's ``infer`` and ``nn.diag_gaussian_log_prob``) and the graph
    path's ``__call__`` / ``DiagGaussian.log_prob`` alike."""
    world = DPRWorld(DPRConfig(num_cities=3, drivers_per_city=5, horizon=5, seed=3))
    policy = POLICIES[kind](13, 2, np.random.default_rng(4))

    def run():
        pooled = evaluate(
            policy, world.make_all_city_envs(), rng=np.random.default_rng(5), deterministic=False
        )
        solo = evaluate(policy.as_act_fn(np.random.default_rng(6)), world.make_city_env(1))
        return pooled, solo

    expected_pooled, expected_solo = run()
    monkeypatch.setattr(policy, "critic", _CriticCalled())
    monkeypatch.setattr(nn, "diag_gaussian_log_prob", _log_prob_called)
    monkeypatch.setattr(nn.DiagGaussian, "log_prob", _log_prob_called)
    pooled, solo = run()
    assert np.array_equal(pooled, expected_pooled)
    assert solo == expected_solo
