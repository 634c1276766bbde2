"""Stacked-segment PPO evaluation: equivalence with the sequential path.

The contract under test (see :mod:`repro.rl.policies`):
``evaluate_segments_batched`` over same-length segments returns log-probs
/ values / entropies *bit-identical* to calling ``evaluate_segment``
segment by segment — the learning-side mirror of the rollout engine's
determinism contract in :mod:`repro.rl.vec` — and the PPO length-bucketed
update (``PPOConfig.batch_segments``) degrades gracefully on ragged
buffers (lengths 1, T and anything between land in separate buckets).
"""

import numpy as np
import pytest

from repro import nn
from repro.core import SADAE, build_sim2rec_policy, dpr_small_config
from repro.envs import DPRConfig, DPRWorld
from repro.rl import (
    MLPActorCritic,
    PPO,
    PPOConfig,
    RecurrentActorCritic,
    RolloutBuffer,
    collect_segment,
)
from tests.rl.test_ppo import TargetActionEnv


def make_world(**kwargs) -> DPRWorld:
    defaults = dict(num_cities=4, drivers_per_city=7, horizon=6, seed=3)
    defaults.update(kwargs)
    return DPRWorld(DPRConfig(**defaults))


def collect_world_segments(world, policy, seed=50, max_steps=None):
    return [
        collect_segment(env, policy, np.random.default_rng(seed + i), max_steps=max_steps)
        for i, env in enumerate(world.make_all_city_envs())
    ]


def assert_batched_eval_identical(policy, segments, user_idxs):
    """Both evaluation paths, same embedding-noise stream, bitwise compare."""
    if hasattr(policy, "_eval_rng"):
        policy._eval_rng = np.random.default_rng(7)
    sequential = [
        policy.evaluate_segment(segment, idx)
        for segment, idx in zip(segments, user_idxs)
    ]
    if hasattr(policy, "_eval_rng"):
        policy._eval_rng = np.random.default_rng(7)
    log_probs, values, entropy = policy.evaluate_segments_batched(segments, user_idxs)
    offset = 0
    for (seq_lp, seq_v, seq_e), idx in zip(sequential, user_idxs):
        block = slice(offset, offset + len(idx))
        np.testing.assert_array_equal(seq_lp.data, log_probs.data[:, block])
        np.testing.assert_array_equal(seq_v.data, values.data[:, block])
        np.testing.assert_array_equal(seq_e.data, entropy.data[:, block])
        offset += len(idx)
    assert offset == log_probs.shape[1]


class TestBatchedEvaluationEquivalence:
    def test_mlp_policy(self):
        world = make_world()
        policy = MLPActorCritic(13, 2, np.random.default_rng(1), hidden_sizes=(16,))
        segments = collect_world_segments(world, policy)
        idxs = [np.arange(s.num_users) for s in segments]
        assert_batched_eval_identical(policy, segments, idxs)

    def test_recurrent_policy(self):
        world = make_world()
        policy = RecurrentActorCritic(
            13, 2, np.random.default_rng(0), lstm_hidden=16, head_hidden=(32,)
        )
        segments = collect_world_segments(world, policy)
        idxs = [np.arange(s.num_users) for s in segments]
        assert_batched_eval_identical(policy, segments, idxs)

    def test_sim2rec_policy_with_minibatch_subsets(self):
        """The acceptance case: SADAE-context policy, uneven user subsets
        (the shape the PPO minibatch loop produces)."""
        world = make_world()
        policy = build_sim2rec_policy(13, 2, dpr_small_config(seed=0))
        segments = collect_world_segments(world, policy)
        idxs = [
            np.array([0, 3, 5]),
            np.arange(segments[1].num_users),
            np.array([6]),
            np.array([1, 2]),
        ]
        assert_batched_eval_identical(policy, segments, idxs)

    def test_gru_policy(self):
        world = make_world(num_cities=3, drivers_per_city=5, horizon=4, seed=11)
        policy = RecurrentActorCritic(
            13, 2, np.random.default_rng(2), lstm_hidden=16, head_hidden=(32,), cell="gru"
        )
        segments = collect_world_segments(world, policy)
        idxs = [np.arange(s.num_users)[::2] for s in segments]
        assert_batched_eval_identical(policy, segments, idxs)

    def test_horizon_one_segments(self):
        """Length-1 segments: the shortest possible bucket still batches."""
        world = make_world()
        policy = RecurrentActorCritic(
            13, 2, np.random.default_rng(4), lstm_hidden=16, head_hidden=(32,)
        )
        segments = collect_world_segments(world, policy, max_steps=1)
        assert all(s.horizon == 1 for s in segments)
        idxs = [np.arange(s.num_users) for s in segments]
        assert_batched_eval_identical(policy, segments, idxs)

    def test_base_class_fallback_matches(self):
        """A policy without an override gets the correct looped fallback."""
        from repro.rl.policies import ActorCriticBase

        class PlainPolicy(MLPActorCritic):
            evaluate_segments_batched = ActorCriticBase.evaluate_segments_batched

        world = make_world(num_cities=2)
        policy = PlainPolicy(13, 2, np.random.default_rng(5), hidden_sizes=(8,))
        segments = collect_world_segments(world, policy)
        idxs = [np.arange(s.num_users) for s in segments]
        assert_batched_eval_identical(policy, segments, idxs)

    def test_mixed_horizons_rejected(self):
        world = make_world()
        policy = MLPActorCritic(13, 2, np.random.default_rng(1), hidden_sizes=(8,))
        long = collect_world_segments(world, policy)
        short = collect_world_segments(world, policy, max_steps=2)
        with pytest.raises(ValueError, match="equal-length"):
            policy.evaluate_segments_batched(
                [long[0], short[0]],
                [np.arange(long[0].num_users), np.arange(short[0].num_users)],
            )


def sim2rec_policy(cell):
    """The DPR Sim2Rec policy, with its LSTM extractor swapped for a GRU
    of the same size when ``cell == "gru"``."""
    policy = build_sim2rec_policy(13, 2, dpr_small_config(seed=0))
    if cell == "gru":
        lstm = policy.extractor
        policy.extractor = nn.GRUCell(
            lstm.input_size, lstm.hidden_size, np.random.default_rng(5)
        )
        policy.cell_type = "gru"
    return policy


#: Minibatch layouts over a 4-city, 7-driver world: every segment whole,
#: one user per segment, and the uneven split PPO's minibatching produces.
LAYOUTS = {
    "full": lambda n: [np.arange(n)] * 4,
    "one_user": lambda n: [np.array([i]) for i in (0, 3, 6, 2)],
    "split": lambda n: [np.array([0, 3, 5]), np.arange(n), np.array([6]), np.array([1, 2])],
}


def parameter_gradients(policy, evaluate):
    """Per-parameter grads of ``Σ field · cotangent`` over the three outputs."""
    policy.zero_grad()
    policy._eval_rng = np.random.default_rng(7)
    loss = None
    for output, cotangent in evaluate():
        term = (output * nn.Tensor(cotangent)).sum()
        loss = term if loss is None else loss + term
    loss.backward()
    return {
        name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
        for name, p in policy.named_parameters()
    }


class TestBatchedGradients:
    """The stacked pass sums the same gradient terms as per-segment
    evaluation in another order: every parameter's gradient agrees to
    ≤1e-10 relative. Each path is evaluated once per rng reset — a second
    ``evaluate_segment`` call would draw fresh υ noise."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_sim2rec_gradients_match_per_segment(self, cell, layout):
        policy = sim2rec_policy(cell)
        segments = collect_world_segments(make_world(), policy)
        idxs = LAYOUTS[layout](segments[0].num_users)
        assert_batched_eval_identical(policy, segments, idxs)
        horizon, total = segments[0].horizon, sum(len(idx) for idx in idxs)
        rng = np.random.default_rng(13)
        cotangents = [rng.standard_normal((horizon, total)) for _ in range(3)]

        def batched():
            return zip(policy.evaluate_segments_batched(segments, idxs), cotangents)

        def per_segment():
            offset = 0
            for segment, idx in zip(segments, idxs):
                block = slice(offset, offset + len(idx))
                outputs = policy.evaluate_segment(segment, idx)
                yield from zip(outputs, (c[:, block] for c in cotangents))
                offset += len(idx)

        expected = parameter_gradients(policy, per_segment)
        actual = parameter_gradients(policy, batched)
        assert expected.keys() == actual.keys()
        for name, grad in expected.items():
            scale = np.max(np.abs(grad))
            assert np.max(np.abs(actual[name] - grad)) <= 1e-10 * scale, name
        assert any(np.any(g != 0) for n, g in expected.items() if n.startswith("sadae."))

    def test_one_sadae_context_per_segment(self, monkeypatch):
        """The T per-step SADAE sets of a segment go through one stacked
        ``embed_tensor`` call (the per-step path made T)."""
        calls = []
        original = SADAE.embed_tensor

        def counting(self, states, actions, rng=None):
            calls.append(np.shape(states))
            return original(self, states, actions, rng)

        monkeypatch.setattr(SADAE, "embed_tensor", counting)
        policy = sim2rec_policy("lstm")
        segments = collect_world_segments(make_world(), policy)
        calls.clear()
        policy.evaluate_segments_batched(
            segments, [np.arange(s.num_users) for s in segments]
        )
        assert calls == [segments[0].states.shape] * len(segments)


def fresh_policy_and_segments(batch_segments, num_segments=3, horizon=5, seed=9):
    policy = MLPActorCritic(2, 1, np.random.default_rng(seed), hidden_sizes=(8,))
    rng = np.random.default_rng(seed + 1)
    buffer = RolloutBuffer()
    for i in range(num_segments):
        env = TargetActionEnv(num_users=6, horizon=horizon, seed=100 + i)
        buffer.add(collect_segment(env, policy, rng))
    buffer.finalize(0.99, 0.95)
    ppo = PPO(policy, PPOConfig(update_epochs=2, batch_segments=batch_segments))
    return policy, ppo, buffer


class TestBatchedPPOUpdate:
    def test_ragged_buffer_buckets_by_length(self):
        """Lengths 1, T and mixed in one buffer: every bucket updates."""
        policy = MLPActorCritic(2, 1, np.random.default_rng(0), hidden_sizes=(8,))
        rng = np.random.default_rng(1)
        buffer = RolloutBuffer()
        for horizon in (1, 5, 1, 3, 5):
            env = TargetActionEnv(num_users=5, horizon=horizon, seed=horizon)
            buffer.add(collect_segment(env, policy, rng))
        buffer.finalize(0.99, 0.95)
        ppo = PPO(policy, PPOConfig(update_epochs=1, batch_segments=True))
        stats = ppo.update(buffer)
        assert np.isfinite(stats["policy_loss"])

    def test_single_segment_buffer_identical_to_sequential(self):
        """A one-segment buffer must update bit-identically either way.

        The minibatch split is seeded by the segment object, so both runs
        share one buffer and the policy parameters are restored between
        them.
        """
        policy, _, buffer = fresh_policy_and_segments(False, num_segments=1)
        initial = [p.data.copy() for p in policy.parameters()]
        results = {}
        for flag in (False, True):
            for param, data in zip(policy.parameters(), initial):
                param.data = data.copy()
            ppo = PPO(policy, PPOConfig(update_epochs=2, batch_segments=flag))
            ppo.update(buffer)
            results[flag] = [p.data.copy() for p in policy.parameters()]
        for a, b in zip(results[False], results[True]):
            np.testing.assert_array_equal(a, b)

    def test_multi_segment_buffer_takes_fewer_bigger_steps(self):
        """Same-length segments share one optimizer step per round."""
        policy, ppo, buffer = fresh_policy_and_segments(True, num_segments=3)
        steps = []
        original = ppo.optimizer.step

        def counting_step():
            steps.append(1)
            return original()

        ppo.optimizer.step = counting_step
        ppo.update(buffer)
        # 2 epochs x minibatches_per_segment(=2) rounds, segments stacked
        assert len(steps) == 2 * 2

    def test_recurrent_batched_update_changes_parameters(self):
        policy = RecurrentActorCritic(
            2, 1, np.random.default_rng(2), lstm_hidden=8, head_hidden=(16,)
        )
        rng = np.random.default_rng(3)
        buffer = RolloutBuffer()
        for i in range(2):
            env = TargetActionEnv(num_users=6, horizon=4, seed=i)
            buffer.add(collect_segment(env, policy, rng))
        buffer.finalize(0.99, 0.95)
        before = policy.actor.layers[0].weight.data.copy()
        ppo = PPO(policy, PPOConfig(update_epochs=1, batch_segments=True))
        ppo.update(buffer)
        assert not np.allclose(before, policy.actor.layers[0].weight.data)
