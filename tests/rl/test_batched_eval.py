"""Stacked-segment PPO evaluation: equivalence with the per-segment reference.

The contract under test (see :mod:`repro.rl.policies`):
``evaluate_segments_batched`` over same-length segments returns log-probs
/ values / entropies *bit-identical* to calling the reference
``evaluate_segment`` segment by segment — the learning-side mirror of the
rollout engine's determinism contract in :mod:`repro.rl.vec` — and the
PPO length-bucketed update, the learner's only path, handles ragged
buffers (lengths 1, T and anything between land in separate buckets)
and one-segment buckets.
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

    def test_base_class_has_no_fallback(self):
        """The stacked evaluation is abstract on the base class: a policy
        without an override fails loudly in the learner instead of
        evaluating segment by segment."""
        from repro.rl.policies import ActorCriticBase

        class PlainPolicy(MLPActorCritic):
            evaluate_segments_batched = ActorCriticBase.evaluate_segments_batched

        world = make_world(num_cities=2)
        policy = PlainPolicy(13, 2, np.random.default_rng(5), hidden_sizes=(8,))
        segments = collect_world_segments(world, policy)
        idxs = [np.arange(s.num_users) for s in segments]
        with pytest.raises(NotImplementedError):
            policy.evaluate_segments_batched(segments, idxs)
        buffer = RolloutBuffer()
        for segment in segments:
            buffer.add(segment)
        buffer.finalize(0.99, 0.95)
        with pytest.raises(NotImplementedError):
            PPO(policy, PPOConfig(update_epochs=1)).update(buffer)

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

    @pytest.mark.parametrize("layout", sorted(LAYOUTS), ids=lambda layout: f"lstm-{layout}")
    def test_sim2rec_gradients_match_per_segment(self, layout):
        policy = build_sim2rec_policy(13, 2, dpr_small_config(seed=0))
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

    def test_sim2rec_gradients_match_per_segment_on_ragged_runs(self):
        """Group sizes 7, 7, 5, 5, 7: three stacked SADAE runs, same
        gradients as one segment at a time."""
        policy = build_sim2rec_policy(13, 2, dpr_small_config(seed=0))
        seven = collect_world_segments(make_world(), policy)
        five = collect_world_segments(make_world(drivers_per_city=5, seed=4), policy)
        segments = [seven[0], seven[1], five[0], five[1], seven[2]]
        idxs = [np.arange(s.num_users)[::2] for s in segments]
        total = sum(len(idx) for idx in idxs)
        rng = np.random.default_rng(13)
        cotangents = [rng.standard_normal((segments[0].horizon, total)) for _ in range(3)]

        def batched():
            return zip(policy.evaluate_segments_batched(segments, idxs), cotangents)

        def per_segment():
            offset = 0
            for segment, idx in zip(segments, idxs):
                block = slice(offset, offset + len(idx))
                yield from zip(
                    policy.evaluate_segment(segment, idx), (c[:, block] for c in cotangents)
                )
                offset += len(idx)

        expected = parameter_gradients(policy, per_segment)
        actual = parameter_gradients(policy, batched)
        for name, grad in expected.items():
            scale = np.max(np.abs(grad))
            assert np.max(np.abs(actual[name] - grad)) <= 1e-10 * scale, name
        assert any(np.any(g != 0) for n, g in expected.items() if n.startswith("sadae."))

    @pytest.mark.parametrize("layout", ["equal", "ragged"])
    def test_one_sadae_context_per_cardinality_run(self, monkeypatch, layout):
        """Each run of consecutive equal-cardinality segments goes through
        one stacked ``embed_tensor`` call of shape ``(S·T, N, d)`` (the
        per-segment path made one call per segment), and the υ-noise
        stream ends where the per-segment path leaves it."""
        calls = []
        original = SADAE.embed_tensor

        def counting(self, states, actions, rng=None):
            calls.append(np.shape(states))
            return original(self, states, actions, rng)

        monkeypatch.setattr(SADAE, "embed_tensor", counting)
        policy = build_sim2rec_policy(13, 2, dpr_small_config(seed=0))
        seven = collect_world_segments(make_world(), policy)
        if layout == "equal":
            segments = seven
            expected = [(4 * 6, 7, 13)]
        else:
            # DPR-style ragged group sizes: runs (7, 7), (5, 5) and (7).
            five = collect_world_segments(make_world(drivers_per_city=5, seed=4), policy)
            segments = [seven[0], seven[1], five[0], five[1], seven[2]]
            expected = [(2 * 6, 7, 13), (2 * 6, 5, 13), (6, 7, 13)]
        idxs = [np.arange(s.num_users) for s in segments]
        assert_batched_eval_identical(policy, segments, idxs)
        policy._eval_rng = np.random.default_rng(7)
        for segment, idx in zip(segments, idxs):
            policy.evaluate_segment(segment, idx)
        per_segment_end = policy._eval_rng.bit_generator.state
        policy._eval_rng = np.random.default_rng(7)
        calls.clear()
        policy.evaluate_segments_batched(segments, idxs)
        assert calls == expected
        assert policy._eval_rng.bit_generator.state == per_segment_end


def fresh_policy_and_segments(num_segments=3, horizon=5, seed=9, policy=None):
    if policy is None:
        policy = MLPActorCritic(2, 1, np.random.default_rng(seed), hidden_sizes=(8,))
    rng = np.random.default_rng(seed + 1)
    buffer = RolloutBuffer()
    for i in range(num_segments):
        env = TargetActionEnv(num_users=6, horizon=horizon, seed=100 + i)
        buffer.add(collect_segment(env, policy, rng))
    buffer.finalize(0.99, 0.95)
    ppo = PPO(policy, PPOConfig(update_epochs=2))
    return policy, ppo, buffer


#: The policies a one-segment bucket must update alike through both
#: evaluations, on the 2-state, 1-action target task.
UPDATE_POLICIES = {
    "mlp": lambda rng: MLPActorCritic(2, 1, rng, hidden_sizes=(8,)),
    "lstm": lambda rng: RecurrentActorCritic(2, 1, rng, lstm_hidden=8, head_hidden=(16,)),
    "sim2rec": lambda rng: build_sim2rec_policy(2, 1, dpr_small_config(seed=0)),
}


def reference_update(ppo, buffer):
    """``PPO.update``'s minibatch rounds, each evaluated by ``evaluate_segment``.

    Same minibatch splits, targets and loss step as the learner; only the
    forward is the per-segment reference instead of the stacked pass.
    """
    for epoch in range(ppo.config.update_epochs):
        for index, segment in enumerate(buffer):
            for user_idx in ppo._user_minibatches(segment, epoch, index):
                targets = ppo._minibatch_targets(
                    segment, segment.normalized_advantages(), user_idx
                )
                outputs = ppo.policy.evaluate_segment(segment, user_idx)
                ppo._loss_step(*outputs, *targets)


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
        ppo = PPO(policy, PPOConfig(update_epochs=1))
        stats = ppo.update(buffer)
        assert np.isfinite(stats["policy_loss"])

    @pytest.mark.parametrize("kind", sorted(UPDATE_POLICIES))
    def test_single_segment_buffer_matches_the_reference_update(self, kind, monkeypatch):
        """A one-segment bucket goes through the stacked pass and updates
        like the per-segment reference: bit-identically for the MLP, and
        to 1e-10 relative for recurrent policies, whose fused unroll sums
        the BPTT gradient in another order.

        Both runs share one buffer and one policy instance; the parameters
        and the υ-noise stream are restored between them.
        """
        def forbidden(*args):
            raise AssertionError("PPO.update evaluated through the reference")

        policy = UPDATE_POLICIES[kind](np.random.default_rng(9))
        policy, _, buffer = fresh_policy_and_segments(num_segments=1, policy=policy)
        initial = [p.data.copy() for p in policy.parameters()]
        results = {}
        for name in ("reference", "update"):
            for param, data in zip(policy.parameters(), initial):
                param.data = data.copy()
            policy._eval_rng = np.random.default_rng(7)
            ppo = PPO(policy, PPOConfig(update_epochs=4))
            if name == "reference":
                reference_update(ppo, buffer)
            else:
                with monkeypatch.context() as patch:
                    patch.setattr(policy, "evaluate_segment", forbidden)
                    ppo.update(buffer)
            results[name] = [p.data.copy() for p in policy.parameters()]
        assert any(not np.array_equal(a, b) for a, b in zip(initial, results["update"]))
        for reference, updated in zip(results["reference"], results["update"]):
            if kind == "mlp":
                np.testing.assert_array_equal(updated, reference)
            else:
                np.testing.assert_allclose(updated, reference, rtol=1e-10, atol=0)

    def test_multi_segment_buffer_takes_fewer_bigger_steps(self):
        """Same-length segments share one optimizer step per round."""
        policy, ppo, buffer = fresh_policy_and_segments(num_segments=3)
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
        ppo = PPO(policy, PPOConfig(update_epochs=1))
        ppo.update(buffer)
        assert not np.allclose(before, policy.actor.layers[0].weight.data)
