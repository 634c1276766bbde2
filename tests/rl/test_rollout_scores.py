"""What a rollout records is what the learner recomputes, bit for bit.

``act`` runs the graph-free array step (``MLP.infer``, the recurrent
cells' ``infer``, the array Gaussian head and ``SADAE.embed``), while
``evaluate_segment`` and ``evaluate_segments_batched`` recompute the
same quantities through the autodiff graph. At unchanged parameters the
log-probs and values a collected segment stores must equal the
recomputed ones exactly, so PPO's first importance ratio is exactly 1
and its first value loss starts from the stored baseline. That holds
for segments collected one env at a time and for segments collected in
one pool, where group context must come from each env's own users.
"""

import numpy as np
import pytest

from benchmarks.test_ablation_context import StatsContextPolicy
from repro.core import SADAE, SADAEConfig, Sim2RecPolicy
from repro.envs import DPRConfig, DPRWorld
from repro.rl import (
    MLPActorCritic,
    RecurrentActorCritic,
    collect_segment,
    collect_segments_vec,
)


def make_sim2rec(state_dim, action_dim, rng):
    sadae = SADAE(
        state_dim,
        action_dim,
        SADAEConfig(latent_dim=4, encoder_hidden=(16,), decoder_hidden=(16,), seed=0),
    )
    return Sim2RecPolicy(
        state_dim,
        action_dim,
        sadae,
        rng,
        fc_sizes=(8, 4),
        lstm_hidden=8,
        head_hidden=(16,),
        sample_embedding=False,
    )


POLICIES = {
    "mlp": lambda ds, da, rng: MLPActorCritic(ds, da, rng, hidden_sizes=(8, 8)),
    "lstm": lambda ds, da, rng: RecurrentActorCritic(
        ds, da, rng, lstm_hidden=8, head_hidden=(16,)
    ),
    "gru": lambda ds, da, rng: RecurrentActorCritic(
        ds, da, rng, lstm_hidden=8, head_hidden=(16,), cell="gru"
    ),
    "sim2rec": make_sim2rec,
    # The context ablation's mean/std group statistics.
    "stats": lambda ds, da, rng: StatsContextPolicy(
        ds, da, rng, lstm_hidden=8, head_hidden=(16,)
    ),
}

COLLECTORS = {
    "collect_segment": lambda envs, policy, rngs: [
        collect_segment(env, policy, rng) for env, rng in zip(envs, rngs)
    ],
    "collect_segments_vec": collect_segments_vec,
}


def collect(kind, collector):
    world = DPRWorld(DPRConfig(num_cities=3, drivers_per_city=5, horizon=6, seed=3))
    policy = POLICIES[kind](13, 2, np.random.default_rng(4))
    envs = world.make_all_city_envs()
    rngs = [np.random.default_rng(40 + index) for index in range(len(envs))]
    return policy, COLLECTORS[collector](envs, policy, rngs)


@pytest.mark.parametrize("collector", sorted(COLLECTORS))
@pytest.mark.parametrize("kind", sorted(POLICIES))
def test_evaluate_segment_recomputes_the_stored_scores(kind, collector):
    policy, segments = collect(kind, collector)
    for segment in segments:
        every = np.arange(segment.num_users)
        for users in (every, every[::2]):
            log_probs, values, _ = policy.evaluate_segment(segment, users)
            assert np.array_equal(log_probs.data, segment.log_probs[:, users])
            assert np.array_equal(values.data, segment.values[:, users])


@pytest.mark.parametrize("collector", sorted(COLLECTORS))
@pytest.mark.parametrize("kind", sorted(POLICIES))
def test_evaluate_segments_batched_recomputes_the_stored_scores(kind, collector):
    policy, segments = collect(kind, collector)
    users = [np.arange(segment.num_users) for segment in segments]
    log_probs, values, _ = policy.evaluate_segments_batched(segments, users)
    assert np.array_equal(
        log_probs.data, np.concatenate([s.log_probs for s in segments], axis=1)
    )
    assert np.array_equal(values.data, np.concatenate([s.values for s in segments], axis=1))
