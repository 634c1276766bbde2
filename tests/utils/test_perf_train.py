"""The training bench: what it times and what it records."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core import SADAE, SADAEConfig
from repro.envs import DPRConfig, DPRWorld
from repro.rl import PPO, PPOConfig, RecurrentActorCritic, RolloutBuffer, collect_segments_vec

ROOT = Path(__file__).resolve().parents[2]

TINY = DPRConfig(num_cities=3, drivers_per_city=4, horizon=4, seed=1)


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "perf_train", ROOT / "benchmarks" / "perf_train.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_buffer(policy):
    envs = DPRWorld(TINY).make_all_city_envs()
    rngs = [np.random.default_rng(1000 + i) for i in range(len(envs))]
    buffer = RolloutBuffer()
    for segment in collect_segments_vec(envs, policy, rngs, max_steps=3):
        buffer.add(segment)
    buffer.finalize(0.99, 0.95)
    return buffer


def test_rounds_are_the_ones_ppo_update_runs(bench, monkeypatch):
    """The ``ppo_update`` records time the stacked rounds ``PPO.update``
    evaluates, member for member, and recording them learns nothing."""
    policy = RecurrentActorCritic(
        13, 2, np.random.default_rng(0), lstm_hidden=8, head_hidden=(16,)
    )
    buffer = tiny_buffer(policy)
    before = [param.data.copy() for param in policy.parameters()]
    rounds = bench.minibatch_rounds(policy, buffer, epochs=2)
    for param, data in zip(policy.parameters(), before):
        np.testing.assert_array_equal(param.data, data)

    evaluated = []
    original = policy.evaluate_segments_batched

    def recording(segments, user_idxs):
        evaluated.append(list(zip(segments, user_idxs)))
        return original(segments, user_idxs)

    monkeypatch.setattr(policy, "evaluate_segments_batched", recording)
    PPO(policy, PPOConfig(update_epochs=2)).update(buffer)
    assert len(rounds) == len(evaluated) > 0
    for recorded, ran in zip(rounds, evaluated):
        assert [segment for segment, _ in recorded] == [segment for segment, _ in ran]
        for (_, recorded_idx), (_, ran_idx) in zip(recorded, ran):
            np.testing.assert_array_equal(recorded_idx, ran_idx)


def test_ppo_record_is_parity_checked(bench):
    record = bench.bench_ppo_update("tiny", TINY, horizon=3, repeats=2)
    assert record["kind"] == "ppo_update"
    assert record["equivalent"] is True
    assert record["pairs"] == 2
    assert record["total_users"] == 12
    assert record["rounds"] > 0
    assert record["speedup"] == pytest.approx(
        record["sequential_s"] / record["batched_s"], rel=1e-2
    )


def test_sadae_record_is_parity_checked(bench):
    record = bench.bench_sadae_epoch("tiny", num_sets=4, set_size=10, repeats=2)
    assert record["kind"] == "sadae_epoch"
    assert record["equivalent"] is True
    assert record["pairs"] == 2
    assert record["steps"] == 2  # two epochs of one 4-set step
    assert record["speedup"] == pytest.approx(
        record["sequential_s"] / record["batched_s"], rel=1e-2
    )


def test_elbo_check_catches_a_last_bit_difference(bench, monkeypatch):
    rng = np.random.default_rng(0)
    sets = [(rng.normal(0, 1, (10, 2)), rng.normal(0, 1, (10, 1))) for _ in range(4)]
    sadae = SADAE(
        2, 1, SADAEConfig(latent_dim=4, encoder_hidden=(16,), decoder_hidden=(16,), seed=0)
    )
    sadae.fit_normalizer(sets)
    bench.verify_elbo_equivalence(sadae, [sets])
    original = sadae.elbo_batch

    def nudged(step, noise):
        values = original(step, noise)
        return [values[0] * (1.0 + 1e-15), *values[1:]]

    monkeypatch.setattr(sadae, "elbo_batch", nudged)
    with pytest.raises(AssertionError, match="ELBO"):
        bench.verify_elbo_equivalence(sadae, [sets])
