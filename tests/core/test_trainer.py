"""Tests for the Algorithm 1 trainers (LTS scenarios and the DPR backend)."""

import numpy as np
import pytest

from repro.core import (
    Sim2RecDPRTrainer,
    build_sim2rec_policy,
    dpr_small_config,
    lts_small_config,
    scenario_small_config,
    train_sadae,
)
from repro.core.trainer import sadae_step
from repro.envs import DPRConfig, DPRWorld, collect_dpr_dataset, make_lts_task
from repro.rl import collect_segment, split_rng
from repro.rl.parity import assert_segments_identical
from repro.scenarios import trainer_from_config
from repro.sim import SimulatorLearnerConfig, build_simulator_set

LTS_SPEC = {"family": "lts", "task": "LTS3", "num_users": 20, "horizon": 15, "seed": 0}


@pytest.fixture(scope="module")
def lts_setup():
    config = lts_small_config(seed=0)
    task = make_lts_task("LTS3", num_users=20, horizon=15, seed=0)
    trainer = trainer_from_config(config, LTS_SPEC)
    return config, task, trainer.sim2rec_policy, trainer


@pytest.fixture(scope="module")
def dpr_setup():
    world = DPRWorld(DPRConfig(num_cities=2, drivers_per_city=10, horizon=10, seed=41))
    dataset = collect_dpr_dataset(world, episodes=2)
    ensemble = build_simulator_set(
        dataset,
        num_members=3,
        base_config=SimulatorLearnerConfig(hidden_sizes=(32, 32), epochs=25),
        seed=0,
    )
    return world, dataset, ensemble


class TestLTSTrainer:
    def test_iteration_produces_metrics(self, lts_setup):
        _, _, _, trainer = lts_setup
        metrics = trainer.train_iteration()
        for key in ("reward", "shaped_reward", "policy_loss", "value_loss"):
            assert key in metrics

    def test_training_logs_history(self, lts_setup):
        _, _, _, trainer = lts_setup
        start = len(trainer.logger.series("reward"))
        trainer.train(2)
        assert len(trainer.logger.series("reward")) == start + 2

    def test_pretrain_sadae_reduces_loss(self, lts_setup):
        config, _, _, _ = lts_setup
        trainer = trainer_from_config(config, LTS_SPEC)
        losses = trainer.pretrain_sadae(epochs=8)
        assert losses[-1] < losses[0]

    def test_env_sampler_draws_from_task_set(self, lts_setup):
        _, task, _, trainer = lts_setup
        rng = np.random.default_rng(0)
        omega_gs = {trainer.env_sampler(rng).group_id for _ in range(40)}
        assert omega_gs <= set(float(w) for w in task.train_omega_gs)
        assert len(omega_gs) > 1

    def test_iteration_logs_the_mean_sadae_loss(self, lts_setup):
        config, _, _, _ = lts_setup
        trainer = trainer_from_config(config, LTS_SPEC)
        update = trainer.after_update
        seen = []

        def spy():
            seen.append(update())
            return seen[-1]

        trainer.after_update = spy
        metrics = trainer.train_iteration()
        assert len(seen[0]) == config.sadae_updates_per_iteration
        assert metrics["sadae_loss"] == float(np.mean(seen[0]))
        assert np.isfinite(metrics["sadae_loss"])
        assert trainer.logger.series("sadae_loss") == [metrics["sadae_loss"]]

    def test_no_sadae_update_logs_no_sadae_loss(self):
        config = lts_small_config(seed=0)
        config.sadae_updates_per_iteration = 0
        trainer = trainer_from_config(config, LTS_SPEC)
        metrics = trainer.train_iteration()
        assert "sadae_loss" not in metrics
        assert all(np.isfinite(value) for value in metrics.values())


#: Collect set-ups: a slate population of one env, so every pool round
#: holds a lone env; three slate envs sampled four times, so rounds pool
#: envs and defer repeats; and LTS with per-draw user resampling, which
#: rolls each simulator out as soon as it is drawn.
COLLECT_CASES = {
    "slate_lone_env": (
        scenario_small_config,
        {"family": "slate", "num_envs": 1, "num_users": 6, "horizon": 6, "seed": 1},
    ),
    "slate_pooled": (
        scenario_small_config,
        {"family": "slate", "num_envs": 3, "num_users": 6, "horizon": 6, "seed": 1},
    ),
    "lts_resample_users": (
        lts_small_config,
        {"family": "lts", "beta": 4.0, "num_users": 8, "horizon": 6, "seed": 1,
         "resample_users": True},
    ),
}


def reference_collect(twin, policy):
    """The segments ``PolicyTrainer.collect`` must return, rolled out env by
    env with ``collect_segment``.

    ``twin`` is a second trainer built from the same config and spec, so
    its envs and ``rng`` are copies of the collecting trainer's; ``policy``
    is the collecting trainer's own instance. A resampling draw rolls out
    on ``twin.rng`` itself; otherwise every draw gets its own child of it.
    """
    config = twin.config
    count, max_steps = config.segments_per_iteration, config.truncate_horizon
    if twin._sequential_collect:
        segments = []
        for _ in range(count):
            env = twin.env_sampler(twin.rng)
            segments.append(collect_segment(env, policy, twin.rng, max_steps=max_steps))
        return segments
    envs = [twin.env_sampler(twin.rng) for _ in range(count)]
    return [
        collect_segment(env, policy, stream, max_steps=max_steps)
        for env, stream in zip(envs, split_rng(twin.rng, count))
    ]


class TestCollectMatchesReference:
    """``PolicyTrainer.collect`` rolls out only through
    ``collect_segments_vec``, and that is bit-identical to the sequential
    ``collect_segment`` loop on copies of the same envs and streams."""

    @pytest.mark.parametrize("case", sorted(COLLECT_CASES))
    def test_collect_equals_the_sequential_reference(self, case):
        make_config, spec = COLLECT_CASES[case]

        def build():
            config = make_config(seed=3)
            config.segments_per_iteration = 4
            config.truncate_horizon = 5
            return trainer_from_config(config, spec)

        trainer, twin = build(), build()
        assert trainer._sequential_collect == (case == "lts_resample_users")
        for _ in range(2):  # the second round starts from advanced envs
            buffer, _ = trainer.collect()
            expected = reference_collect(twin, trainer.policy)
            assert_segments_identical(expected, buffer.segments, label=case)
            assert trainer.rng.bit_generator.state == twin.rng.bit_generator.state


def _sadae_and_sets(config, count=6):
    rng = np.random.default_rng(3)
    sadae = build_sim2rec_policy(2, 1, config).sadae
    sets = [(rng.normal(size=(5, 2)), rng.random((5, 1))) for _ in range(count)]
    sadae.fit_normalizer(sets)
    return sadae, sets


class TestSADAEStep:
    def test_returns_train_sadae_losses_on_a_sample_of_the_sets(self):
        """The shared Eq. (8) step draws its sets, then trains on them
        exactly as a direct train_sadae call with the same draws."""
        config = lts_small_config(seed=0)
        config.sadae_updates_per_iteration = 3
        config.sadae_sets_per_update = 4
        sadae, sets = _sadae_and_sets(config)
        reference, _ = _sadae_and_sets(config)
        losses = sadae_step(sadae, sets, config, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        indices = rng.choice(len(sets), size=4, replace=False)
        expected = train_sadae(
            reference, [sets[i] for i in indices], epochs=3, rng=rng,
            fit_normalizer=False,
        )
        assert losses == expected and len(losses) == 3
        for mine, theirs in zip(sadae.parameters(), reference.parameters()):
            np.testing.assert_array_equal(mine.data, theirs.data)

    @pytest.mark.parametrize("case", ["no_sets", "updates_off"])
    def test_no_update_returns_no_losses_and_draws_nothing(self, case):
        config = lts_small_config(seed=0)
        sadae, sets = _sadae_and_sets(config)
        if case == "no_sets":
            sets = []
        else:
            config.sadae_updates_per_iteration = 0
        before = [param.data.copy() for param in sadae.parameters()]
        rng = np.random.default_rng(5)
        assert sadae_step(sadae, sets, config, rng) == []
        assert rng.random() == np.random.default_rng(5).random()
        for param, old in zip(sadae.parameters(), before):
            np.testing.assert_array_equal(param.data, old)


class TestDPRTrainer:
    def make_trainer(self, dpr_setup, config=None):
        _, dataset, ensemble = dpr_setup
        config = config or dpr_small_config(seed=0)
        policy = build_sim2rec_policy(dataset.state_dim, dataset.action_dim, config)
        return Sim2RecDPRTrainer(policy, ensemble, dataset, config), config

    def test_iteration_runs(self, dpr_setup):
        trainer, _ = self.make_trainer(dpr_setup)
        metrics = trainer.train_iteration()
        assert "reward" in metrics

    def test_iteration_logs_sadae_loss(self, dpr_setup):
        trainer, config = self.make_trainer(dpr_setup)
        metrics = trainer.train_iteration()
        assert config.sadae_updates_per_iteration > 0
        assert np.isfinite(metrics["sadae_loss"])

    def test_trend_filter_computed_per_group(self, dpr_setup):
        trainer, _ = self.make_trainer(dpr_setup)
        _, dataset, _ = dpr_setup
        assert set(trainer.trend_results) == set(dataset.group_ids)

    def test_trend_filter_disabled_in_ee_ablation(self, dpr_setup):
        config = dpr_small_config(seed=0).ablate_extrapolation_error_handling()
        trainer, _ = self.make_trainer(dpr_setup, config)
        assert trainer.trend_results == {}

    def test_rollouts_truncated_at_tc(self, dpr_setup):
        trainer, config = self.make_trainer(dpr_setup)
        rng = np.random.default_rng(0)
        env = trainer.env_sampler(rng)
        assert env.horizon == config.truncate_horizon

    def test_pe_ablation_uses_full_horizon_env(self, dpr_setup):
        config = dpr_small_config(seed=0).ablate_prediction_error_handling()
        trainer, _ = self.make_trainer(dpr_setup, config)
        metrics = trainer.train_iteration()  # must run without penalty
        assert "reward" in metrics

    def test_uncertainty_penalty_lowers_shaped_reward(self, dpr_setup):
        base_config = dpr_small_config(seed=0)
        # disable exec filter so the only difference is the penalty
        base_config.use_exec_filter = False
        base_config.use_trend_filter = False
        trainer, _ = self.make_trainer(dpr_setup, base_config)

        pe_config = dpr_small_config(seed=0)
        pe_config.use_exec_filter = False
        pe_config.use_trend_filter = False
        pe_config = pe_config.ablate_prediction_error_handling()
        pe_config.truncate_horizon = base_config.truncate_horizon  # same length
        trainer_pe, _ = self.make_trainer(dpr_setup, pe_config)

        m_with = trainer.train_iteration()
        m_without = trainer_pe.train_iteration()
        assert m_with["shaped_reward"] <= m_with["reward"]
        np.testing.assert_allclose(m_without["shaped_reward"], m_without["reward"], rtol=1e-9)

    def test_sadae_pretraining_runs(self, dpr_setup):
        trainer, _ = self.make_trainer(dpr_setup)
        losses = trainer.pretrain_sadae(epochs=2)
        assert len(losses) == 2

    def test_reward_improves_over_training(self, dpr_setup):
        """End-to-end smoke: simulated reward should trend upward."""
        trainer, _ = self.make_trainer(dpr_setup)
        trainer.pretrain_sadae(epochs=3)
        trainer.train(12)
        rewards = trainer.logger.series("reward")
        assert np.mean(rewards[-4:]) > np.mean(rewards[:4]) - 1.0
