"""Tests for the simulator set Ω' and uncertainty U(s, a)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.envs import DPRConfig, DPRWorld, collect_dpr_dataset
from repro.sim import (
    SimulatorEnsemble,
    SimulatorLearnerConfig,
    build_simulator_set,
    train_user_simulator,
)


@pytest.fixture(scope="module")
def dpr_data():
    world = DPRWorld(DPRConfig(num_cities=3, drivers_per_city=12, horizon=10, seed=11))
    return collect_dpr_dataset(world, episodes=2)


@pytest.fixture(scope="module")
def ensemble(dpr_data):
    config = SimulatorLearnerConfig(hidden_sizes=(32, 32), epochs=30)
    return build_simulator_set(dpr_data, num_members=5, base_config=config, seed=0)


@pytest.fixture(scope="module")
def twelve_members(dpr_data):
    cfg = SimulatorLearnerConfig(hidden_sizes=(8,), epochs=1)
    return [train_user_simulator(dpr_data, replace(cfg, seed=100 + seed)) for seed in range(12)]


class TestConstruction:
    def test_member_count(self, ensemble):
        assert len(ensemble) == 5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SimulatorEnsemble([])

    def test_mixed_dims_raise(self, dpr_data):
        cfg = SimulatorLearnerConfig(hidden_sizes=(8,), epochs=1)
        good = train_user_simulator(dpr_data, cfg)
        rng_pairs = (np.zeros((10, 4)), np.zeros((10, 2)), np.zeros((10, 3)))
        bad = train_user_simulator(rng_pairs, cfg)
        with pytest.raises(ValueError):
            SimulatorEnsemble([good, bad])

    def test_members_differ(self, ensemble, dpr_data):
        s, a, _ = dpr_data.transition_pairs()
        p0 = ensemble[0].predict_mean(s[:20], a[:20])
        p1 = ensemble[1].predict_mean(s[:20], a[:20])
        assert not np.allclose(p0, p1)

    def test_sample_member_uniform(self, ensemble):
        rng = np.random.default_rng(0)
        seen = {id(ensemble.sample_member(rng)) for _ in range(100)}
        assert len(seen) == 5


class TestUncertainty:
    def test_shape(self, ensemble, dpr_data):
        s, a, _ = dpr_data.transition_pairs()
        u = ensemble.uncertainty(s[:20], a[:20])
        assert u.shape == (20,)
        assert np.all(u >= 0)

    def test_zero_for_identical_members(self, dpr_data):
        cfg = SimulatorLearnerConfig(hidden_sizes=(8,), epochs=2, seed=0)
        member = train_user_simulator(dpr_data, cfg)
        twin = train_user_simulator(dpr_data, cfg)
        ensemble = SimulatorEnsemble([member, twin])
        s, a, _ = dpr_data.transition_pairs()
        np.testing.assert_allclose(ensemble.uncertainty(s[:10], a[:10]), 0.0, atol=1e-10)

    def test_zero_for_single_member(self, ensemble, dpr_data):
        """A lone member is its own mean, so U(s, a) is exactly 0."""
        single = SimulatorEnsemble([ensemble[0]])
        s, a, _ = dpr_data.transition_pairs()
        np.testing.assert_array_equal(single.uncertainty(s[:20], a[:20]), np.zeros(20))

    def test_higher_off_data(self, ensemble, dpr_data):
        """Disagreement on counterfactual actions far outside the behaviour
        policy's range must exceed on-data disagreement (the premise of the
        uncertainty penalty)."""
        s, a, _ = dpr_data.transition_pairs()
        on_data = ensemble.uncertainty(s[:200], a[:200]).mean()
        extreme = np.column_stack([np.ones(200), np.zeros(200)])  # far from πₑ
        off_data = ensemble.uncertainty(s[:200], extreme).mean()
        assert off_data > on_data

    def test_is_mean_member_deviation(self, ensemble, dpr_data):
        """U(s, a) = E_j ‖μ_j(s, a) − μ̄(s, a)‖₂ over the continuous dims
        (Sec. V-C2)."""
        s, a, _ = dpr_data.transition_pairs()
        means = ensemble.predict_means(s[:30], a[:30])[:, :, ensemble[0].continuous_idx]
        expected = np.linalg.norm(means - means.mean(axis=0), axis=-1).mean(axis=0)
        np.testing.assert_allclose(ensemble.uncertainty(s[:30], a[:30]), expected, rtol=1e-12)

    @pytest.mark.parametrize("num_members", [2, 7, 8, 9, 12])
    def test_rows_do_not_depend_on_the_batch(self, dpr_data, num_members):
        """A row scored alone gets the bits it gets inside a batch: the
        penalty's U(s, a) must not depend on how many users share a
        segment step (numpy would sum a lone row's member axis pairwise)."""
        cfg = SimulatorLearnerConfig(hidden_sizes=(8,), epochs=1)
        members = [
            train_user_simulator(dpr_data, replace(cfg, seed=seed))
            for seed in range(num_members)
        ]
        ensemble = SimulatorEnsemble(members)
        s, a, _ = dpr_data.transition_pairs()
        batch = ensemble.uncertainty(s[:40], a[:40])
        alone = np.concatenate(
            [ensemble.uncertainty(s[i : i + 1], a[i : i + 1]) for i in range(40)]
        )
        np.testing.assert_array_equal(alone, batch)

    @pytest.mark.parametrize("num_members", [2, 7, 8, 9, 12])
    def test_batches_keep_numpys_reduction(self, twelve_members, dpr_data, num_members):
        """For two or more rows U is exactly numpy's two means: the penalty
        every DPR trainer applies to a segment step does not move."""
        ensemble = SimulatorEnsemble(twelve_members[:num_members])
        s, a, _ = dpr_data.transition_pairs()
        for rows in (2, 3, 40):
            predictions = ensemble.predict_means(s[:rows], a[:rows])
            cont = ensemble.members[0].continuous_idx
            if len(cont) > 0:
                predictions = predictions[:, :, cont]
            expected = np.linalg.norm(
                predictions - predictions.mean(axis=0, keepdims=True), axis=-1
            ).mean(axis=0)
            np.testing.assert_array_equal(ensemble.uncertainty(s[:rows], a[:rows]), expected)

    def test_predict_means_shape(self, ensemble, dpr_data):
        s, a, _ = dpr_data.transition_pairs()
        means = ensemble.predict_means(s[:7], a[:7])
        assert means.shape == (5, 7, 3)


class TestSplit:
    def test_split_partitions(self, ensemble):
        train, held = ensemble.split([0, 2])
        assert len(train) == 3
        assert len(held) == 2

    def test_split_identity_preserved(self, ensemble):
        train, held = ensemble.split([4])
        assert held[0] is ensemble[4]
        assert ensemble[4] not in train.members

    def test_split_invalid_index_raises(self, ensemble):
        with pytest.raises(ValueError):
            ensemble.split([99])

    def test_split_cannot_hold_out_everything(self, ensemble):
        with pytest.raises(ValueError):
            ensemble.split([0, 1, 2, 3, 4])
