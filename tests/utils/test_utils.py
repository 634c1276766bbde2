"""Tests for seeding, normalisation and logging utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    MetricLogger,
    RunningMeanStd,
    make_rng,
    spawn_rngs,
)


class TestSeeding:
    def test_make_rng_deterministic(self):
        assert make_rng(5).integers(0, 1000) == make_rng(5).integers(0, 1000)

    def test_make_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(0, 3)
        draws = [r.integers(0, 10**9) for r in rngs]
        assert len(set(draws)) == 3

    def test_spawn_rngs_reproducible(self):
        d1 = [r.integers(0, 10**9) for r in spawn_rngs(42, 3)]
        d2 = [r.integers(0, 10**9) for r in spawn_rngs(42, 3)]
        assert d1 == d2


class TestRunningMeanStd:
    def test_matches_batch_statistics(self):
        rng = np.random.default_rng(0)
        data = rng.normal(3.0, 2.0, (1000, 4))
        rms = RunningMeanStd(shape=(4,))
        for chunk in np.array_split(data, 10):
            rms.update(chunk)
        # The epsilon-count initialisation introduces a tiny bias.
        np.testing.assert_allclose(rms.mean, data.mean(axis=0), rtol=1e-5)
        np.testing.assert_allclose(rms.var, data.var(axis=0), rtol=1e-5)

    def test_normalize_standardises(self):
        rng = np.random.default_rng(1)
        data = rng.normal(-5.0, 3.0, (2000,))
        rms = RunningMeanStd(shape=())
        rms.update(data)
        normalised = rms.normalize(data)
        np.testing.assert_allclose(normalised.mean(), 0.0, atol=1e-2)
        np.testing.assert_allclose(normalised.std(), 1.0, atol=1e-2)

    def test_normalize_clips(self):
        rms = RunningMeanStd(shape=())
        rms.update(np.zeros(100) + np.random.default_rng(0).normal(0, 1, 100))
        assert abs(rms.normalize(np.array([1e9]), clip=5.0)[0]) <= 5.0

    def test_denormalize_roundtrip(self):
        rng = np.random.default_rng(2)
        data = rng.normal(7.0, 0.5, (500, 2))
        rms = RunningMeanStd(shape=(2,))
        rms.update(data)
        roundtrip = rms.denormalize(rms.normalize(data[:10], clip=100.0))
        np.testing.assert_allclose(roundtrip, data[:10], atol=1e-8)

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_incremental_equals_oneshot(self, chunks):
        rng = np.random.default_rng(chunks)
        data = rng.standard_normal((120, 2))
        incremental = RunningMeanStd(shape=(2,))
        for chunk in np.array_split(data, chunks):
            incremental.update(chunk)
        oneshot = RunningMeanStd(shape=(2,))
        oneshot.update(data)
        np.testing.assert_allclose(incremental.mean, oneshot.mean, atol=1e-10)
        np.testing.assert_allclose(incremental.var, oneshot.var, atol=1e-10)


class TestMetricLogger:
    def test_series_in_order(self):
        logger = MetricLogger()
        logger.log(0, reward=1.0)
        logger.log(1, reward=2.0)
        assert logger.series("reward") == [1.0, 2.0]
        assert logger.steps("reward") == [0, 1]

    def test_last_and_default(self):
        logger = MetricLogger()
        assert logger.last("missing") is None
        assert logger.last("missing", default=3.0) == 3.0
        logger.log(0, x=5.0)
        assert logger.last("x") == 5.0

    def test_mean_with_window(self):
        logger = MetricLogger()
        for step, value in enumerate([1.0, 2.0, 3.0, 4.0]):
            logger.log(step, m=value)
        assert logger.mean("m") == 2.5
        assert logger.mean("m", last_n=2) == 3.5

    def test_mean_missing_raises(self):
        with pytest.raises(KeyError):
            MetricLogger().mean("nope")

    def test_multiple_metrics_per_step(self):
        logger = MetricLogger()
        logger.log(0, a=1.0, b=2.0)
        assert logger.series("a") == [1.0]
        assert logger.series("b") == [2.0]
