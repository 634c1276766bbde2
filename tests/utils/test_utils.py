"""Tests for the seeding and logging utilities."""

import numpy as np
import pytest

from repro.utils import MetricLogger, make_rng


class TestSeeding:
    def test_make_rng_deterministic(self):
        assert make_rng(5).integers(0, 1000) == make_rng(5).integers(0, 1000)

    def test_make_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng


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
