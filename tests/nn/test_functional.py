"""Tests for composite differentiable functions (Gaussian log-density, losses)."""

import numpy as np
from scipy.stats import norm

from repro.nn import Tensor, gaussian_log_prob, mse_loss

from ..helpers import check_gradients

RNG = np.random.default_rng(1)


class TestGaussianLogProb:
    def test_matches_scipy(self):
        x = RNG.standard_normal(10)
        mean = RNG.standard_normal(10)
        log_std = RNG.standard_normal(10) * 0.3
        ours = gaussian_log_prob(Tensor(x), Tensor(mean), Tensor(log_std)).data
        expected = norm.logpdf(x, loc=mean, scale=np.exp(log_std))
        np.testing.assert_allclose(ours, expected, atol=1e-10)

    def test_gradient(self):
        x = RNG.standard_normal(4)
        check_gradients(
            lambda t: gaussian_log_prob(x, t[0], t[1]).sum(),
            [RNG.standard_normal(4), RNG.standard_normal(4) * 0.2],
        )


class TestLosses:
    def test_mse_zero_at_target(self):
        x = RNG.standard_normal(5)
        assert mse_loss(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_mse_value(self):
        loss = mse_loss(Tensor(np.array([1.0, 2.0])), Tensor(np.array([0.0, 0.0])))
        np.testing.assert_allclose(loss.item(), 2.5)

    def test_mse_gradient(self):
        target = RNG.standard_normal((3, 2))
        check_gradients(lambda t: mse_loss(t[0], target), [RNG.standard_normal((3, 2))])
