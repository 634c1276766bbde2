"""Tests for composite differentiable functions (softmax, losses)."""

import numpy as np
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import norm

from repro.nn import (
    Tensor,
    gaussian_log_prob,
    log_softmax,
    logsumexp,
    mse_loss,
    softmax,
)

from ..helpers import check_gradients

RNG = np.random.default_rng(1)


class TestSoftmax:
    def test_sums_to_one(self):
        logits = RNG.standard_normal((4, 5))
        probs = softmax(Tensor(logits)).data
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_matches_scipy(self):
        logits = RNG.standard_normal((3, 6))
        expected = np.exp(logits - scipy_logsumexp(logits, axis=-1, keepdims=True))
        np.testing.assert_allclose(softmax(Tensor(logits)).data, expected, atol=1e-12)

    def test_stable_for_large_logits(self):
        logits = np.array([[1000.0, 1001.0, 999.0]])
        probs = softmax(Tensor(logits)).data
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(), 1.0)

    def test_gradient(self):
        logits = RNG.standard_normal((2, 4))
        weights = RNG.standard_normal((2, 4))
        check_gradients(lambda t: (softmax(t[0]) * weights).sum(), [logits])


class TestLogsumexp:
    def test_matches_scipy(self):
        logits = RNG.standard_normal((3, 5))
        ours = logsumexp(Tensor(logits), axis=-1).data
        np.testing.assert_allclose(ours, scipy_logsumexp(logits, axis=-1), atol=1e-12)

    def test_keepdims(self):
        logits = RNG.standard_normal((3, 5))
        out = logsumexp(Tensor(logits), axis=-1, keepdims=True)
        assert out.shape == (3, 1)

    def test_gradient(self):
        logits = RNG.standard_normal((2, 3))
        check_gradients(lambda t: logsumexp(t[0], axis=-1).sum(), [logits])


class TestLogSoftmax:
    def test_exp_sums_to_one(self):
        logits = RNG.standard_normal((4, 5))
        out = log_softmax(Tensor(logits)).data
        np.testing.assert_allclose(np.exp(out).sum(axis=-1), np.ones(4), atol=1e-12)

    def test_gradient(self):
        logits = RNG.standard_normal((2, 4))
        weights = RNG.standard_normal((2, 4))
        check_gradients(lambda t: (log_softmax(t[0]) * weights).sum(), [logits])


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
