"""Tests for probability distributions: likelihoods vs scipy, sampling stats,
KL identities, the product-of-Gaussians used by SADAE (Eq. 6)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.nn import Bernoulli, DiagGaussian, Tensor, product_of_gaussians

from ..helpers import check_gradients

RNG = np.random.default_rng(5)


class TestDiagGaussian:
    def test_log_prob_matches_scipy(self):
        mean = RNG.standard_normal((4, 3))
        log_std = RNG.standard_normal((4, 3)) * 0.2
        x = RNG.standard_normal((4, 3))
        dist = DiagGaussian(Tensor(mean), Tensor(log_std))
        expected = stats.norm.logpdf(x, loc=mean, scale=np.exp(log_std)).sum(axis=-1)
        np.testing.assert_allclose(dist.log_prob(x).data, expected, atol=1e-10)

    def test_entropy_matches_scipy(self):
        mean = np.zeros((2, 3))
        log_std = RNG.standard_normal((2, 3)) * 0.3
        dist = DiagGaussian(Tensor(mean), Tensor(log_std))
        expected = stats.norm.entropy(scale=np.exp(log_std)).sum(axis=-1)
        np.testing.assert_allclose(dist.entropy().data, expected, atol=1e-10)

    def test_kl_self_is_zero(self):
        mean = RNG.standard_normal((3, 2))
        log_std = RNG.standard_normal((3, 2)) * 0.1
        dist = DiagGaussian(Tensor(mean), Tensor(log_std))
        np.testing.assert_allclose(dist.kl(dist).data, np.zeros(3), atol=1e-12)

    def test_kl_against_monte_carlo(self):
        p = DiagGaussian(Tensor(np.array([0.5])), Tensor(np.array([0.1])))
        q = DiagGaussian(Tensor(np.array([-0.3])), Tensor(np.array([0.4])))
        samples = p.mean.data + np.exp(p.log_std.data) * RNG.standard_normal((200000, 1))
        log_p = stats.norm.logpdf(samples, 0.5, np.exp(0.1)).sum(-1)
        log_q = stats.norm.logpdf(samples, -0.3, np.exp(0.4)).sum(-1)
        mc_kl = (log_p - log_q).mean()
        np.testing.assert_allclose(p.kl(q).item(), mc_kl, atol=0.01)

    def test_sample_statistics(self):
        dist = DiagGaussian(Tensor(np.full((50000, 1), 2.0)), Tensor(np.full((50000, 1), np.log(0.5))))
        samples = dist.sample(RNG)
        np.testing.assert_allclose(samples.mean(), 2.0, atol=0.02)
        np.testing.assert_allclose(samples.std(), 0.5, atol=0.02)

    def test_rsample_gradient_flows(self):
        mean = Tensor(np.zeros(3), requires_grad=True)
        log_std = Tensor(np.zeros(3), requires_grad=True)
        dist = DiagGaussian(mean, log_std)
        sample = dist.rsample(np.random.default_rng(0))
        sample.sum().backward()
        assert mean.grad is not None
        assert log_std.grad is not None

    def test_log_std_clipping(self):
        dist = DiagGaussian(Tensor(np.zeros(2)), Tensor(np.array([100.0, -100.0])))
        assert dist.log_std.data[0] == DiagGaussian.LOG_STD_MAX
        assert dist.log_std.data[1] == DiagGaussian.LOG_STD_MIN

    def test_mode_is_mean(self):
        mean = RNG.standard_normal(4)
        dist = DiagGaussian(Tensor(mean), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(dist.mode(), mean)

    def test_log_prob_gradient(self):
        x = RNG.standard_normal(3)
        check_gradients(
            lambda t: DiagGaussian(t[0], t[1]).log_prob(x).sum(),
            [RNG.standard_normal(3), RNG.standard_normal(3) * 0.1],
        )


class TestBernoulli:
    def test_log_prob_matches_manual(self):
        logits = RNG.standard_normal(10)
        x = (RNG.random(10) < 0.5).astype(float)
        p = 1.0 / (1.0 + np.exp(-logits))
        expected = x * np.log(p) + (1 - x) * np.log(1 - p)
        ours = Bernoulli(Tensor(logits)).log_prob(x).data
        np.testing.assert_allclose(ours, expected, atol=1e-10)

    def test_sample_frequency(self):
        logits = np.full(20000, 1.0)
        samples = Bernoulli(Tensor(logits)).sample(RNG)
        np.testing.assert_allclose(samples.mean(), 1 / (1 + np.exp(-1.0)), atol=0.02)

    def test_entropy_max_at_half(self):
        dist = Bernoulli(Tensor(np.array([0.0])))
        np.testing.assert_allclose(dist.entropy().data, [np.log(2)], atol=1e-10)


class TestProductOfGaussians:
    def test_two_factor_closed_form(self):
        # Product of N(0,1) and N(2,1) is N(1, 1/2).
        means = Tensor(np.array([[0.0], [2.0]]))
        log_stds = Tensor(np.array([[0.0], [0.0]]))
        product = product_of_gaussians(means, log_stds, axis=0)
        np.testing.assert_allclose(product.mean.data, [1.0], atol=1e-12)
        np.testing.assert_allclose(np.exp(product.log_std.data) ** 2, [0.5], atol=1e-12)

    def test_precision_weighting(self):
        # A tight factor should dominate the product mean.
        means = Tensor(np.array([[0.0], [10.0]]))
        log_stds = Tensor(np.array([[np.log(0.01)], [np.log(10.0)]]))
        product = product_of_gaussians(means, log_stds, axis=0)
        assert abs(product.mean.data[0]) < 0.1

    def test_variance_shrinks_with_factors(self):
        for n in [1, 5, 25]:
            means = Tensor(np.zeros((n, 1)))
            log_stds = Tensor(np.zeros((n, 1)))
            product = product_of_gaussians(means, log_stds, axis=0)
            np.testing.assert_allclose(np.exp(product.log_std.data) ** 2, [1.0 / n], atol=1e-10)

    def test_matches_sequential_two_gaussian_products(self):
        rng = np.random.default_rng(11)
        means = rng.standard_normal((4, 2))
        stds = np.abs(rng.standard_normal((4, 2))) + 0.3
        product = product_of_gaussians(Tensor(means), Tensor(np.log(stds)), axis=0)
        # Reference: iterate the standard 2-Gaussian product formula.
        mean_ref, var_ref = means[0], stds[0] ** 2
        for i in range(1, 4):
            var_i = stds[i] ** 2
            new_var = 1.0 / (1.0 / var_ref + 1.0 / var_i)
            mean_ref = new_var * (mean_ref / var_ref + means[i] / var_i)
            var_ref = new_var
        np.testing.assert_allclose(product.mean.data, mean_ref, atol=1e-10)
        np.testing.assert_allclose(np.exp(2 * product.log_std.data), var_ref, atol=1e-10)

    def test_gradient_flows_to_all_factors(self):
        means = Tensor(RNG.standard_normal((3, 2)), requires_grad=True)
        log_stds = Tensor(RNG.standard_normal((3, 2)) * 0.1, requires_grad=True)
        product = product_of_gaussians(means, log_stds, axis=0)
        (product.mean.sum() + product.log_std.sum()).backward()
        assert means.grad is not None and np.all(np.abs(means.grad) > 0)
        assert log_stds.grad is not None

    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_product_variance_never_exceeds_min_factor(self, n):
        rng = np.random.default_rng(n)
        stds = np.abs(rng.standard_normal((n, 1))) + 0.1
        product = product_of_gaussians(
            Tensor(rng.standard_normal((n, 1))), Tensor(np.log(stds)), axis=0
        )
        product_var = float(np.exp(2 * product.log_std.data)[0])
        assert product_var <= float((stds**2).min()) + 1e-12
