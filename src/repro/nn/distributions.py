"""Differentiable probability distributions.

Used by the Gaussian policy head (PPO), the SADAE encoder/decoders
(reparameterised sampling, Theorem 4.1 likelihoods) and the categorical
decoders for discrete state features in DPR.
"""

from __future__ import annotations

import numpy as np

from .functional import LOG_2PI, gaussian_log_prob, log_softmax, softmax
from .tensor import Tensor, as_tensor


class DiagGaussian:
    """Diagonal Gaussian with differentiable mean / log-std.

    ``mean`` and ``log_std`` broadcast against each other; ``log_std`` is
    clipped into a sane range at construction to keep likelihoods finite.
    """

    LOG_STD_MIN = -10.0
    LOG_STD_MAX = 4.0

    def __init__(self, mean: Tensor, log_std: Tensor):
        self.mean = as_tensor(mean)
        self.log_std = as_tensor(log_std).clip(self.LOG_STD_MIN, self.LOG_STD_MAX)

    @property
    def std(self) -> Tensor:
        return self.log_std.exp()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a sample (no gradient; use :meth:`rsample` for reparam)."""
        noise = rng.standard_normal(np.broadcast_shapes(self.mean.shape, self.log_std.shape))
        return self.mean.data + np.exp(self.log_std.data) * noise

    def rsample(self, rng: np.random.Generator) -> Tensor:
        """Reparameterised sample: gradients flow to mean and log_std."""
        noise = rng.standard_normal(np.broadcast_shapes(self.mean.shape, self.log_std.shape))
        return self.mean + self.std * Tensor(noise)

    def log_prob(self, value) -> Tensor:
        """Sum of per-dimension log densities over the last axis."""
        per_dim = gaussian_log_prob(as_tensor(value), self.mean, self.log_std)
        return per_dim.sum(axis=-1)

    def entropy(self) -> Tensor:
        log_std = self.log_std
        if log_std.shape != self.mean.shape:
            log_std = log_std + self.mean * 0.0  # broadcast to event shape
        return (log_std + 0.5 * (1.0 + LOG_2PI)).sum(axis=-1)

    def kl(self, other: "DiagGaussian") -> Tensor:
        """KL(self || other), summed over the last axis (analytic)."""
        var_ratio = ((self.log_std - other.log_std) * 2.0).exp()
        mean_term = ((self.mean - other.mean) * (-other.log_std).exp()) ** 2.0
        per_dim = (var_ratio + mean_term - 1.0) * 0.5 - (self.log_std - other.log_std)
        return per_dim.sum(axis=-1)

    def mode(self) -> np.ndarray:
        return self.mean.data.copy()


def _clip_log_std(log_std: np.ndarray) -> np.ndarray:
    # ``np.clip``'s bounds as two selections (no arithmetic, so the same
    # bits, NaN included) without its Python-level dispatch.
    return np.minimum(
        np.maximum(log_std, DiagGaussian.LOG_STD_MIN), DiagGaussian.LOG_STD_MAX
    )


def diag_gaussian_sample(
    mean: np.ndarray, log_std: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """``DiagGaussian(mean, log_std).sample(rng)`` on arrays.

    The graph-free head of the rollout step: the same log-std clip, one
    ``mean.shape`` standard-normal draw (``log_std`` broadcasts over the
    last axis) and the same arithmetic, so draws and results are
    bit-identical to the ``DiagGaussian`` path.
    """
    log_std = _clip_log_std(log_std)
    return mean + np.exp(log_std) * rng.standard_normal(mean.shape)


def diag_gaussian_log_prob(
    value: np.ndarray, mean: np.ndarray, log_std: np.ndarray
) -> np.ndarray:
    """``DiagGaussian(mean, log_std).log_prob(value).data`` on arrays.

    :func:`~repro.nn.functional.gaussian_log_prob` op for op (in place
    on fresh buffers), summed over the last axis: bit-identical.
    """
    log_std = _clip_log_std(log_std)
    z = value - mean
    z *= np.exp(-log_std)
    per_dim = z * z
    per_dim *= -0.5
    per_dim -= log_std
    per_dim -= 0.5 * LOG_2PI
    return per_dim.sum(axis=-1)


class Categorical:
    """Categorical distribution parameterised by logits (last axis)."""

    def __init__(self, logits: Tensor):
        self.logits = as_tensor(logits)

    def probs(self) -> Tensor:
        return softmax(self.logits, axis=-1)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        probs = self.probs().data
        flat = probs.reshape(-1, probs.shape[-1])
        cumulative = np.cumsum(flat, axis=-1)
        draws = rng.random((flat.shape[0], 1))
        indices = (draws > cumulative).sum(axis=-1)
        return indices.reshape(probs.shape[:-1])

    def log_prob(self, value) -> Tensor:
        log_probs = log_softmax(self.logits, axis=-1)
        indices = np.asarray(value, dtype=np.int64)
        if log_probs.ndim == 1:
            return log_probs[int(indices)]
        flat = log_probs.reshape(-1, log_probs.shape[-1])
        rows = np.arange(flat.shape[0])
        picked = flat[rows, indices.reshape(-1)]
        return picked.reshape(indices.shape)

    def entropy(self) -> Tensor:
        log_probs = log_softmax(self.logits, axis=-1)
        return -(log_probs.exp() * log_probs).sum(axis=-1)

    def kl(self, other: "Categorical") -> Tensor:
        log_p = log_softmax(self.logits, axis=-1)
        log_q = log_softmax(other.logits, axis=-1)
        return (log_p.exp() * (log_p - log_q)).sum(axis=-1)

    def mode(self) -> np.ndarray:
        return np.argmax(self.logits.data, axis=-1)


class Bernoulli:
    """Bernoulli distribution parameterised by a logit."""

    def __init__(self, logits: Tensor):
        self.logits = as_tensor(logits)

    def probs(self) -> Tensor:
        return self.logits.sigmoid()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return (rng.random(self.logits.shape) < self.probs().data).astype(np.float64)

    def log_prob(self, value) -> Tensor:
        value = as_tensor(value)
        # log p = x*log(sigmoid) + (1-x)*log(1-sigmoid), computed stably.
        relu_term = self.logits.maximum(0.0)
        abs_logits = self.logits.abs()
        log_term = ((-abs_logits).exp() + 1.0).log()
        return self.logits * value - relu_term - log_term

    def entropy(self) -> Tensor:
        p = self.probs()
        eps = 1e-12
        return -(p * (p + eps).log() + (1.0 - p) * (1.0 - p + eps).log())


def product_of_gaussians(means: Tensor, log_stds: Tensor, axis: int = 0) -> DiagGaussian:
    """Closed-form product of independent Gaussian factors along ``axis``.

    This implements Eq. (6) of the paper: ``q(υ|X) = Π_i q(υ|s_i, a_i)``.
    Each factor contributes precision ``1/σ_i²``; the product is Gaussian
    with precision ``Σ 1/σ_i²`` and precision-weighted mean [52].

    The result drops ``axis``, keeping gradients to every factor.
    """
    means = as_tensor(means)
    log_stds = as_tensor(log_stds).clip(DiagGaussian.LOG_STD_MIN, DiagGaussian.LOG_STD_MAX)
    precisions = (log_stds * -2.0).exp()
    total_precision = precisions.sum(axis=axis)
    product_mean = (means * precisions).sum(axis=axis) / total_precision
    product_log_std = total_precision.log() * -0.5
    return DiagGaussian(product_mean, product_log_std)
