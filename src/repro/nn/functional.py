"""Composite differentiable functions built on :mod:`repro.nn.tensor`.

These are the numerically careful building blocks (softmax, logsumexp,
log-softmax, losses) shared by the policy, the SADAE decoders and the
supervised baselines.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor, concat, stack, where  # noqa: F401 (re-export)

LOG_2PI = float(np.log(2.0 * np.pi))


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    The max-shift uses a detached maximum: subtracting a constant does not
    change the softmax value or its gradient.
    """
    logits = as_tensor(logits)
    shift = Tensor(logits.data.max(axis=axis, keepdims=True))
    exps = (logits - shift).exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def logsumexp(logits: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    logits = as_tensor(logits)
    shift = Tensor(logits.data.max(axis=axis, keepdims=True))
    out = (logits - shift).exp().sum(axis=axis, keepdims=True).log() + shift
    if not keepdims:
        out = out.reshape(tuple(s for i, s in enumerate(out.shape) if i != (axis % logits.ndim)))
    return out


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    logits = as_tensor(logits)
    return logits - logsumexp(logits, axis=axis, keepdims=True)


def gaussian_log_prob(x: Tensor, mean: Tensor, log_std: Tensor) -> Tensor:
    """Elementwise log N(x; mean, exp(log_std)^2)."""
    x, mean, log_std = as_tensor(x), as_tensor(mean), as_tensor(log_std)
    inv_std = (-log_std).exp()
    z = (x - mean) * inv_std
    return (z * z) * -0.5 - log_std - 0.5 * LOG_2PI


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    diff = as_tensor(prediction) - as_tensor(target)
    return (diff * diff).mean()
