"""Composite differentiable functions built on :mod:`repro.nn.tensor`.

The Gaussian log-density shared by the policy head, the SADAE decoders
and the user simulators, and the squared-error loss of the supervised
baselines and probes.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

LOG_2PI = float(np.log(2.0 * np.pi))


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
