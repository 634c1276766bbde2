"""A minimal, fully-tested neural-network library on numpy.

The Sim2Rec stack (PPO policy, LSTM extractor, SADAE), the user
simulators and every baseline are built on this package, and it holds
only what they use: ``Linear``/``MLP`` layers, the ``LSTMCell``, the
Gaussian and Bernoulli distributions, the Adam optimiser and the state
archives. Gradients come from the reverse-mode autodiff engine in
:mod:`repro.nn.tensor`, verified against finite differences.
"""

from .distributions import (
    Bernoulli,
    DiagGaussian,
    diag_gaussian_log_prob,
    diag_gaussian_sample,
    product_of_gaussians,
)
from .functional import LOG_2PI, gaussian_log_prob, mse_loss
from .layers import ACTIVATIONS, Linear, MLP
from .module import Module, Parameter
from .optim import Adam, LinearLRSchedule, clip_grad_norm
from .recurrent import LSTMCell
from .serialization import (
    StateChecksumError,
    load_state,
    save_state,
    state_from_bytes,
    state_to_bytes,
)
from .tensor import (
    Tensor,
    affine,
    as_tensor,
    concat,
    is_grad_enabled,
    no_grad,
    sigmoid_data,
    stack,
    tile_rows,
    where,
)

__all__ = [
    "ACTIVATIONS",
    "Adam",
    "Bernoulli",
    "DiagGaussian",
    "LOG_2PI",
    "LSTMCell",
    "Linear",
    "LinearLRSchedule",
    "MLP",
    "Module",
    "Parameter",
    "StateChecksumError",
    "Tensor",
    "affine",
    "as_tensor",
    "clip_grad_norm",
    "concat",
    "diag_gaussian_log_prob",
    "diag_gaussian_sample",
    "gaussian_log_prob",
    "is_grad_enabled",
    "load_state",
    "mse_loss",
    "no_grad",
    "product_of_gaussians",
    "save_state",
    "sigmoid_data",
    "stack",
    "state_from_bytes",
    "state_to_bytes",
    "tile_rows",
    "where",
]
