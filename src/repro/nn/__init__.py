"""A minimal, fully-tested neural-network library on numpy.

The Sim2Rec stack (PPO policy, LSTM extractor, SADAE) and every baseline
are built on this package. Gradients come from the reverse-mode autodiff
engine in :mod:`repro.nn.tensor`, verified against finite differences.
"""

from .distributions import (
    Bernoulli,
    Categorical,
    DiagGaussian,
    diag_gaussian_log_prob,
    diag_gaussian_sample,
    product_of_gaussians,
)
from .functional import (
    LOG_2PI,
    gaussian_log_prob,
    log_softmax,
    logsumexp,
    mse_loss,
    softmax,
)
from .layers import ACTIVATIONS, Embedding, LayerNorm, Linear, MLP, get_activation
from .module import Module, Parameter
from .optim import Adam, LinearLRSchedule, Optimizer, SGD, clip_grad_norm
from .recurrent import GRUCell, LSTM, LSTMCell
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
    "Categorical",
    "DiagGaussian",
    "Embedding",
    "GRUCell",
    "LOG_2PI",
    "LSTM",
    "LSTMCell",
    "LayerNorm",
    "Linear",
    "LinearLRSchedule",
    "MLP",
    "Module",
    "Optimizer",
    "Parameter",
    "SGD",
    "StateChecksumError",
    "Tensor",
    "affine",
    "as_tensor",
    "clip_grad_norm",
    "concat",
    "diag_gaussian_log_prob",
    "diag_gaussian_sample",
    "gaussian_log_prob",
    "get_activation",
    "is_grad_enabled",
    "load_state",
    "log_softmax",
    "logsumexp",
    "mse_loss",
    "no_grad",
    "product_of_gaussians",
    "save_state",
    "sigmoid_data",
    "softmax",
    "stack",
    "state_from_bytes",
    "state_to_bytes",
    "tile_rows",
    "where",
]
