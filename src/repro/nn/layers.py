"""Feed-forward layers: Linear, MLP, LayerNorm, Embedding.

Inference fast path
-------------------
``MLP.infer`` is the graph-free forward on plain arrays that the
rollout step calls (and that ``MLP.__call__`` takes under
``no_grad()``): each layer is :func:`~repro.nn.tensor.affine_data`, the
forward :func:`~repro.nn.tensor.affine` itself computes, and each
activation runs in place on that layer's fresh output with the same
elementwise function as its ``Tensor`` form. The result is therefore
bit-identical to the graph path for any batch length and head width.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from . import init as initializers
from .module import Module, Parameter
from .tensor import (
    Tensor,
    _as_array,
    _graphless,
    affine,
    affine_data,
    as_tensor,
    is_grad_enabled,
    sigmoid_data,
)

Activation = Callable[[Tensor], Tensor]
ArrayActivation = Callable[[np.ndarray], np.ndarray]


# Module-level functions rather than lambdas: modules keep a reference to
# their activation, and named functions keep every model (and everything
# holding one, e.g. simulator-backed envs shipped to worker processes)
# picklable.
def _tanh(x: Tensor) -> Tensor:
    return x.tanh()


def _relu(x: Tensor) -> Tensor:
    return x.relu()


def _sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def _identity(x: Tensor) -> Tensor:
    return x


ACTIVATIONS: dict[str, Activation] = {
    "tanh": _tanh,
    "relu": _relu,
    "sigmoid": _sigmoid,
    "identity": _identity,
}


def get_activation(name: str) -> Activation:
    """Look up an activation function by name (raises KeyError on typos)."""
    return ACTIVATIONS[name]


# In-place array forms of ``ACTIVATIONS`` for ``MLP.infer``: each writes
# into ``x`` what its Tensor form returns (identity has nothing to do).
def _tanh_(x: np.ndarray) -> np.ndarray:
    return np.tanh(x, out=x)


def _relu_(x: np.ndarray) -> np.ndarray:
    x *= x > 0
    return x


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    return sigmoid_data(x, out=x)


_ARRAY_ACTIVATIONS: dict[str, Optional[ArrayActivation]] = {
    "tanh": _tanh_,
    "relu": _relu_,
    "sigmoid": _sigmoid_,
    "identity": None,
}


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        init: str = "xavier",
        gain: float = 1.0,
        bias: bool = True,
    ):
        self.in_features = in_features
        self.out_features = out_features
        if init == "xavier":
            weight = initializers.xavier_uniform(rng, in_features, out_features, gain)
        elif init == "orthogonal":
            weight = initializers.orthogonal(rng, in_features, out_features, gain)
        elif init == "normal":
            weight = initializers.normal(rng, in_features, out_features, std=gain)
        else:
            raise ValueError(f"unknown init scheme: {init}")
        self.weight = Parameter(weight, name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        # Fused y = x W + b: one graph node (or none on the inference
        # fast path) instead of a matmul node plus an add node.
        return affine(x, self.weight, self.bias)


class MLP(Module):
    """Multi-layer perceptron with configurable hidden activation.

    ``sizes`` is the full list of layer widths, e.g. ``[in, 64, 64, out]``.
    The output layer has no activation unless ``out_activation`` is given.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        activation: str = "tanh",
        out_activation: Optional[str] = None,
        init: str = "orthogonal",
        out_gain: float = 1.0,
    ):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.sizes = list(sizes)
        self.activation = get_activation(activation)
        self.out_activation = get_activation(out_activation) if out_activation else None
        self._activation_ = _ARRAY_ACTIVATIONS[activation]
        self._out_activation_ = _ARRAY_ACTIVATIONS[out_activation] if out_activation else None
        gain = np.sqrt(2.0) if activation == "relu" else 1.0
        self.layers = []
        for index, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            is_last = index == len(sizes) - 2
            layer_gain = out_gain if is_last else gain
            self.layers.append(Linear(fan_in, fan_out, rng, init=init, gain=layer_gain))

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The graph-free forward on a float64 array (``x`` is only read).

        What ``__call__`` computes, bit for bit; see the module docstring.
        """
        activation = self._activation_
        for layer in self.layers[:-1]:
            x = affine_data(x, layer.weight.data, layer.bias.data)
            if activation is not None:
                activation(x)
        layer = self.layers[-1]
        x = affine_data(x, layer.weight.data, layer.bias.data)
        if self._out_activation_ is not None:
            self._out_activation_(x)
        return x

    def __call__(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            return _graphless(self.infer(_as_array(x)))
        out = as_tensor(x)
        for index, layer in enumerate(self.layers):
            out = layer(out)
            if index < len(self.layers) - 1:
                out = self.activation(out)
        if self.out_activation is not None:
            out = self.out_activation(out)
        return out


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, features: int, eps: float = 1e-5):
        self.eps = eps
        self.gamma = Parameter(np.ones(features), name="gamma")
        self.beta = Parameter(np.zeros(features), name="beta")

    def __call__(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalised = centered / (variance + self.eps).sqrt()
        return normalised * self.gamma + self.beta


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors (used by DeepFM)."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator, std: float = 0.01):
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(rng.standard_normal((num_embeddings, dim)) * std, name="weight")

    def __call__(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if np.any(ids < 0) or np.any(ids >= self.num_embeddings):
            raise IndexError("embedding index out of range")
        return self.weight[ids]
