"""Feed-forward layers: Linear and MLP.

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

from typing import Callable, Sequence

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


ACTIVATIONS: dict[str, Activation] = {"tanh": _tanh, "relu": _relu}


# In-place array forms of ``ACTIVATIONS`` for ``MLP.infer``: each writes
# into ``x`` what its Tensor form returns.
def _tanh_(x: np.ndarray) -> np.ndarray:
    return np.tanh(x, out=x)


def _relu_(x: np.ndarray) -> np.ndarray:
    x *= x > 0
    return x


_ARRAY_ACTIVATIONS: dict[str, ArrayActivation] = {"tanh": _tanh_, "relu": _relu_}


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
    """Multi-layer perceptron with a tanh or relu hidden activation.

    ``sizes`` is the full list of layer widths, e.g. ``[in, 64, 64, out]``.
    Every layer is orthogonally initialised, and the output layer has no
    activation.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        activation: str = "tanh",
        out_gain: float = 1.0,
    ):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.sizes = list(sizes)
        self.activation = ACTIVATIONS[activation]
        self._activation_ = _ARRAY_ACTIVATIONS[activation]
        gain = np.sqrt(2.0) if activation == "relu" else 1.0
        self.layers = []
        for index, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            is_last = index == len(sizes) - 2
            layer_gain = out_gain if is_last else gain
            self.layers.append(Linear(fan_in, fan_out, rng, init="orthogonal", gain=layer_gain))

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The graph-free forward on a float64 array (``x`` is only read).

        What ``__call__`` computes, bit for bit; see the module docstring.
        """
        activation = self._activation_
        for layer in self.layers[:-1]:
            x = affine_data(x, layer.weight.data, layer.bias.data)
            activation(x)
        layer = self.layers[-1]
        return affine_data(x, layer.weight.data, layer.bias.data)

    def __call__(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            return _graphless(self.infer(_as_array(x)))
        out = as_tensor(x)
        for index, layer in enumerate(self.layers):
            out = layer(out)
            if index < len(self.layers) - 1:
                out = self.activation(out)
        return out
