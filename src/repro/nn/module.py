"""Module / Parameter containers mirroring the familiar torch.nn layout.

A :class:`Module` recursively collects :class:`Parameter` tensors from its
attributes (including lists of modules), supports ``state_dict`` /
``load_state_dict`` round-trips and ``zero_grad``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor (``requires_grad`` always on)."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances (or
    lists of them) as attributes; parameter discovery walks those attributes
    in a deterministic (sorted) order so optimisers and serialisation are
    stable across runs.
    """

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for key in sorted(vars(self)):
            value = getattr(self, key)
            path = f"{prefix}{key}"
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{path}.{index}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{path}.{index}.")

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state_dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.data.shape}")
            param.data = value.copy()
