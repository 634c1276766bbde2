"""The Adam optimiser, its learning-rate schedule and gradient clipping.

:class:`Adam` exposes ``state_dict`` / ``load_state_dict`` as flat
name → ndarray mappings (the same shape contract as module state dicts)
so run checkpoints (:mod:`repro.core.checkpoint`) can snapshot and
restore momentum/variance accumulators bit-exactly — a resumed run
takes the same parameter steps an unbroken one would.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from .module import Parameter


def _load_slots(
    slots: List[np.ndarray], state: Dict[str, np.ndarray], prefix: str
) -> None:
    """Copy ``state[f"{prefix}.{i}"]`` into each slot array, validating shape."""
    for index, slot in enumerate(slots):
        key = f"{prefix}.{index}"
        if key not in state:
            raise KeyError(f"optimizer state is missing {key!r}")
        value = np.asarray(state[key])
        if value.shape != slot.shape:
            raise ValueError(
                f"optimizer state {key!r} has shape {value.shape}, "
                f"expected {slot.shape} — parameter layout changed"
            )
        slot[...] = value


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients in place so the global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for logging).
    """
    total = 0.0
    grads = [p.grad for p in parameters if p.grad is not None]
    for grad in grads:
        total += float(np.sum(grad * grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for param in parameters:
            if param.grad is not None:
                param.grad = param.grad * scale
    return norm


class Adam:
    """Adam optimiser (Kingma & Ba) with optional decoupled weight decay.

    The paper trains both phases with Adam (Table II); ``weight_decay``
    implements the L2 regularisation used for SADAE learning. Parameters
    without a gradient are skipped by :meth:`step`.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {
            "step_count": np.array([self._step_count], dtype=np.int64),
            "lr": np.array([self.lr], dtype=np.float64),
        }
        for index, (m, v) in enumerate(zip(self._m, self._v)):
            state[f"m.{index}"] = m.copy()
            state[f"v.{index}"] = v.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self._step_count = int(np.asarray(state["step_count"]).ravel()[0])
        self.lr = float(np.asarray(state["lr"]).ravel()[0])
        _load_slots(self._m, state, "m")
        _load_slots(self._v, state, "v")


class LinearLRSchedule:
    """Linear learning-rate decay from ``start`` to ``end`` over ``total`` steps.

    Table II decays the policy/extractor learning rate from 1e-4 to 1e-6.
    """

    def __init__(self, optimizer: Adam, start: float, end: float, total: int):
        if total <= 0:
            raise ValueError("total steps must be positive")
        self.optimizer = optimizer
        self.start = start
        self.end = end
        self.total = total
        self._step_count = 0
        optimizer.lr = start

    def step(self) -> float:
        self._step_count = min(self._step_count + 1, self.total)
        fraction = self._step_count / self.total
        lr = self.start + (self.end - self.start) * fraction
        self.optimizer.lr = lr
        return lr

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {"step_count": np.array([self._step_count], dtype=np.int64)}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self._step_count = int(np.asarray(state["step_count"]).ravel()[0])
        # Re-derive the lr the restored step count implies (the optimiser's
        # own checkpointed lr is overwritten consistently).
        fraction = self._step_count / self.total
        self.optimizer.lr = self.start + (self.end - self.start) * fraction
