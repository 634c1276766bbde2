"""Shared test utilities: finite-difference gradient checking and file corruption."""

from __future__ import annotations

import os
from typing import Callable, Sequence

import numpy as np

from repro.nn import Tensor


def numeric_gradient(
    func: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[np.ndarray],
    wrt: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar ``func`` w.r.t. ``inputs[wrt]``."""
    base = [np.asarray(x, dtype=np.float64).copy() for x in inputs]
    grad = np.zeros_like(base[wrt])
    flat = base[wrt].reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = float(func([Tensor(b) for b in base]).data)
        flat[index] = original - eps
        minus = float(func([Tensor(b) for b in base]).data)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2.0 * eps)
    return grad


def check_gradients(
    func: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[np.ndarray],
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> None:
    """Assert autodiff gradients match finite differences for every input."""
    tensors = [Tensor(np.asarray(x, dtype=np.float64), requires_grad=True) for x in inputs]
    out = func(tensors)
    assert out.data.ndim == 0 or out.data.size == 1, "gradcheck needs a scalar output"
    out.backward()
    for index, tensor in enumerate(tensors):
        expected = numeric_gradient(func, inputs, wrt=index)
        actual = tensor.grad if tensor.grad is not None else np.zeros_like(expected)
        np.testing.assert_allclose(actual, expected, atol=atol, rtol=rtol)


def truncate_file(path, keep_fraction: float = 0.5) -> int:
    """Truncate a file to a fraction of its size (a torn write). Returns
    the new size."""
    size = os.path.getsize(path)
    new_size = max(1, int(size * keep_fraction))
    with open(path, "rb+") as handle:
        handle.truncate(new_size)
    return new_size


def flip_byte(path, offset: int = -64) -> None:
    """Flip every bit of one byte of a file (silent media corruption).

    A negative ``offset`` indexes from the end of the file, where archive
    data blocks live, so the default corrupts array bytes rather than a
    header.
    """
    size = os.path.getsize(path)
    position = offset % size
    with open(path, "rb+") as handle:
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0xFF]))
