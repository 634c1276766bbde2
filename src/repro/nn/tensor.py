"""Reverse-mode automatic differentiation on numpy arrays.

This module provides the :class:`Tensor` class used throughout the library.
It implements a dynamic computation graph: every operation on tensors whose
``requires_grad`` flag is set records a backward closure, and
:meth:`Tensor.backward` walks the graph in reverse topological order to
accumulate gradients.

The engine supports full numpy broadcasting; gradients of broadcast
operands are summed back to the operand's shape (``_unbroadcast``).

Inference fast path
-------------------
Rollouts never backpropagate, so every operation first checks whether a
graph is needed at all (``no_grad()`` active, or no operand requires
grad). On that path the op returns immediately through
:func:`_graphless` — a raw ``Tensor.__new__`` constructor that skips
``np.asarray`` validation and, crucially, never allocates the backward
closure or the parent tuple.

The rollout step itself goes one level lower and never builds a
``Tensor``: ``policy.act`` / ``policy.actions``, ``SADAE.embed`` and the
layers under them (``MLP.infer``, ``LSTMCell.infer``) run on
plain arrays. The array forms are the forwards' single definitions:
:func:`affine_data`, with its narrow-head and single-row rules, is what
:func:`affine` computes, and :func:`sigmoid_data` is what
:meth:`Tensor.sigmoid` computes, so both paths give bit-identical
numbers by construction.

Only the operations needed by the Sim2Rec stack are implemented, which keeps
the engine small enough to verify exhaustively with finite differences (see
``tests/nn/test_autodiff.py``).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, "Tensor", Sequence]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (used for rollouts)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it matches ``shape`` (undo numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were expanded from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def as_tensor(value: ArrayLike) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _row_stable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2-D matmul whose rows never depend on the batch length.

    BLAS dispatches a single-row ``[1, K] @ [K, N]`` product to gemv-style
    kernels whose last-ulp results differ from the gemm kernels used for
    M ≥ 2 — breaking the bitwise contract that evaluating one user's
    sequence alone matches that user's rows inside a stacked batch (the
    learning-side analogue of the narrow-head fix below). Duplicating the
    row forces the gemm path, whose per-row results are M-independent.
    """
    if a.ndim == 2 and b.ndim == 2 and a.shape[0] == 1:
        return np.matmul(np.repeat(a, 2, axis=0), b)[:1]
    return a @ b


def sigmoid_data(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The logistic sigmoid ``1 / (1 + exp(-max(x, -60)))`` on arrays.

    The one definition behind :meth:`Tensor.sigmoid`, the recurrent gates
    and the graph-free heads. Only the lower clamp is needed: above ~36.8,
    ``1 + exp(-x)`` already rounds to 1.0. Pass ``out=x`` to activate a
    fresh buffer in place; the result is bit-identical either way.
    """
    out = np.maximum(x, -60.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def affine_data(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None
) -> np.ndarray:
    """``x @ weight (+ bias)`` on arrays, returning a fresh array.

    The one forward definition behind :func:`affine` and the graph-free
    ``MLP.infer``. Narrow heads (value functions, 1-3 dim action means)
    would dispatch to BLAS gemv-style kernels whose last-ulp results
    depend on how the batch length aligns with the kernel's row
    chunking — breaking the bitwise sequential/vectorized rollout
    equivalence — so they take per-row reductions, which are batch-size
    independent; wider outputs take the row-stable gemm.
    """
    if weight.ndim == 2 and weight.shape[1] <= 3 and x.ndim >= 2:
        out = np.empty(x.shape[:-1] + weight.shape[1:])
        for j in range(weight.shape[1]):
            out[..., j] = (x * weight[:, j]).sum(axis=-1)
    else:
        out = _row_stable_matmul(x, weight)
    if bias is not None:
        out += bias
    return out


def _is_basic_index(index) -> bool:
    """Whether ``index`` is a basic numpy index: ints, slices, ``...``, ``None``."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        item is None
        or item is Ellipsis
        or isinstance(item, slice)
        or (isinstance(item, (int, np.integer)) and not isinstance(item, bool))
        for item in items
    )


def _graphless(data: np.ndarray) -> "Tensor":
    """Fast Tensor constructor for op results on the inference path.

    ``data`` must already be a float64 ndarray (op results always are);
    skips ``np.asarray`` and graph bookkeeping entirely.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._backward = None
    out._prev = ()
    out.name = None
    return out


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array (or scalar / nested sequence) holding the value.
    requires_grad:
        When true, operations involving this tensor build a graph and
        ``backward`` accumulates into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Tuple["Tensor", ...] = (),
        name: Optional[str] = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._prev = _prev
        self.name = name

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # graph machinery
    # ------------------------------------------------------------------
    def _needs_graph(self, other: Optional["Tensor"] = None) -> bool:
        """Whether an op on (self[, other]) must record a backward closure."""
        if not _GRAD_ENABLED:
            return False
        if self.requires_grad:
            return True
        return other is not None and other.requires_grad

    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor, wiring the graph if gradients are on."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _prev=parents if requires else ())
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (scalar outputs are the common case for
        losses); it must match this tensor's shape otherwise.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(_as_array(grad), dtype=np.float64)
            if seed.shape != self.data.shape:
                raise ValueError(f"gradient shape {seed.shape} != tensor shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(seed)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data
        if not self._needs_graph(other):
            return _graphless(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data
        if not self._needs_graph(other):
            return _graphless(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        if not self._needs_graph():
            return _graphless(-self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data - other.data
        if not self._needs_graph(other):
            return _graphless(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(-grad)

        return self._make(out_data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) - self

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data
        if not self._needs_graph(other):
            return _graphless(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2))

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent
        if not self._needs_graph():
            return _graphless(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = _row_stable_matmul(self.data, other.data)
        if not self._needs_graph(other):
            return _graphless(out_data)

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    ga = np.outer(grad, b) if a.ndim == 2 else grad[..., None] * b
                elif a.ndim == 1 and b.ndim > 2:
                    # (K,) @ (..., K, M): each batch's grad row meets its own matrix.
                    ga = (grad[..., None, :] @ np.swapaxes(b, -1, -2))[..., 0, :]
                else:
                    ga = grad @ np.swapaxes(b, -1, -2)
                if a.ndim == 1 and ga.ndim > 1:
                    ga = ga.sum(axis=tuple(range(ga.ndim - 1)))
                self._accumulate(_unbroadcast(ga, a.shape))
            if other.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    gb = a * grad
                elif a.ndim == 1:
                    gb = np.outer(a, grad) if b.ndim == 2 else a[:, None] * grad[..., None, :]
                elif b.ndim == 1:
                    gb = (a.reshape(-1, a.shape[-1]) * grad.reshape(-1, 1)).sum(axis=0)
                else:
                    gb = np.swapaxes(a, -1, -2) @ grad
                other._accumulate(_unbroadcast(gb, b.shape))

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        if not self._needs_graph():
            return _graphless(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        if not self._needs_graph():
            return _graphless(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        if not self._needs_graph():
            return _graphless(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        if not self._needs_graph():
            return _graphless(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = sigmoid_data(self.data)
        if not self._needs_graph():
            return _graphless(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        if not self._needs_graph():
            return _graphless(self.data * mask)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward)

    def abs(self) -> "Tensor":
        if not self._needs_graph():
            return _graphless(np.abs(self.data))
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return self._make(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is zero outside [low, high]."""
        if not self._needs_graph():
            return _graphless(np.clip(self.data, low, high))
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(np.clip(self.data, low, high), (self,), backward)

    def maximum(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        take_self = self.data >= other.data
        out_data = np.where(take_self, self.data, other.data)
        if not self._needs_graph(other):
            return _graphless(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * take_self)
            if other.requires_grad:
                other._accumulate(grad * ~take_self)

        return self._make(out_data, (self, other), backward)

    def minimum(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        take_self = self.data <= other.data
        out_data = np.where(take_self, self.data, other.data)
        if not self._needs_graph(other):
            return _graphless(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * take_self)
            if other.requires_grad:
                other._accumulate(grad * ~take_self)

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not self._needs_graph():
            return _graphless(np.asarray(out_data))

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if not self._needs_graph():
            return _graphless(np.asarray(out_data))

        def backward(grad: np.ndarray) -> None:
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                out = np.expand_dims(out, axis)
            mask = self.data == out
            # Split the gradient between ties, as numpy argmax would pick one.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(g * mask / counts)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not self._needs_graph():
            return _graphless(out_data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.data.ndim)))
        if len(axes_tuple) == 1 and isinstance(axes_tuple[0], (tuple, list)):
            axes_tuple = tuple(axes_tuple[0])
        out_data = self.data.transpose(axes_tuple)
        if not self._needs_graph():
            return _graphless(out_data)
        inverse = np.argsort(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        if not self._needs_graph():
            return _graphless(np.asarray(out_data))
        basic = _is_basic_index(index)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            if basic:
                # A basic index selects each element at most once, so one
                # in-place add onto +0.0 gives add.at's exact result.
                full[index] += grad
            else:
                np.add.at(full, index, grad)  # advanced indices may repeat
            self._accumulate(full)

        return self._make(out_data, (self,), backward)


# ----------------------------------------------------------------------
# free functions that combine several tensors
# ----------------------------------------------------------------------
def affine(x: ArrayLike, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Fused ``y = x @ W (+ b)`` — one graph node instead of two.

    The forward is :func:`affine_data`. The backward pass reproduces
    exactly the gradients the unfused ``__matmul__`` + ``__add__`` pair
    would produce, so training numbers are unchanged; on the inference
    path the call builds no closures at all.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    if bias is not None:
        bias = as_tensor(bias)
    out_data = affine_data(x.data, weight.data, None if bias is None else bias.data)
    requires = _GRAD_ENABLED and (
        x.requires_grad
        or weight.requires_grad
        or (bias is not None and bias.requires_grad)
    )
    if not requires:
        return _graphless(out_data)

    def backward(grad: np.ndarray) -> None:
        a, b = x.data, weight.data
        if x.requires_grad:
            if b.ndim == 1:
                ga = np.outer(grad, b) if a.ndim == 2 else grad[..., None] * b
            elif a.ndim == 1 and b.ndim > 2:
                # (K,) @ (..., K, M): each batch's grad row meets its own matrix.
                ga = (grad[..., None, :] @ np.swapaxes(b, -1, -2))[..., 0, :]
            else:
                ga = grad @ np.swapaxes(b, -1, -2)
            if a.ndim == 1 and ga.ndim > 1:
                ga = ga.sum(axis=tuple(range(ga.ndim - 1)))
            x._accumulate(_unbroadcast(ga, a.shape))
        if weight.requires_grad:
            if a.ndim == 1 and b.ndim == 1:
                gb = a * grad
            elif a.ndim == 1:
                gb = np.outer(a, grad) if b.ndim == 2 else a[:, None] * grad[..., None, :]
            elif b.ndim == 1:
                gb = (a.reshape(-1, a.shape[-1]) * grad.reshape(-1, 1)).sum(axis=0)
            else:
                gb = np.swapaxes(a, -1, -2) @ grad
            weight._accumulate(_unbroadcast(gb, b.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.data.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = Tensor(out_data, requires_grad=True, _prev=parents)
    out._backward = backward
    return out


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    if not requires:
        return _graphless(out_data)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    out = Tensor(out_data, requires_grad=True, _prev=tuple(tensors))
    out._backward = backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    if not requires:
        return _graphless(out_data)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for tensor, g in zip(tensors, moved):
            if tensor.requires_grad:
                tensor._accumulate(g)

    out = Tensor(out_data, requires_grad=True, _prev=tuple(tensors))
    out._backward = backward
    return out


def tile_rows(x: Tensor, counts: Sequence[int]) -> Tensor:
    """Repeat each row of ``x`` (shape ``[K, d]``) ``counts[k]`` times.

    Returns a ``[sum(counts), d]`` tensor whose rows
    ``offset_k .. offset_k + counts[k]`` all equal ``x[k]`` — the batched
    generalisation of ``concat([row] * n, axis=0)`` used to broadcast one
    group-level vector (a SADAE context υ_t, a decoded distribution
    parameter ψ) over that group's users. The forward values are exactly
    ``np.repeat``, so they are bit-identical to the concat-based tiling;
    the backward pass sums each output row's gradient back to its source
    row in one ``np.add.reduceat`` instead of one closure per user.
    """
    x = as_tensor(x)
    counts_arr = np.asarray(list(counts), dtype=np.int64)
    rows = x.data.shape[0] if x.data.ndim >= 1 else None
    if counts_arr.shape[0] != rows:
        raise ValueError(
            f"tile_rows needs one count per row: {counts_arr.shape[0]} counts "
            f"for {rows if rows is not None else 'a 0-d tensor with no'} rows"
        )
    out_data = np.repeat(x.data, counts_arr, axis=0)
    if not x._needs_graph():
        return _graphless(out_data)
    offsets = np.concatenate([[0], np.cumsum(counts_arr)[:-1]])

    def backward(grad: np.ndarray) -> None:
        if np.any(counts_arr == 0):
            # reduceat misbehaves on empty slices; fall back to per-row sums
            full = np.zeros_like(x.data)
            start = 0
            for row, count in enumerate(counts_arr):
                full[row] = grad[start : start + count].sum(axis=0)
                start += count
            x._accumulate(full)
        else:
            x._accumulate(np.add.reduceat(grad, offsets, axis=0))

    out = Tensor(out_data, requires_grad=True, _prev=(x,))
    out._backward = backward
    return out


def where(condition: ArrayLike, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select; gradients flow only through the chosen branch."""
    cond = _as_array(condition).astype(bool)
    a_t, b_t = as_tensor(a), as_tensor(b)
    out_data = np.where(cond, a_t.data, b_t.data)
    requires = _GRAD_ENABLED and (a_t.requires_grad or b_t.requires_grad)
    if not requires:
        return _graphless(out_data)

    def backward(grad: np.ndarray) -> None:
        if a_t.requires_grad:
            a_t._accumulate(grad * cond)
        if b_t.requires_grad:
            b_t._accumulate(grad * ~cond)

    out = Tensor(out_data, requires_grad=True, _prev=(a_t, b_t))
    out._backward = backward
    return out
