"""Recurrent layers: LSTM and GRU cells plus a sequence-level LSTM.

The environment-parameter extractor φ in Sim2Rec is a single-layer LSTM
(Table II); the DR-OSI baseline uses the same cell. Calling a cell
advances it one step and builds the autodiff graph op by op (full
backpropagation through time); ``unroll`` runs a whole time-major
sequence as two graph nodes instead (see below).

Inference fast path
-------------------
Rollouts advance the cell once per environment step with gradients
disabled, so both cells implement a graph-free ``_fast_forward`` used
whenever ``no_grad()`` is active: gate pre-activations are computed with
raw BLAS calls into a preallocated per-batch scratch buffer (reused
across timesteps), and the sigmoid gates are activated in one
contiguous in-place pass. The LSTM takes tanh of its g block into its
own array first and then runs the sigmoid over the whole ``[B, 4H]``
buffer (the g block's sigmoid is never read): five passes over one
contiguous buffer cost about half of three passes over strided
``[B, H]`` column slices. The GRU activates its adjacent r and z
columns as one contiguous ``[B, 2H]`` block. Every gate is the same
elementwise function of the same pre-activation as in the autodiff
path, so the produced hidden states are bit-identical to the graph
path.

Fused sequence path
-------------------
The PPO learner evaluates whole ``[T, B, input]`` sequences with
gradients. ``unroll`` projects the inputs of all T steps in one
:func:`~repro.nn.tensor.affine` and runs the recurrence as a single graph
node: its forward repeats ``_fast_forward`` op for op, single gate
pass included (so the hidden states are bit-identical to T autodiff
cell calls), and caches the gate activations; its backward is a numpy
BPTT loop that sums the weight gradients in one gemm over all T·B rows.
Only that summation order differs from the per-step graph, so gradients
agree to ≤1e-10 relative (``tests/nn/test_recurrent.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import init as initializers
from .module import Module, Parameter
from .tensor import (
    Tensor,
    _graphless,
    _row_stable_matmul,
    affine,
    as_tensor,
    is_grad_enabled,
    stack,
)


def _sigmoid_(values: np.ndarray) -> np.ndarray:
    """In-place sigmoid replicating ``Tensor.sigmoid`` numerics exactly."""
    np.maximum(values, -60.0, out=values)
    np.negative(values, out=values)
    np.exp(values, out=values)
    values += 1.0
    np.reciprocal(values, out=values)
    return values


def _as_data(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _project_sequence(x_seq, weight: Tensor, bias: Optional[Tensor]) -> Tuple[Tensor, int, int]:
    """``x @ W (+ b)`` for every step of ``[T, B, input]`` in one affine."""
    x_seq = as_tensor(x_seq)
    steps, batch = x_seq.shape[0], x_seq.shape[1]
    flat = x_seq.reshape(steps * batch, x_seq.shape[2])
    return affine(flat, weight, bias), steps, batch


def _sequence_node(
    hidden: np.ndarray, parents: Tuple[Tensor, ...], backward: Callable[[np.ndarray], None]
) -> Tensor:
    """Wrap an unrolled ``[T, B, H]`` hidden sequence as one graph node."""
    if not (is_grad_enabled() and any(p.requires_grad for p in parents)):
        return _graphless(hidden)
    out = Tensor(hidden, requires_grad=True, _prev=parents)
    out._backward = backward
    return out


class LSTMCell(Module):
    """A standard LSTM cell.

    Gates follow the usual ordering [input, forget, cell, output]; the forget
    gate bias is initialised to 1 to ease gradient flow early in training.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(
            initializers.xavier_uniform(rng, input_size, 4 * hidden_size), name="weight_ih"
        )
        self.weight_hh = Parameter(
            initializers.orthogonal(rng, hidden_size, 4 * hidden_size), name="weight_hh"
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = Parameter(bias, name="bias")
        self._scratch: Dict[int, np.ndarray] = {}

    def initial_state(self, batch: int) -> Tuple[Tensor, Tensor]:
        zeros = np.zeros((batch, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())

    def _gates_scratch(self, batch: int) -> np.ndarray:
        buf = self._scratch.get(batch)
        if buf is None:
            # Keep at most one buffer: rollout batch sizes are stable, and a
            # stray probe with a different batch must not leak memory.
            self._scratch.clear()
            buf = np.empty((batch, 4 * self.hidden_size))
            self._scratch[batch] = buf
        return buf

    def _fast_forward(self, x, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        h_prev, c_prev = state
        xd = _as_data(x)
        hd, cd = _as_data(h_prev), _as_data(c_prev)
        hs = self.hidden_size
        gates = self._gates_scratch(xd.shape[0])
        if xd.shape[0] == 1:
            # Single-row batches replicate the graph path's row-stable
            # matmul (gemv results differ from gemm at the last ulp).
            gates[:] = _row_stable_matmul(xd, self.weight_ih.data)
            gates += _row_stable_matmul(hd, self.weight_hh.data)
        else:
            np.matmul(xd, self.weight_ih.data, out=gates)
            gates += hd @ self.weight_hh.data
        gates += self.bias.data
        g_gate = np.tanh(gates[:, 2 * hs : 3 * hs])
        _sigmoid_(gates)  # i, f and o in one pass; the g block is overwritten
        i_gate = gates[:, 0 * hs : 1 * hs]
        f_gate = gates[:, 1 * hs : 2 * hs]
        o_gate = gates[:, 3 * hs : 4 * hs]
        c_new = f_gate * cd
        c_new += i_gate * g_gate
        h_new = o_gate * np.tanh(c_new)
        h_t = _graphless(h_new)
        return h_t, (h_t, _graphless(c_new))

    def __call__(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        if not is_grad_enabled():
            return self._fast_forward(x, state)
        h_prev, c_prev = state
        x = as_tensor(x)
        gates = x @ self.weight_ih + h_prev @ self.weight_hh + self.bias
        hs = self.hidden_size
        i_gate = gates[:, 0 * hs : 1 * hs].sigmoid()
        f_gate = gates[:, 1 * hs : 2 * hs].sigmoid()
        g_gate = gates[:, 2 * hs : 3 * hs].tanh()
        o_gate = gates[:, 3 * hs : 4 * hs].sigmoid()
        c_new = f_gate * c_prev + i_gate * g_gate
        h_new = o_gate * c_new.tanh()
        return h_new, (h_new, c_new)

    def unroll(self, x_seq) -> Tensor:
        """Hidden states ``[T, B, hidden]`` of a zero-state ``[T, B, input]`` run.

        Bit-identical to calling the cell T times from
        :meth:`initial_state`; see the module docstring for the fused
        graph this builds.
        """
        projected, steps, batch = _project_sequence(x_seq, self.weight_ih, None)
        hs = self.hidden_size
        xw = projected.data.reshape(steps, batch, 4 * hs)
        w_hh, bias = self.weight_hh.data, self.bias.data
        # Per step: the sigmoid of all four gate blocks (the i, f and o
        # gates are read; the g slot is not), tanh(g), the cell states and
        # tanh(c); index 0 of ``hidden``/``cells`` is the zero initial state.
        gates = np.empty((steps, batch, 4 * hs))
        g_gates = np.empty((steps, batch, hs))
        cells = np.zeros((steps + 1, batch, hs))
        hidden = np.zeros((steps + 1, batch, hs))
        tanh_cells = np.empty((steps, batch, hs))
        for t in range(steps):
            g = gates[t]
            np.add(xw[t], _row_stable_matmul(hidden[t], w_hh), out=g)
            g += bias
            g_gate = np.tanh(g[:, 2 * hs : 3 * hs], out=g_gates[t])
            _sigmoid_(g)
            i_gate, f_gate = g[:, 0 * hs : 1 * hs], g[:, 1 * hs : 2 * hs]
            o_gate = g[:, 3 * hs : 4 * hs]
            c_new = np.multiply(f_gate, cells[t], out=cells[t + 1])
            c_new += i_gate * g_gate
            np.multiply(o_gate, np.tanh(c_new, out=tanh_cells[t]), out=hidden[t + 1])

        def backward(grad: np.ndarray) -> None:
            d_gates = np.empty_like(gates)
            dh_next = dc_next = 0.0
            for t in reversed(range(steps)):
                g = gates[t]
                i_gate, f_gate = g[:, 0 * hs : 1 * hs], g[:, 1 * hs : 2 * hs]
                g_gate, o_gate = g_gates[t], g[:, 3 * hs : 4 * hs]
                tanh_c = tanh_cells[t]
                dh = grad[t] + dh_next
                dc = dh * o_gate * (1.0 - tanh_c * tanh_c) + dc_next
                dg = d_gates[t]
                dg[:, 0 * hs : 1 * hs] = dc * g_gate * i_gate * (1.0 - i_gate)
                dg[:, 1 * hs : 2 * hs] = dc * cells[t] * f_gate * (1.0 - f_gate)
                dg[:, 2 * hs : 3 * hs] = dc * i_gate * (1.0 - g_gate * g_gate)
                dg[:, 3 * hs : 4 * hs] = dh * tanh_c * o_gate * (1.0 - o_gate)
                dc_next = dc * f_gate
                if t:
                    dh_next = dg @ w_hh.T
            flat = d_gates.reshape(steps * batch, 4 * hs)
            if self.weight_hh.requires_grad:
                self.weight_hh._accumulate(hidden[:-1].reshape(steps * batch, hs).T @ flat)
            if self.bias.requires_grad:
                self.bias._accumulate(flat.sum(axis=0))
            if projected.requires_grad:
                projected._accumulate(flat)

        return _sequence_node(
            hidden[1:], (projected, self.weight_hh, self.bias), backward
        )


class GRUCell(Module):
    """A GRU cell (provided for the RNN [19] variant used in related work)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(
            initializers.xavier_uniform(rng, input_size, 3 * hidden_size), name="weight_ih"
        )
        self.weight_hh = Parameter(
            initializers.orthogonal(rng, hidden_size, 3 * hidden_size), name="weight_hh"
        )
        self.bias = Parameter(np.zeros(3 * hidden_size), name="bias")
        self._scratch: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_size)))

    def _gates_scratch(self, batch: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        bufs = self._scratch.get(batch)
        if bufs is None:
            self._scratch.clear()
            bufs = (
                np.empty((batch, 3 * self.hidden_size)),
                np.empty((batch, 3 * self.hidden_size)),
                np.empty((batch, 2 * self.hidden_size)),
            )
            self._scratch[batch] = bufs
        return bufs

    def _fast_forward(self, x, h_prev) -> Tensor:
        xd = _as_data(x)
        hd = _as_data(h_prev)
        hs = self.hidden_size
        gates_x, gates_h, rz = self._gates_scratch(xd.shape[0])
        if xd.shape[0] == 1:
            # See LSTMCell._fast_forward: keep single-row batches on the
            # row-stable gemm path.
            gates_x[:] = _row_stable_matmul(xd, self.weight_ih.data)
            gates_h[:] = _row_stable_matmul(hd, self.weight_hh.data)
        else:
            np.matmul(xd, self.weight_ih.data, out=gates_x)
            np.matmul(hd, self.weight_hh.data, out=gates_h)
        gates_x += self.bias.data
        _sigmoid_(np.add(gates_x[:, : 2 * hs], gates_h[:, : 2 * hs], out=rz))
        r_gate, z_gate = rz[:, :hs], rz[:, hs:]
        n_pre = gates_x[:, 2 * hs :]
        n_pre += r_gate * gates_h[:, 2 * hs :]
        n_gate = np.tanh(n_pre)
        h_new = (1.0 - z_gate) * n_gate
        h_new += z_gate * hd
        return _graphless(h_new)

    def __call__(self, x: Tensor, h_prev: Tensor) -> Tensor:
        if not is_grad_enabled():
            return self._fast_forward(x, h_prev)
        x = as_tensor(x)
        hs = self.hidden_size
        gates_x = x @ self.weight_ih + self.bias
        gates_h = h_prev @ self.weight_hh
        r_gate = (gates_x[:, :hs] + gates_h[:, :hs]).sigmoid()
        z_gate = (gates_x[:, hs : 2 * hs] + gates_h[:, hs : 2 * hs]).sigmoid()
        n_gate = (gates_x[:, 2 * hs :] + r_gate * gates_h[:, 2 * hs :]).tanh()
        return (1.0 - z_gate) * n_gate + z_gate * h_prev

    def unroll(self, x_seq) -> Tensor:
        """Hidden states ``[T, B, hidden]`` of a zero-state ``[T, B, input]`` run.

        Bit-identical to calling the cell T times from
        :meth:`initial_state`; see the module docstring for the fused
        graph this builds.
        """
        projected, steps, batch = _project_sequence(x_seq, self.weight_ih, self.bias)
        hs = self.hidden_size
        gx = projected.data.reshape(steps, batch, 3 * hs)
        w_hh = self.weight_hh.data
        # Per step: h @ W_hh, the activated [r, z] gates and n; index 0
        # of ``hidden`` is the zero initial state.
        gh = np.empty((steps, batch, 3 * hs))
        rz = np.empty((steps, batch, 2 * hs))
        n_gates = np.empty((steps, batch, hs))
        hidden = np.zeros((steps + 1, batch, hs))
        for t in range(steps):
            gh[t] = _row_stable_matmul(hidden[t], w_hh)
            _sigmoid_(np.add(gx[t, :, : 2 * hs], gh[t, :, : 2 * hs], out=rz[t]))
            r_gate, z_gate = rz[t, :, :hs], rz[t, :, hs:]
            n_pre = gx[t, :, 2 * hs :] + r_gate * gh[t, :, 2 * hs :]
            n_gate = np.tanh(n_pre, out=n_gates[t])
            h_new = np.multiply(1.0 - z_gate, n_gate, out=hidden[t + 1])
            h_new += z_gate * hidden[t]

        def backward(grad: np.ndarray) -> None:
            d_gx = np.empty((steps, batch, 3 * hs))
            d_gh = np.empty((steps, batch, 3 * hs))
            dh_next = 0.0
            for t in reversed(range(steps)):
                r_gate, z_gate, n_gate = rz[t, :, :hs], rz[t, :, hs:], n_gates[t]
                dh = grad[t] + dh_next
                dn_pre = dh * (1.0 - z_gate) * (1.0 - n_gate * n_gate)
                d_gx[t, :, :hs] = dn_pre * gh[t, :, 2 * hs :] * r_gate * (1.0 - r_gate)
                d_gx[t, :, hs : 2 * hs] = dh * (hidden[t] - n_gate) * z_gate * (1.0 - z_gate)
                d_gx[t, :, 2 * hs :] = dn_pre
                d_gh[t, :, : 2 * hs] = d_gx[t, :, : 2 * hs]
                d_gh[t, :, 2 * hs :] = dn_pre * r_gate
                dh_next = dh * z_gate
                if t:
                    dh_next = dh_next + d_gh[t] @ w_hh.T
            if self.weight_hh.requires_grad:
                self.weight_hh._accumulate(
                    hidden[:-1].reshape(steps * batch, hs).T
                    @ d_gh.reshape(steps * batch, 3 * hs)
                )
            if projected.requires_grad:
                projected._accumulate(d_gx.reshape(steps * batch, 3 * hs))

        return _sequence_node(hidden[1:], (projected, self.weight_hh), backward)


class LSTM(Module):
    """Run an :class:`LSTMCell` over a time-major sequence.

    Input shape ``[T, batch, input_size]``; returns the stacked hidden states
    ``[T, batch, hidden_size]`` and the final (h, c) state.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.cell = LSTMCell(input_size, hidden_size, rng)

    @property
    def hidden_size(self) -> int:
        return self.cell.hidden_size

    def initial_state(self, batch: int) -> Tuple[Tensor, Tensor]:
        return self.cell.initial_state(batch)

    def __call__(
        self,
        sequence: Tensor,
        state: Optional[Tuple[Tensor, Tensor]] = None,
        reset_mask: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        sequence = as_tensor(sequence)
        steps, batch = sequence.shape[0], sequence.shape[1]
        if state is None:
            state = self.initial_state(batch)
        outputs: List[Tensor] = []
        for t in range(steps):
            if reset_mask is not None:
                keep = Tensor(1.0 - reset_mask[t][:, None])
                state = (state[0] * keep, state[1] * keep)
            h, state = self.cell(sequence[t], state)
            outputs.append(h)
        return stack(outputs, axis=0), state
