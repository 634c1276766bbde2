"""The LSTM cell: the environment-parameter extractor φ.

The environment-parameter extractor φ in Sim2Rec is a single-layer LSTM
(Table II); the DR-OSI baseline uses the same cell. Calling the cell
advances it one step and builds the autodiff graph op by op (full
backpropagation through time); ``unroll`` runs a whole time-major
sequence as two graph nodes instead (see below).

Inference fast path
-------------------
Rollouts advance the cell once per environment step with gradients
disabled, so the cell implements a graph-free ``infer`` on plain
arrays — what the policies' rollout step calls directly, and what
``__call__`` takes whenever ``no_grad()`` is active. Gate
pre-activations are computed with raw BLAS calls into a preallocated
per-batch scratch buffer (reused across timesteps), and the sigmoid
gates are activated in one contiguous in-place
:func:`~repro.nn.tensor.sigmoid_data` pass; the returned state arrays
are fresh on every step and never written afterwards. The cell takes
tanh of its g block into its own array first and then runs the sigmoid
over the whole ``[B, 4H]`` buffer (the g block's sigmoid is never
read): five passes over one contiguous buffer cost about half of three
passes over strided ``[B, H]`` column slices. Every gate is the same
elementwise function of the same pre-activation as in the autodiff
path, so the produced hidden states are bit-identical to the graph
path.

Fused sequence path
-------------------
The PPO learner evaluates whole ``[T, B, input]`` sequences with
gradients. ``unroll`` projects the inputs of all T steps in one
:func:`~repro.nn.tensor.affine` and runs the recurrence as a single graph
node: its forward repeats ``infer`` op for op, single gate
pass included (so the hidden states are bit-identical to T autodiff
cell calls), and caches the gate activations; its backward is a numpy
BPTT loop that sums the weight gradients in one gemm over all T·B rows.
The backward first computes, for all T steps in a few vectorised
passes, every gate factor that does not depend on the recurrence (the
gate slopes times the cell terms they multiply); the time loop keeps
only the dh/dc recurrence, two gate-block products and the ``dh_next``
matmul. The summation order and the grouping of those products differ
from the per-step graph, so gradients agree to ≤1e-10 relative
(``tests/nn/test_recurrent.py``).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from . import init as initializers
from .module import Module, Parameter
from .tensor import (
    Tensor,
    _as_array,
    _graphless,
    _row_stable_matmul,
    affine,
    as_tensor,
    is_grad_enabled,
    sigmoid_data,
)


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

    def infer(
        self, x: np.ndarray, state: Tuple[np.ndarray, np.ndarray]
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """One graph-free step on arrays: ``h, (h, c)`` from ``x`` and ``(h, c)``."""
        h_prev, c_prev = state
        hs = self.hidden_size
        gates = self._gates_scratch(x.shape[0])
        if x.shape[0] == 1:
            # Single-row batches replicate the graph path's row-stable
            # matmul (gemv results differ from gemm at the last ulp).
            gates[:] = _row_stable_matmul(x, self.weight_ih.data)
            gates += _row_stable_matmul(h_prev, self.weight_hh.data)
        else:
            np.matmul(x, self.weight_ih.data, out=gates)
            gates += h_prev @ self.weight_hh.data
        gates += self.bias.data
        g_gate = np.tanh(gates[:, 2 * hs : 3 * hs])
        sigmoid_data(gates, out=gates)  # i, f and o in one pass; the g block is overwritten
        i_gate = gates[:, 0 * hs : 1 * hs]
        f_gate = gates[:, 1 * hs : 2 * hs]
        o_gate = gates[:, 3 * hs : 4 * hs]
        c_new = f_gate * c_prev
        c_new += i_gate * g_gate
        h_new = o_gate * np.tanh(c_new)
        return h_new, (h_new, c_new)

    def __call__(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        h_prev, c_prev = state
        if not is_grad_enabled():
            h_new, (_, c_new) = self.infer(
                _as_array(x), (_as_array(h_prev), _as_array(c_prev))
            )
            h_t = _graphless(h_new)
            return h_t, (h_t, _graphless(c_new))
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
        x_seq = as_tensor(x_seq)
        steps, batch = x_seq.shape[0], x_seq.shape[1]
        projected = affine(x_seq.reshape(steps * batch, x_seq.shape[2]), self.weight_ih, None)
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
            sigmoid_data(g, out=g)
            i_gate, f_gate = g[:, 0 * hs : 1 * hs], g[:, 1 * hs : 2 * hs]
            o_gate = g[:, 3 * hs : 4 * hs]
            c_new = np.multiply(f_gate, cells[t], out=cells[t + 1])
            c_new += i_gate * g_gate
            np.multiply(o_gate, np.tanh(c_new, out=tanh_cells[t]), out=hidden[t + 1])

        def backward(grad: np.ndarray) -> None:
            # Every factor that does not depend on the recurrence, for all
            # T steps in a few vectorised passes: per gate block, the
            # pre-activation gradient is dc (i, f, g) or dh (o) times
            # factors[t, :, block].
            sig = gates.reshape(steps, batch, 4, hs)
            i_gate, f_gate, o_gate = sig[:, :, 0], sig[:, :, 1], sig[:, :, 3]
            slopes = sig * (1.0 - sig)  # σ' of every block (the g slot is unused)
            factors = np.empty((steps, batch, 4, hs))
            np.multiply(g_gates, slopes[:, :, 0], out=factors[:, :, 0])
            np.multiply(cells[:-1], slopes[:, :, 1], out=factors[:, :, 1])
            np.multiply(i_gate, 1.0 - g_gates * g_gates, out=factors[:, :, 2])
            np.multiply(tanh_cells, slopes[:, :, 3], out=factors[:, :, 3])
            dc_dh = o_gate * (1.0 - tanh_cells * tanh_cells)
            d_gates = np.empty((steps, batch, 4, hs))
            dh_next = dc_next = 0.0
            for t in reversed(range(steps)):
                dh = grad[t] + dh_next
                dc = dh * dc_dh[t]
                dc += dc_next
                dg = d_gates[t]
                np.multiply(factors[t, :, :3], dc[:, None, :], out=dg[:, :3])
                np.multiply(factors[t, :, 3], dh, out=dg[:, 3])
                dc_next = dc * f_gate[t]
                if t:
                    dh_next = dg.reshape(batch, 4 * hs) @ w_hh.T
            flat = d_gates.reshape(steps * batch, 4 * hs)
            if self.weight_hh.requires_grad:
                self.weight_hh._accumulate(hidden[:-1].reshape(steps * batch, hs).T @ flat)
            if self.bias.requires_grad:
                self.bias._accumulate(flat.sum(axis=0))
            if projected.requires_grad:
                projected._accumulate(flat)

        parents = (projected, self.weight_hh, self.bias)
        if not (is_grad_enabled() and any(p.requires_grad for p in parents)):
            return _graphless(hidden[1:])
        out = Tensor(hidden[1:], requires_grad=True, _prev=parents)
        out._backward = backward
        return out
