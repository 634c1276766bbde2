"""Tests for LSTM / GRU cells and sequence unrolling (BPTT)."""

import numpy as np
import pytest

from repro.nn import GRUCell, LSTM, LSTMCell, Tensor, no_grad, stack

from ..helpers import check_gradients

RNG = np.random.default_rng(3)


class TestLSTMCell:
    def test_output_shapes(self):
        cell = LSTMCell(4, 8, RNG)
        state = cell.initial_state(3)
        h, (h2, c2) = cell(Tensor(RNG.standard_normal((3, 4))), state)
        assert h.shape == (3, 8)
        assert h2.shape == (3, 8)
        assert c2.shape == (3, 8)

    def test_forget_bias_initialised_to_one(self):
        cell = LSTMCell(4, 8, RNG)
        np.testing.assert_array_equal(cell.bias.data[8:16], np.ones(8))

    def test_state_changes_output(self):
        cell = LSTMCell(2, 4, RNG)
        x = Tensor(RNG.standard_normal((1, 2)))
        zero_state = cell.initial_state(1)
        h1, _ = cell(x, zero_state)
        active_state = (Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))))
        h2, _ = cell(x, active_state)
        assert not np.allclose(h1.data, h2.data)

    def test_gradients_through_time(self):
        cell = LSTMCell(2, 3, RNG)
        xs = RNG.standard_normal((4, 1, 2))

        def loss(tensors):
            state = cell.initial_state(1)
            total = None
            for t in range(4):
                h, state = cell(tensors[0][t], state)
                total = h.sum() if total is None else total + h.sum()
            return total

        check_gradients(loss, [xs], atol=1e-4)

    def test_parameter_gradients_populated(self):
        cell = LSTMCell(2, 3, RNG)
        state = cell.initial_state(2)
        h, state = cell(Tensor(RNG.standard_normal((2, 2))), state)
        h, _ = cell(Tensor(RNG.standard_normal((2, 2))), state)
        h.sum().backward()
        for param in cell.parameters():
            assert param.grad is not None
            assert np.any(param.grad != 0)


class TestGRUCell:
    def test_output_shape(self):
        cell = GRUCell(4, 6, RNG)
        h = cell(Tensor(RNG.standard_normal((3, 4))), cell.initial_state(3))
        assert h.shape == (3, 6)

    def test_interpolation_property(self):
        # With z -> 1 the GRU must copy the previous state.
        cell = GRUCell(2, 3, RNG)
        cell.bias.data[3:6] = 100.0  # saturate update gate z to 1
        h_prev = Tensor(RNG.standard_normal((1, 3)))
        h = cell(Tensor(RNG.standard_normal((1, 2))), h_prev)
        np.testing.assert_allclose(h.data, h_prev.data, atol=1e-6)

    def test_gradients(self):
        cell = GRUCell(2, 3, RNG)
        h = cell(Tensor(RNG.standard_normal((2, 2))), cell.initial_state(2))
        h.sum().backward()
        for param in cell.parameters():
            assert param.grad is not None


class TestLSTMSequence:
    def test_output_shapes(self):
        lstm = LSTM(3, 5, RNG)
        seq = Tensor(RNG.standard_normal((7, 2, 3)))
        outputs, (h, c) = lstm(seq)
        assert outputs.shape == (7, 2, 5)
        assert h.shape == (2, 5)
        assert c.shape == (2, 5)

    def test_matches_manual_unroll(self):
        lstm = LSTM(3, 4, RNG)
        seq = RNG.standard_normal((5, 2, 3))
        outputs, _ = lstm(Tensor(seq))
        state = lstm.cell.initial_state(2)
        for t in range(5):
            h, state = lstm.cell(Tensor(seq[t]), state)
            np.testing.assert_allclose(outputs.data[t], h.data, atol=1e-12)

    def test_reset_mask_restarts_state(self):
        lstm = LSTM(2, 3, RNG)
        seq = RNG.standard_normal((4, 1, 2))
        # Reset at t=2: outputs from t=2 on must equal a fresh run on the suffix.
        mask = np.zeros((4, 1))
        mask[2, 0] = 1.0
        outputs_masked, _ = lstm(Tensor(seq), reset_mask=mask)
        outputs_suffix, _ = lstm(Tensor(seq[2:]))
        np.testing.assert_allclose(outputs_masked.data[2:], outputs_suffix.data, atol=1e-12)

    def test_initial_state_passthrough(self):
        lstm = LSTM(2, 3, RNG)
        seq = Tensor(RNG.standard_normal((2, 1, 2)))
        h0 = Tensor(np.ones((1, 3)) * 0.5)
        c0 = Tensor(np.ones((1, 3)) * 0.5)
        out_custom, _ = lstm(seq, state=(h0, c0))
        out_zero, _ = lstm(seq)
        assert not np.allclose(out_custom.data, out_zero.data)

    def test_bptt_gradients_nonzero_at_first_step(self):
        lstm = LSTM(2, 3, RNG)
        seq = Tensor(RNG.standard_normal((6, 2, 2)), requires_grad=True)
        outputs, _ = lstm(seq)
        outputs[5].sum().backward()
        first_step_grad = seq.grad[0]
        assert np.any(first_step_grad != 0.0), "gradient should flow to t=0 through BPTT"

    def test_learns_to_remember_first_input(self):
        """LSTM can learn a copy task: output the first element at the end."""
        from repro.nn import Adam, Linear, mse_loss

        rng = np.random.default_rng(42)
        lstm = LSTM(1, 8, rng)
        head = Linear(8, 1, rng)
        params = lstm.parameters() + head.parameters()
        optimizer = Adam(params, lr=5e-3)
        losses = []
        for _ in range(150):
            signal = rng.standard_normal((1, 8, 1))
            seq = np.concatenate([signal, np.zeros((5, 8, 1))], axis=0)
            target = signal[0]
            optimizer.zero_grad()
            outputs, _ = lstm(Tensor(seq))
            prediction = head(outputs[-1])
            loss = mse_loss(prediction, Tensor(target))
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert np.mean(losses[-10:]) < np.mean(losses[:10]) * 0.5


def _cell_loop(cell, x):
    """Reference: T autodiff cell calls from the zero state, stacked."""
    state = cell.initial_state(x.shape[1])
    outputs = []
    for t in range(x.shape[0]):
        if isinstance(cell, LSTMCell):
            h, state = cell(x[t], state)
        else:
            h = state = cell(x[t], state)
        outputs.append(h)
    return stack(outputs, axis=0)


def _gradients(cell, run, x_data, cotangent):
    """(per-parameter grads, input grad) of ``sum(run(x) * cotangent)``."""
    cell.zero_grad()
    x = Tensor(x_data, requires_grad=True)
    (run(cell, x) * Tensor(cotangent)).sum().backward()
    return {name: p.grad.copy() for name, p in cell.named_parameters()}, x.grad.copy()


def assert_relative_close(actual, expected, rtol=1e-10):
    """max |actual − expected| ≤ rtol · max |expected| (exact when expected is 0)."""
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rtol * scale


CELLS = {"lstm": LSTMCell, "gru": GRUCell}
UNROLL_GRID = pytest.mark.parametrize(
    "kind,batch,steps",
    [(kind, b, t) for kind in CELLS for b in (1, 5) for t in (1, 7)],
)
#: The grid plus the shape the slate training workload unrolls
#: (10 users, horizon 30, 32 hidden units).
UNROLL_GRID_WITH_TRAIN_SHAPE = pytest.mark.parametrize(
    "kind,batch,steps,hidden",
    [
        pytest.param(kind, b, t, 4, id=f"{kind}-{b}-{t}")
        for kind in CELLS
        for b in (1, 5)
        for t in (1, 7)
    ]
    + [pytest.param(kind, 10, 30, 32, id=f"{kind}-10-30-h32") for kind in CELLS],
)


def _setup(kind, batch, steps, input_size=3, hidden=4):
    rng = np.random.default_rng([sorted(CELLS).index(kind), batch, steps])
    cell = CELLS[kind](input_size, hidden, rng)
    x = rng.standard_normal((steps, batch, input_size))
    cotangent = rng.standard_normal((steps, batch, hidden))
    return cell, x, cotangent


class TestFusedUnroll:
    """``unroll`` is one projection node plus one recurrence node; its
    forward is bit-identical to the per-step graph and its gradients sum
    the same terms in another order (≤1e-10 relative)."""

    @UNROLL_GRID_WITH_TRAIN_SHAPE
    def test_forward_bit_equal_to_cell_loop(self, kind, batch, steps, hidden):
        cell, x, _ = _setup(kind, batch, steps, hidden=hidden)
        reference = _cell_loop(cell, Tensor(x, requires_grad=True))
        fused = cell.unroll(Tensor(x, requires_grad=True))
        assert fused.shape == (steps, batch, cell.hidden_size)
        np.testing.assert_array_equal(fused.data, reference.data)
        with no_grad():
            graphless = cell.unroll(x)
        assert not graphless.requires_grad
        np.testing.assert_array_equal(graphless.data, reference.data)

    @UNROLL_GRID_WITH_TRAIN_SHAPE
    def test_backward_matches_cell_loop(self, kind, batch, steps, hidden):
        cell, x, cotangent = _setup(kind, batch, steps, hidden=hidden)
        ref_params, ref_x = _gradients(cell, _cell_loop, x, cotangent)
        params, grad_x = _gradients(cell, type(cell).unroll, x, cotangent)
        assert params.keys() == ref_params.keys()
        for name, expected in ref_params.items():
            assert_relative_close(params[name], expected)
        assert_relative_close(grad_x, ref_x)

    @UNROLL_GRID
    def test_finite_difference_gradcheck(self, kind, batch, steps):
        cell, x, cotangent = _setup(kind, batch, steps)
        weight = Tensor(cotangent)

        def loss(tensors):
            return (cell.unroll(tensors[0]) * weight).sum()

        check_gradients(loss, [x], atol=1e-7)
        params, _ = _gradients(cell, type(cell).unroll, x, cotangent)
        eps = 1e-6
        for name, param in cell.named_parameters():
            numeric = np.zeros_like(param.data)
            flat, grad_flat = param.data.reshape(-1), numeric.reshape(-1)
            with no_grad():
                for index in range(flat.size):
                    original = flat[index]
                    flat[index] = original + eps
                    plus = float(loss([Tensor(x)]).data)
                    flat[index] = original - eps
                    minus = float(loss([Tensor(x)]).data)
                    flat[index] = original
                    grad_flat[index] = (plus - minus) / (2 * eps)
            np.testing.assert_allclose(params[name], numeric, atol=1e-7, rtol=1e-5)

    def test_input_without_grad_still_trains_the_cell(self):
        cell, x, cotangent = _setup("lstm", 3, 4)
        (cell.unroll(Tensor(x)) * Tensor(cotangent)).sum().backward()
        for param in cell.parameters():
            assert param.grad is not None and np.any(param.grad != 0)
