"""The graph-free inference fast path.

Three guarantees:

1. under ``no_grad()`` no backward closures or parent links are ever
   recorded, even when parameters are involved (the ops return through
   the graphless constructor);
2. the fast path changes no numbers: forward results are bit-identical
   to the graph-building path for Linear/MLP and both recurrent cells,
   and the array-level step the policies run (``MLP.infer``, the array
   Gaussian head) equals the graph path for every batch shape, head
   width and activation;
3. train-mode gradients (fused ``affine``, GRU/LSTM cells) still match
   finite differences.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import affine

from ..helpers import check_gradients

RNG = np.random.default_rng(0)


def assert_graphless(tensor: nn.Tensor):
    assert not tensor.requires_grad
    assert tensor._backward is None
    assert tensor._prev == ()


class TestNoClosuresUnderNoGrad:
    def test_arithmetic_ops_on_parameters(self):
        p = nn.Parameter(RNG.standard_normal((4, 3)))
        q = nn.Parameter(RNG.standard_normal((4, 3)))
        with nn.no_grad():
            for out in [
                p + q,
                p * q,
                p - q,
                p / (q.abs() + 1.0),
                -p,
                p**2.0,
                p @ q.T,
                p.exp(),
                (p.abs() + 1e-6).log(),
                (p.abs()).sqrt(),
                p.tanh(),
                p.sigmoid(),
                p.relu(),
                p.clip(-1.0, 1.0),
                p.maximum(q),
                p.minimum(q),
                p.sum(axis=0),
                p.mean(),
                p.max(axis=1),
                p.reshape(3, 4),
                p.transpose(),
                p[1:3],
                nn.concat([p, q], axis=1),
                nn.stack([p, q]),
                nn.where(p.data > 0, p, q),
                affine(p, q.T),
            ]:
                assert_graphless(out)

    def test_modules_under_no_grad(self):
        mlp = nn.MLP([5, 8, 3], RNG)
        lstm = nn.LSTMCell(5, 7, RNG)
        gru = nn.GRUCell(5, 7, RNG)
        x = nn.Tensor(RNG.standard_normal((6, 5)))
        with nn.no_grad():
            assert_graphless(mlp(x))
            h, (h2, c2) = lstm(x, lstm.initial_state(6))
            assert_graphless(h)
            assert_graphless(c2)
            assert_graphless(gru(x, gru.initial_state(6)))

    def test_graph_still_built_when_grad_enabled(self):
        layer = nn.Linear(4, 2, RNG)
        out = layer(nn.Tensor(RNG.standard_normal((3, 4))))
        assert out.requires_grad
        assert out._backward is not None
        assert layer.weight in out._prev


class TestFastPathMatchesGraphPath:
    def test_mlp_forward_bitwise(self):
        mlp = nn.MLP([13, 64, 32, 2], RNG)
        x = RNG.standard_normal((40, 13))
        with nn.no_grad():
            fast = mlp(nn.Tensor(x)).data
        slow = mlp(nn.Tensor(x)).data
        np.testing.assert_array_equal(fast, slow)

    def test_lstm_cell_multi_step_bitwise(self):
        cell = nn.LSTMCell(10, 16, RNG)
        xs = RNG.standard_normal((5, 8, 10))
        fast_state = cell.initial_state(8)
        slow_state = cell.initial_state(8)
        for t in range(5):
            with nn.no_grad():
                h_fast, fast_state = cell(nn.Tensor(xs[t]), fast_state)
            h_slow, slow_state = cell(nn.Tensor(xs[t]), slow_state)
            np.testing.assert_array_equal(h_fast.data, h_slow.data)
            np.testing.assert_array_equal(fast_state[1].data, slow_state[1].data)

    def test_gru_cell_multi_step_bitwise(self):
        cell = nn.GRUCell(10, 16, RNG)
        xs = RNG.standard_normal((5, 8, 10))
        h_fast = cell.initial_state(8)
        h_slow = cell.initial_state(8)
        for t in range(5):
            with nn.no_grad():
                h_fast = cell(nn.Tensor(xs[t]), h_fast)
            h_slow = cell(nn.Tensor(xs[t]), h_slow)
            np.testing.assert_array_equal(h_fast.data, h_slow.data)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("batch", [1, 2, 7, 1200])
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_cell_bitwise_on_saturating_and_non_finite_inputs(self, kind, batch):
        """The one contiguous gate pass against the graph path: inputs
        scaled so pre-activations cross ±60 (where the sigmoid clamp
        acts), plus a row holding ±inf and a row holding NaN. The fused
        ``unroll`` forward must match the same per-step graph."""
        rng = np.random.default_rng(batch)
        cell = (nn.LSTMCell if kind == "lstm" else nn.GRUCell)(6, 16, rng)
        xs = rng.standard_normal((4, batch, 6)) * 60.0
        pre = xs[0] @ cell.weight_ih.data
        assert pre.max() > 60.0 and pre.min() < -60.0
        if batch > 1:
            xs[:, 0, 0], xs[:, 0, 1] = np.inf, -np.inf
            xs[:, -1, 2] = np.nan

        def run(state, x):
            out = cell(nn.Tensor(x), state)
            return out if kind == "lstm" else (out, out)

        fast_state = slow_state = cell.initial_state(batch)
        slow_hidden = []
        for x in xs:
            with nn.no_grad():
                h_fast, fast_state = run(fast_state, x)
            h_slow, slow_state = run(slow_state, x)
            slow_hidden.append(h_slow.data)
            assert np.array_equal(h_fast.data, h_slow.data, equal_nan=True)
            if kind == "lstm":
                assert np.array_equal(fast_state[1].data, slow_state[1].data, equal_nan=True)
        assert np.array_equal(
            cell.unroll(nn.Tensor(xs)).data, np.stack(slow_hidden), equal_nan=True
        )
        if batch > 1:
            assert np.isnan(slow_hidden[-1][0]).all() and np.isnan(slow_hidden[-1][-1]).all()

    def test_scratch_reuse_across_batch_sizes(self):
        """Changing batch size mid-stream must not corrupt the scratch."""
        cell = nn.GRUCell(4, 6, RNG)
        for batch in (3, 9, 3):
            x = RNG.standard_normal((batch, 4))
            with nn.no_grad():
                fast = cell(nn.Tensor(x), cell.initial_state(batch)).data
            slow = cell(nn.Tensor(x), cell.initial_state(batch)).data
            np.testing.assert_array_equal(fast, slow)

    def test_value_head_row_stability(self):
        """Single-output affine must give identical rows regardless of how
        the batch is blocked (the gemv batch-dependence regression)."""
        layer = nn.Linear(32, 1, RNG, init="orthogonal")
        x = RNG.standard_normal((30, 32))
        with nn.no_grad():
            full = layer(nn.Tensor(x)).data
            for start in range(0, 30, 7):
                block = layer(nn.Tensor(x[start : start + 7])).data
                np.testing.assert_array_equal(full[start : start + 7], block)


class TestArrayForwardMatchesGraphPath:
    """``MLP.infer`` and the array Gaussian head against the autodiff graph."""

    @pytest.mark.parametrize("activation", sorted(nn.ACTIVATIONS))
    @pytest.mark.parametrize("out_dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("batch", [(1,), (7,), (40,), (3, 5)], ids=str)
    def test_mlp_infer_bitwise(self, activation, out_dim, batch):
        """1-row and odd-row batches, narrow heads of 1-3 columns (the
        per-row reduction rule), a gemm-wide head and 3-D inputs."""
        rng = np.random.default_rng(out_dim)
        mlp = nn.MLP([6, 9, 11, out_dim], rng, activation=activation, out_activation=activation)
        x = rng.standard_normal(batch + (6,)) * 3.0
        graph = mlp(nn.Tensor(x, requires_grad=True))
        assert graph.requires_grad  # the reference really is the graph path
        kept = x.copy()
        assert np.array_equal(mlp.infer(x), graph.data)
        assert np.array_equal(x, kept)  # the input is only read
        with nn.no_grad():
            assert np.array_equal(mlp(nn.Tensor(x)).data, graph.data)

    def test_mlp_infer_rows_do_not_depend_on_the_batch(self):
        mlp = nn.MLP([5, 8, 1], RNG)
        x = RNG.standard_normal((9, 5))
        full = mlp.infer(x)
        for row in range(9):
            assert np.array_equal(mlp.infer(x[row : row + 1]), full[row : row + 1])

    @pytest.mark.parametrize("log_std", [-0.5, -12.0, 6.0])
    def test_gaussian_head_bitwise(self, log_std):
        """Sample and log-prob on arrays equal ``DiagGaussian``'s, with the
        same draws, including log-stds clipped at either bound."""
        rng = np.random.default_rng(3)
        mean = rng.random((7, 3))
        log_stds = log_std + rng.standard_normal(3) * 0.1
        dist = nn.DiagGaussian(nn.Tensor(mean), nn.Parameter(log_stds))
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        sample = nn.diag_gaussian_sample(mean, log_stds, ours)
        assert np.array_equal(sample, dist.sample(theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state
        for value in (sample, mean):
            assert np.array_equal(
                nn.diag_gaussian_log_prob(value, mean, log_stds), dist.log_prob(value).data
            )


class TestTrainGradientsUnchanged:
    def test_affine_with_bias_gradcheck(self):
        x = RNG.standard_normal((4, 3))
        w = RNG.standard_normal((3, 2))
        b = RNG.standard_normal(2)
        check_gradients(lambda t: affine(t[0], t[1], t[2]).sum(), [x, w, b])

    def test_affine_without_bias_gradcheck(self):
        x = RNG.standard_normal((4, 3))
        w = RNG.standard_normal((3, 2))
        check_gradients(lambda t: (affine(t[0], t[1]) * affine(t[0], t[1])).sum(), [x, w])

    def test_affine_single_output_gradcheck(self):
        # The value-head case takes the row-stable reduction path.
        x = RNG.standard_normal((5, 4))
        w = RNG.standard_normal((4, 1))
        b = RNG.standard_normal(1)
        check_gradients(lambda t: affine(t[0], t[1], t[2]).sum(), [x, w, b])

    def test_linear_layer_gradcheck(self):
        layer = nn.Linear(3, 2, RNG)

        def func(tensors):
            layer.weight, layer.bias = tensors[1], tensors[2]
            return (layer(tensors[0]) ** 2.0).sum()

        check_gradients(
            func,
            [RNG.standard_normal((4, 3)), RNG.standard_normal((3, 2)), RNG.standard_normal(2)],
        )

    def test_gru_cell_gradcheck(self):
        cell = nn.GRUCell(3, 4, np.random.default_rng(1))

        def func(tensors):
            x, h = tensors
            return cell(x, h).sum()

        check_gradients(func, [RNG.standard_normal((2, 3)), RNG.standard_normal((2, 4))])

    def test_lstm_cell_gradcheck(self):
        cell = nn.LSTMCell(3, 4, np.random.default_rng(2))

        def func(tensors):
            x, h, c = tensors
            out, (h2, c2) = cell(x, (h, c))
            return (out * out).sum() + c2.sum()

        check_gradients(
            func,
            [
                RNG.standard_normal((2, 3)),
                RNG.standard_normal((2, 4)),
                RNG.standard_normal((2, 4)),
            ],
        )
