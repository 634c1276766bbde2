"""Edge-case and numerical-robustness tests for the nn substrate."""

import numpy as np
import pytest

from repro import nn
from repro.envs import dpr, lts, slate


def _two_sided_sigmoid(x: np.ndarray) -> np.ndarray:
    """The sigmoid with the former symmetric ``[-60, 60]`` input clamp."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _sigmoid_inputs() -> np.ndarray:
    rng = np.random.default_rng(0)
    edges = [0.0, -0.0, 36.7, 36.8, 36.9, 59.999, 60.0, 60.001, 1e308, np.inf, np.nan, 5e-324, 2.2e-308]
    return np.concatenate(
        [
            rng.standard_normal(50_000) * 20.0,
            rng.uniform(-120.0, 120.0, 50_000),
            np.array(edges),
            -np.array(edges),
        ]
    )


def _sigmoid_in_place(x: np.ndarray) -> np.ndarray:
    """The in-place form the recurrent gates and the graph-free heads use."""
    out = x.copy()
    return nn.sigmoid_data(out, out=out)


SIGMOIDS = {
    "sigmoid_data_in_place": _sigmoid_in_place,
    "Tensor.sigmoid": lambda x: nn.Tensor(x).sigmoid().data,
    "slate._sigmoid": slate._sigmoid,
    "lts._sigmoid": lts._sigmoid,
    "dpr._sigmoid": dpr._sigmoid,
}


class TestNumericalRobustness:
    def test_sigmoid_extreme_inputs(self):
        out = nn.Tensor(np.array([1e4, -1e4])).sigmoid()
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("name", sorted(SIGMOIDS))
    def test_one_sided_sigmoid_clamp_is_bit_identical(self, name):
        """Above ~36.8, ``1 + exp(-x)`` already rounds to 1.0, so dropping
        the upper clamp changes no output bit (NaN and ±inf included)."""
        x = _sigmoid_inputs()
        out = SIGMOIDS[name](x)
        assert np.array_equal(out.view(np.uint64), _two_sided_sigmoid(x).view(np.uint64))

    def test_softmax_with_neg_inf_like_logits(self):
        logits = nn.Tensor(np.array([[0.0, -1e30, 0.0]]))
        probs = nn.softmax(logits).data
        np.testing.assert_allclose(probs[0], [0.5, 0.0, 0.5], atol=1e-12)

    def test_gaussian_log_prob_tiny_std(self):
        dist = nn.DiagGaussian(nn.Tensor(np.zeros(1)), nn.Tensor(np.array([-30.0])))
        # log_std is clipped; likelihood stays finite
        value = dist.log_prob(np.array([0.1])).data
        assert np.isfinite(value)

    def test_log_prob_far_from_mean(self):
        dist = nn.DiagGaussian(nn.Tensor(np.zeros(2)), nn.Tensor(np.zeros(2)))
        value = dist.log_prob(np.full(2, 100.0)).item()
        assert np.isfinite(value) and value < -1000

    def test_adam_with_zero_gradients(self):
        param = nn.Parameter(np.ones(3))
        optimizer = nn.Adam([param], lr=0.1)
        param.grad = np.zeros(3)
        optimizer.step()
        np.testing.assert_array_equal(param.data, np.ones(3))

    def test_empty_like_batch_dimension(self):
        mlp = nn.MLP([3, 4, 2], np.random.default_rng(0))
        out = mlp(nn.Tensor(np.zeros((0, 3))))
        assert out.shape == (0, 2)

    def test_lstm_batch_size_one(self):
        lstm = nn.LSTM(2, 3, np.random.default_rng(0))
        outputs, _ = lstm(nn.Tensor(np.random.default_rng(0).standard_normal((4, 1, 2))))
        assert outputs.shape == (4, 1, 3)

    def test_product_of_gaussians_single_factor_identity(self):
        mean = nn.Tensor(np.array([[1.5, -0.5]]))
        log_std = nn.Tensor(np.array([[0.2, -0.3]]))
        product = nn.product_of_gaussians(mean, log_std, axis=0)
        np.testing.assert_allclose(product.mean.data, [1.5, -0.5], atol=1e-12)
        np.testing.assert_allclose(product.log_std.data, [0.2, -0.3], atol=1e-12)

    def test_clip_grad_norm_zero_gradients(self):
        param = nn.Parameter(np.ones(2))
        param.grad = np.zeros(2)
        norm = nn.clip_grad_norm([param], max_norm=1.0)
        assert norm == 0.0


class TestGraphEdgeCases:
    def test_scalar_tensor_operations(self):
        t = nn.Tensor(2.0, requires_grad=True)
        (t * t).backward()
        np.testing.assert_allclose(t.grad, 4.0)

    def test_chained_getitem(self):
        t = nn.Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        t[0][1].sum().backward()
        expected = np.zeros((2, 3, 4))
        expected[0, 1] = 1.0
        np.testing.assert_array_equal(t.grad, expected)

    def test_concat_single_tensor(self):
        t = nn.Tensor(np.ones((2, 3)), requires_grad=True)
        nn.concat([t], axis=0).sum().backward()
        np.testing.assert_array_equal(t.grad, np.ones((2, 3)))

    def test_backward_twice_through_same_graph(self):
        """Grad accumulation across separate forward passes is supported."""
        t = nn.Tensor(np.ones(2), requires_grad=True)
        (t * 2.0).sum().backward()
        (t * 3.0).sum().backward()
        np.testing.assert_allclose(t.grad, [5.0, 5.0])

    def test_no_grad_inside_grad_context(self):
        t = nn.Tensor(np.ones(2), requires_grad=True)
        a = t * 2.0
        with nn.no_grad():
            b = t * 3.0
        assert a.requires_grad
        assert not b.requires_grad

    def test_nested_no_grad(self):
        with nn.no_grad():
            with nn.no_grad():
                pass
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()

    def test_where_with_all_true(self):
        a = nn.Tensor(np.ones(3), requires_grad=True)
        b = nn.Tensor(np.zeros(3), requires_grad=True)
        nn.where(np.ones(3, dtype=bool), a, b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones(3))
        np.testing.assert_array_equal(b.grad, np.zeros(3))

    def test_stack_gradient_axis1(self):
        a = nn.Tensor(np.ones(3), requires_grad=True)
        b = nn.Tensor(np.ones(3), requires_grad=True)
        out = nn.stack([a, b], axis=1)
        assert out.shape == (3, 2)
        (out * np.array([[1.0, 2.0]] * 3)).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones(3))
        np.testing.assert_array_equal(b.grad, np.full(3, 2.0))


class TestModuleEdgeCases:
    def test_module_without_parameters(self):
        class Empty(nn.Module):
            pass

        assert Empty().parameters() == []
        assert Empty().num_parameters() == 0

    def test_save_load_empty_module_roundtrip(self, tmp_path):
        mlp = nn.MLP([2, 2], np.random.default_rng(0))
        path = tmp_path / "m.npz"
        nn.save_state(path, mlp.state_dict())
        clone = nn.MLP([2, 2], np.random.default_rng(1))
        clone.load_state_dict(nn.load_state(path))
        x = nn.Tensor(np.ones((1, 2)))
        np.testing.assert_allclose(mlp(x).data, clone(x).data)

    def test_copy_from(self):
        a = nn.MLP([2, 3, 1], np.random.default_rng(0))
        b = nn.MLP([2, 3, 1], np.random.default_rng(1))
        b.copy_from(a)
        x = nn.Tensor(np.ones((2, 2)))
        np.testing.assert_allclose(a(x).data, b(x).data)
