"""Tests for Linear / MLP and the Module system."""

import numpy as np
import pytest

from repro.nn import ACTIVATIONS, MLP, Linear, Module, Parameter, Tensor

from ..helpers import check_gradients

RNG = np.random.default_rng(2)


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, RNG)
        out = layer(Tensor(RNG.standard_normal((5, 4))))
        assert out.shape == (5, 3)

    def test_forward_value(self):
        layer = Linear(2, 2, RNG)
        layer.weight.data = np.eye(2)
        layer.bias.data = np.array([1.0, -1.0])
        out = layer(Tensor(np.array([[2.0, 3.0]])))
        np.testing.assert_allclose(out.data, [[3.0, 2.0]])

    def test_no_bias(self):
        layer = Linear(3, 2, RNG, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_flow_to_weights(self):
        layer = Linear(3, 2, RNG)
        x = Tensor(RNG.standard_normal((4, 3)))
        layer(x).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, [4.0, 4.0])

    def test_unknown_init_raises(self):
        with pytest.raises(ValueError):
            Linear(3, 2, RNG, init="nope")

    def test_gradcheck_through_layer(self):
        layer = Linear(3, 1, RNG)

        def loss(tensors):
            saved_w, saved_b = layer.weight, layer.bias
            layer.weight, layer.bias = tensors[0], tensors[1]
            try:
                return layer(Tensor(np.ones((2, 3)))).sum()
            finally:
                layer.weight, layer.bias = saved_w, saved_b

        check_gradients(loss, [layer.weight.data.copy(), layer.bias.data.copy()])


class TestMLP:
    def test_shapes(self):
        mlp = MLP([4, 8, 8, 2], RNG)
        out = mlp(Tensor(RNG.standard_normal((10, 4))))
        assert out.shape == (10, 2)

    def test_too_few_sizes_raises(self):
        with pytest.raises(ValueError):
            MLP([4], RNG)

    def test_hidden_activations_are_tanh_and_relu(self):
        assert sorted(ACTIVATIONS) == ["relu", "tanh"]
        with pytest.raises(KeyError):
            MLP([3, 4, 2], RNG, activation="sigmoid")

    @pytest.mark.parametrize(
        "activation,hidden_gain", [("tanh", 1.0), ("relu", np.sqrt(2.0))], ids=["tanh", "relu"]
    )
    @pytest.mark.parametrize("sizes", [[3, 8, 8, 2], [16, 4, 6]], ids=["widening", "narrowing"])
    def test_every_layer_is_orthogonal(self, sizes, activation, hidden_gain):
        """Each weight is a C-ordered (semi-)orthogonal matrix scaled by
        its gain (the activation's for hidden layers, ``out_gain`` for the
        last one), and every bias starts at zero."""
        mlp = MLP(sizes, np.random.default_rng(3), activation=activation, out_gain=0.01)
        gains = [hidden_gain] * (len(sizes) - 2) + [0.01]
        for layer, gain in zip(mlp.layers, gains):
            weight = layer.weight.data
            assert weight.flags["C_CONTIGUOUS"]
            fan_in, fan_out = weight.shape
            gram = weight.T @ weight if fan_in >= fan_out else weight @ weight.T
            np.testing.assert_allclose(gram, gain**2 * np.eye(min(fan_in, fan_out)), atol=1e-12)
            np.testing.assert_array_equal(layer.bias.data, np.zeros(fan_out))

    def test_relu_activation(self):
        mlp = MLP([3, 4, 2], RNG, activation="relu")
        out = mlp(Tensor(RNG.standard_normal((5, 3))))
        assert out.shape == (5, 2)

    def test_all_params_receive_grads(self):
        mlp = MLP([3, 4, 2], RNG)
        mlp(Tensor(RNG.standard_normal((5, 3)))).sum().backward()
        for param in mlp.parameters():
            assert param.grad is not None

    def test_parameter_count(self):
        mlp = MLP([3, 4, 2], RNG)
        assert sum(param.size for param in mlp.parameters()) == (3 * 4 + 4) + (4 * 2 + 2)

    def test_training_reduces_loss(self):
        from repro.nn import Adam, mse_loss

        mlp = MLP([1, 16, 1], np.random.default_rng(20))
        optimizer = Adam(mlp.parameters(), lr=1e-2)
        x = np.linspace(-1, 1, 32).reshape(-1, 1)
        y = np.sin(3 * x)
        first_loss = None
        for _ in range(300):
            optimizer.zero_grad()
            loss = mse_loss(mlp(Tensor(x)), Tensor(y))
            loss.backward()
            optimizer.step()
            if first_loss is None:
                first_loss = loss.item()
        assert loss.item() < first_loss * 0.2


class TestModuleSystem:
    def test_named_parameters_deterministic(self):
        mlp = MLP([2, 3, 2], RNG)
        names1 = [name for name, _ in mlp.named_parameters()]
        names2 = [name for name, _ in mlp.named_parameters()]
        assert names1 == names2
        assert len(names1) == 4

    def test_state_dict_roundtrip(self):
        mlp1 = MLP([2, 3, 2], RNG)
        mlp2 = MLP([2, 3, 2], np.random.default_rng(99))
        mlp2.load_state_dict(mlp1.state_dict())
        x = Tensor(RNG.standard_normal((4, 2)))
        np.testing.assert_allclose(mlp1(x).data, mlp2(x).data)

    def test_state_dict_mismatch_raises(self):
        mlp = MLP([2, 3, 2], RNG)
        state = mlp.state_dict()
        state["bogus"] = np.zeros(3)
        with pytest.raises(KeyError):
            mlp.load_state_dict(state)

    def test_state_dict_shape_mismatch_raises(self):
        mlp = MLP([2, 3, 2], RNG)
        state = mlp.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((7, 7))
        with pytest.raises(ValueError):
            mlp.load_state_dict(state)

    def test_zero_grad(self):
        mlp = MLP([2, 3, 2], RNG)
        mlp(Tensor(RNG.standard_normal((4, 2)))).sum().backward()
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())

    def test_nested_modules_discovered(self):
        class Wrapper(Module):
            def __init__(self):
                self.inner = MLP([2, 3, 1], RNG)
                self.scale = Parameter(np.ones(1))
                self.blocks = [Linear(2, 2, RNG), Linear(2, 2, RNG)]

        wrapper = Wrapper()
        names = [name for name, _ in wrapper.named_parameters()]
        assert any(name.startswith("inner.") for name in names)
        assert any(name.startswith("blocks.0.") for name in names)
        assert any(name.startswith("blocks.1.") for name in names)
        assert "scale" in names

    def test_serialization_roundtrip(self, tmp_path):
        from repro.nn import load_state, save_state

        mlp1 = MLP([2, 4, 1], RNG)
        path = tmp_path / "model.npz"
        save_state(path, mlp1.state_dict())
        mlp2 = MLP([2, 4, 1], np.random.default_rng(7))
        mlp2.load_state_dict(load_state(path))
        x = Tensor(RNG.standard_normal((3, 2)))
        np.testing.assert_allclose(mlp1(x).data, mlp2(x).data)
