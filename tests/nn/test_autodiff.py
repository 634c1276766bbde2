"""Finite-difference verification of every autodiff operation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, concat, no_grad, stack, where

from ..helpers import check_gradients

RNG = np.random.default_rng(0)


def rand(*shape):
    return RNG.standard_normal(shape)


def positive(*shape):
    return np.abs(RNG.standard_normal(shape)) + 0.5


class TestElementwiseOps:
    def test_add(self):
        check_gradients(lambda t: (t[0] + t[1]).sum(), [rand(3, 4), rand(3, 4)])

    def test_add_broadcast(self):
        check_gradients(lambda t: (t[0] + t[1]).sum(), [rand(3, 4), rand(4)])

    def test_add_scalar_broadcast(self):
        check_gradients(lambda t: (t[0] + t[1]).sum(), [rand(2, 3, 4), rand(1, 4)])

    def test_mul(self):
        check_gradients(lambda t: (t[0] * t[1]).sum(), [rand(3, 4), rand(3, 4)])

    def test_mul_broadcast(self):
        check_gradients(lambda t: (t[0] * t[1]).sum(), [rand(5, 2), rand(2)])

    def test_sub(self):
        check_gradients(lambda t: (t[0] - t[1]).sum(), [rand(3), rand(3)])

    def test_rsub(self):
        check_gradients(lambda t: (1.0 - t[0]).sum(), [rand(3)])

    def test_div(self):
        check_gradients(lambda t: (t[0] / t[1]).sum(), [rand(3, 2), positive(3, 2)])

    def test_rdiv(self):
        check_gradients(lambda t: (2.0 / t[0]).sum(), [positive(4)])

    def test_neg(self):
        check_gradients(lambda t: (-t[0]).sum(), [rand(3)])

    def test_pow(self):
        check_gradients(lambda t: (t[0] ** 3.0).sum(), [rand(3, 2)])

    def test_pow_fractional(self):
        check_gradients(lambda t: (t[0] ** 0.5).sum(), [positive(4)])

    def test_exp(self):
        check_gradients(lambda t: t[0].exp().sum(), [rand(3, 2)])

    def test_log(self):
        check_gradients(lambda t: t[0].log().sum(), [positive(3, 2)])

    def test_sqrt(self):
        check_gradients(lambda t: t[0].sqrt().sum(), [positive(5)])

    def test_tanh(self):
        check_gradients(lambda t: t[0].tanh().sum(), [rand(4, 3)])

    def test_sigmoid(self):
        check_gradients(lambda t: t[0].sigmoid().sum(), [rand(4, 3)])

    def test_relu(self):
        # keep values away from the kink where finite differences break down
        data = rand(4, 3)
        data[np.abs(data) < 0.1] = 0.5
        check_gradients(lambda t: t[0].relu().sum(), [data])

    def test_abs(self):
        data = rand(4)
        data[np.abs(data) < 0.1] = 0.7
        check_gradients(lambda t: t[0].abs().sum(), [data])

    def test_clip_interior_gradient(self):
        data = np.array([0.5, -0.2, 0.1])
        check_gradients(lambda t: t[0].clip(-1.0, 1.0).sum(), [data])

    def test_clip_blocks_gradient_outside(self):
        t = Tensor(np.array([2.0, -3.0, 0.5]), requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 0.0, 1.0])

    def test_maximum(self):
        a, b = rand(5), rand(5)
        b = b + np.where(np.abs(a - b) < 0.1, 0.5, 0.0)
        check_gradients(lambda t: t[0].maximum(t[1]).sum(), [a, b])

    def test_minimum(self):
        a, b = rand(5), rand(5)
        b = b + np.where(np.abs(a - b) < 0.1, 0.5, 0.0)
        check_gradients(lambda t: t[0].minimum(t[1]).sum(), [a, b])

    def test_maximum_scalar(self):
        data = np.array([0.5, -0.5, 1.5])
        check_gradients(lambda t: t[0].maximum(0.0).sum(), [data])


class TestMatmul:
    def test_matmul_2d(self):
        check_gradients(lambda t: (t[0] @ t[1]).sum(), [rand(3, 4), rand(4, 2)])

    def test_matmul_vector_matrix(self):
        check_gradients(lambda t: (t[0] @ t[1]).sum(), [rand(4), rand(4, 2)])

    def test_matmul_matrix_vector(self):
        check_gradients(lambda t: (t[0] @ t[1]).sum(), [rand(3, 4), rand(4)])

    def test_matmul_batched(self):
        check_gradients(lambda t: (t[0] @ t[1]).sum(), [rand(2, 3, 4), rand(2, 4, 2)])

    def test_matmul_broadcast_batch(self):
        check_gradients(lambda t: (t[0] @ t[1]).sum(), [rand(2, 3, 4), rand(4, 2)])


class TestReductions:
    def test_sum_all(self):
        check_gradients(lambda t: t[0].sum(), [rand(3, 4)])

    def test_sum_axis(self):
        check_gradients(lambda t: t[0].sum(axis=0).sum(), [rand(3, 4)])

    def test_sum_axis_keepdims(self):
        check_gradients(lambda t: t[0].sum(axis=1, keepdims=True).sum(), [rand(3, 4)])

    def test_sum_multi_axis(self):
        check_gradients(lambda t: t[0].sum(axis=(0, 2)).sum(), [rand(2, 3, 4)])

    def test_mean_all(self):
        check_gradients(lambda t: t[0].mean(), [rand(3, 4)])

    def test_mean_axis(self):
        check_gradients(lambda t: t[0].mean(axis=-1).sum(), [rand(3, 4)])

    def test_max_all(self):
        data = np.array([[1.0, 5.0], [2.0, -3.0]])
        check_gradients(lambda t: t[0].max(), [data])

    def test_max_axis(self):
        data = np.array([[1.0, 5.0, 2.0], [7.0, -3.0, 0.0]])
        check_gradients(lambda t: t[0].max(axis=1).sum(), [data])

    def test_max_gradient_splits_ties(self):
        t = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5, 0.0])


class TestShapeOps:
    def test_reshape(self):
        check_gradients(lambda t: (t[0].reshape(6) * np.arange(6.0)).sum(), [rand(2, 3)])

    def test_reshape_tuple(self):
        check_gradients(lambda t: (t[0].reshape((3, 2)) ** 2.0).sum(), [rand(2, 3)])

    def test_transpose(self):
        check_gradients(lambda t: (t[0].T @ t[0]).sum(), [rand(3, 2)])

    def test_transpose_axes(self):
        check_gradients(lambda t: (t[0].transpose(1, 0, 2) ** 2.0).sum(), [rand(2, 3, 4)])

    def test_getitem_slice(self):
        check_gradients(lambda t: t[0][1:3].sum(), [rand(5, 2)])

    def test_getitem_int(self):
        check_gradients(lambda t: t[0][2].sum(), [rand(5, 2)])

    def test_getitem_fancy_repeated_indices(self):
        # np.add.at must accumulate when an index appears twice
        t = Tensor(np.arange(4.0), requires_grad=True)
        t[np.array([1, 1, 2])].sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 2.0, 1.0, 0.0])

    def test_concat(self):
        check_gradients(
            lambda t: (concat([t[0], t[1]], axis=1) ** 2.0).sum(),
            [rand(2, 3), rand(2, 4)],
        )

    def test_concat_axis0(self):
        check_gradients(
            lambda t: (concat([t[0], t[1]], axis=0) ** 2.0).sum(),
            [rand(2, 3), rand(4, 3)],
        )

    def test_stack(self):
        check_gradients(
            lambda t: (stack([t[0], t[1]], axis=0) ** 2.0).sum(),
            [rand(3, 2), rand(3, 2)],
        )

    def test_where(self):
        cond = np.array([True, False, True, False])
        check_gradients(
            lambda t: where(cond, t[0], t[1]).sum(),
            [rand(4), rand(4)],
        )


#: Basic indices (the backward adds in place) and advanced ones, some
#: with repeated positions (the backward keeps ``np.add.at``).
GETITEM_INDICES = {
    "int": 2,
    "numpy_int": np.int64(-1),
    "slice": slice(1, 4),
    "strided_slice": slice(None, None, -2),
    "int_and_slice": (1, slice(0, 3)),
    "ellipsis": (Ellipsis, 1),
    "newaxis": (None, slice(2, 5), 0),
    "empty_tuple": (),
    "empty_slice": slice(3, 3),
    "repeated_rows": np.array([1, 1, 4, 1]),
    "repeated_pairs": (np.array([0, 0, 2]), np.array([1, 1, 2])),
    "boolean_mask": np.array([True, False, True, False, True]),
    "list_with_slice": ([3, 0, 3], slice(None)),
}


class TestGetitemBackward:
    """Every index's gradient is bit-identical to an ``np.add.at`` scatter,
    signed zeros included."""

    @pytest.mark.parametrize("name", sorted(GETITEM_INDICES))
    def test_matches_add_at_bitwise(self, name):
        index = GETITEM_INDICES[name]
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((5, 3, 2)), requires_grad=True)
        out = x[index]
        cotangent = rng.standard_normal(out.shape)
        if cotangent.size:
            cotangent.reshape(-1)[0] = -0.0
        out.backward(cotangent)
        reference = np.zeros_like(x.data)
        np.add.at(reference, index, cotangent)
        assert x.grad.tobytes() == reference.tobytes()

    def test_negative_zero_gradient_lands_as_positive_zero(self):
        x = Tensor(np.ones(3), requires_grad=True)
        x[1:].backward(np.array([-0.0, -0.0]))
        assert not np.signbit(x.grad).any()


class TestGraphMechanics:
    def test_reused_node_accumulates(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        out = t * t + t  # dy/dt = 2t + 1 = 7
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [7.0])

    def test_diamond_graph(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        a = t * 3.0
        b = t * 5.0
        (a + b).sum().backward()
        np.testing.assert_allclose(t.grad, [8.0])

    def test_deep_chain(self):
        t = Tensor(np.array([1.1]), requires_grad=True)
        out = t
        for _ in range(50):
            out = out * 1.01
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [1.01**50], rtol=1e-10)

    def test_no_grad_blocks_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (t * 2.0).sum()
        assert not out.requires_grad
        with pytest.raises(RuntimeError):
            out.backward()

    def test_detach_cuts_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        out = (t.detach() * 2.0).sum()
        assert not out.requires_grad

    def test_backward_requires_grad(self):
        t = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            t.sum().backward()

    def test_backward_seed_shape_validation(self):
        t = Tensor(np.ones(3), requires_grad=True)
        out = t * 2.0
        with pytest.raises(ValueError):
            out.backward(np.ones(5))

    def test_backward_with_explicit_seed(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2.0).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(t.grad, [2.0, 4.0, 6.0])

    def test_grad_accumulates_across_backwards(self):
        t = Tensor(np.ones(2), requires_grad=True)
        t.sum().backward()
        t.sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 2.0])

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        t.sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_second_branch_without_grad_input(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.full(3, 2.0))  # no grad
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 2.0, 2.0])
        assert b.grad is None


@st.composite
def small_arrays(draw):
    shape = draw(st.sampled_from([(2,), (3, 2), (2, 2, 2)]))
    values = draw(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape)),
        )
    )
    return np.array(values).reshape(shape)


class TestHypothesisProperties:
    @given(small_arrays())
    @settings(max_examples=25, deadline=None)
    def test_add_commutes(self, data):
        a = Tensor(data, requires_grad=True)
        b = Tensor(data * 0.5, requires_grad=True)
        lhs = (a + b).sum()
        rhs = (b + a).sum()
        np.testing.assert_allclose(lhs.data, rhs.data)

    @given(small_arrays())
    @settings(max_examples=25, deadline=None)
    def test_sum_linear_in_gradient(self, data):
        t = Tensor(data, requires_grad=True)
        (t.sum() * 3.0).backward()
        np.testing.assert_allclose(t.grad, np.full(data.shape, 3.0))

    @given(small_arrays())
    @settings(max_examples=25, deadline=None)
    def test_tanh_bounded(self, data):
        out = Tensor(data).tanh()
        assert np.all(np.abs(out.data) <= 1.0)

    @given(small_arrays())
    @settings(max_examples=25, deadline=None)
    def test_exp_log_roundtrip(self, data):
        t = Tensor(data)
        np.testing.assert_allclose(t.exp().log().data, data, atol=1e-9)

    @given(small_arrays())
    @settings(max_examples=20, deadline=None)
    def test_mul_gradient_matches_numeric(self, data):
        factor = np.full_like(data, 1.7)
        t = Tensor(data, requires_grad=True)
        (t * factor).sum().backward()
        np.testing.assert_allclose(t.grad, factor)
