"""Tests for the Box space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envs import Box


class TestBox:
    def test_contains(self):
        box = Box(low=np.zeros(2), high=np.ones(2))
        assert box.contains(np.array([0.5, 0.5]))
        assert not box.contains(np.array([1.5, 0.5]))
        assert not box.contains(np.array([0.5]))

    def test_clip(self):
        box = Box(low=np.zeros(2), high=np.ones(2))
        np.testing.assert_array_equal(box.clip([2.0, -1.0]), [1.0, 0.0])

    def test_sample_inside(self):
        box = Box(low=np.array([-2.0, 0.0]), high=np.array([2.0, 5.0]))
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert box.contains(box.sample(rng))

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            Box(low=np.ones(2), high=np.zeros(2))

    def test_shape_broadcast(self):
        box = Box(low=0.0, high=1.0, shape=(3,))
        assert box.shape == (3,)
        assert box.dim == 3

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            Box(low=np.zeros(2), high=np.ones(3))

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_dim_matches_shape(self, n):
        box = Box(low=0.0, high=1.0, shape=(n,))
        assert box.dim == n
