"""Tests for TrajectoryDataset / GroupTrajectories."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.dataset import GroupTrajectories, TrajectoryDataset


def make_group(group_id=0, episodes=2, horizon=5, users=4, ds=3, da=2, dy=1, seed=0):
    rng = np.random.default_rng(seed + group_id)
    return GroupTrajectories(
        group_id=group_id,
        states=rng.standard_normal((episodes, horizon + 1, users, ds)),
        actions=rng.standard_normal((episodes, horizon, users, da)),
        feedback=rng.standard_normal((episodes, horizon, users, dy)),
        rewards=rng.standard_normal((episodes, horizon, users)),
    )


class TestGroupTrajectories:
    def test_properties(self):
        group = make_group()
        assert group.num_episodes == 2
        assert group.horizon == 5
        assert group.num_users == 4
        assert group.state_dim == 3
        assert group.action_dim == 2
        assert group.feedback_dim == 1

    def test_shape_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            GroupTrajectories(
                group_id=0,
                states=rng.standard_normal((1, 6, 4, 3)),
                actions=rng.standard_normal((1, 4, 4, 2)),  # wrong horizon
                feedback=rng.standard_normal((1, 5, 4, 1)),
                rewards=rng.standard_normal((1, 5, 4)),
            )

    def test_select_users(self):
        group = make_group()
        subset = group.select_users(np.array([0, 2]))
        assert subset.num_users == 2
        np.testing.assert_array_equal(subset.states, group.states[:, :, [0, 2]])

    def test_state_action_set_at_t0_zero_prev_action(self):
        group = make_group()
        states, prev_actions = group.state_action_set(0, 0)
        np.testing.assert_array_equal(prev_actions, np.zeros((4, 2)))
        np.testing.assert_array_equal(states, group.states[0, 0])

    def test_state_action_set_pairs_previous_action(self):
        group = make_group()
        states, prev_actions = group.state_action_set(1, 3)
        np.testing.assert_array_equal(states, group.states[1, 3])
        np.testing.assert_array_equal(prev_actions, group.actions[1, 2])

    def test_transition_pairs_count(self):
        group = make_group()
        s, a, y = group.transition_pairs()
        assert s.shape == (2 * 5 * 4, 3)
        assert a.shape == (2 * 5 * 4, 2)
        assert y.shape == (2 * 5 * 4, 1)

    def test_transition_pairs_alignment(self):
        """Row k of (s, a, y) must come from the same (episode, t, user)."""
        group = make_group(episodes=1, horizon=2, users=2)
        s, a, y = group.transition_pairs()
        np.testing.assert_array_equal(s[0], group.states[0, 0, 0])
        np.testing.assert_array_equal(a[0], group.actions[0, 0, 0])
        np.testing.assert_array_equal(y[0], group.feedback[0, 0, 0])
        np.testing.assert_array_equal(s[-1], group.states[0, 1, 1])
        np.testing.assert_array_equal(y[-1], group.feedback[0, 1, 1])


class TestTrajectoryDataset:
    def make_dataset(self, num_groups=3, users=6):
        return TrajectoryDataset([make_group(group_id=i, users=users) for i in range(num_groups)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            TrajectoryDataset([])

    def test_mixed_dims_raise(self):
        with pytest.raises(ValueError):
            TrajectoryDataset([make_group(ds=3), make_group(group_id=1, ds=4)])

    def test_group_lookup(self):
        dataset = self.make_dataset()
        assert dataset.group(1).group_id == 1
        with pytest.raises(KeyError):
            dataset.group(99)

    def test_num_transitions(self):
        dataset = self.make_dataset()
        assert dataset.num_transitions == 3 * 2 * 5 * 6

    def test_transition_pairs_concatenated(self):
        dataset = self.make_dataset()
        s, a, y = dataset.transition_pairs()
        assert s.shape[0] == 3 * 2 * 5 * 6

    def test_state_action_sets_count(self):
        dataset = self.make_dataset()
        sets = dataset.state_action_sets()
        assert len(sets) == 3 * 2 * 6  # groups * episodes * (horizon + 1)

    def test_split_users_partitions(self):
        dataset = self.make_dataset(users=10)
        train, test = dataset.split_users(0.8, seed=0)
        for train_group, test_group, original in zip(train.groups, test.groups, dataset.groups):
            assert train_group.num_users + test_group.num_users == original.num_users
            assert train_group.num_users == 8

    def test_split_users_disjoint(self):
        dataset = self.make_dataset(users=10)
        train, test = dataset.split_users(0.5, seed=0)
        # Check disjointness via state content at (episode 0, t 0).
        train_rows = {tuple(row) for row in train.groups[0].states[0, 0]}
        test_rows = {tuple(row) for row in test.groups[0].states[0, 0]}
        assert not train_rows & test_rows

    def test_split_invalid_fraction(self):
        dataset = self.make_dataset()
        with pytest.raises(ValueError):
            dataset.split_users(1.5)

    def test_subsample_users(self):
        dataset = self.make_dataset(users=10)
        subset = dataset.subsample_users(0.5, seed=1)
        assert all(g.num_users == 5 for g in subset.groups)

    def test_subsample_differs_by_seed(self):
        dataset = self.make_dataset(users=10)
        s1 = dataset.subsample_users(0.5, seed=1)
        s2 = dataset.subsample_users(0.5, seed=2)
        assert not np.array_equal(s1.groups[0].states, s2.groups[0].states)

    def test_select_groups(self):
        dataset = self.make_dataset()
        subset = dataset.select_groups([0, 2])
        assert subset.group_ids == [0, 2]

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=10))
    @settings(max_examples=15, deadline=None)
    def test_split_preserves_total_users(self, groups, users):
        dataset = TrajectoryDataset(
            [make_group(group_id=i, users=users) for i in range(groups)]
        )
        train, test = dataset.split_users(0.7, seed=0)
        for tr, te in zip(train.groups, test.groups):
            assert tr.num_users + te.num_users == users
            assert tr.num_users >= 1 and te.num_users >= 1
