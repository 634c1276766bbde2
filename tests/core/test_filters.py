"""Tests for the Sec. IV-C error countermeasures."""

import numpy as np
import pytest

from repro.core import (
    apply_exec_filter,
    apply_uncertainty_penalty,
    compute_trend_filter,
    filter_group_log,
    intervention_response,
)
from repro.envs import DPRConfig, DPRWorld, collect_dpr_dataset
from repro.rl import RolloutSegment
from repro.sim import SimulatorEnsemble, SimulatorLearnerConfig, train_user_simulator


def make_segment(steps=4, n=3, ds=13, da=2, seed=0):
    rng = np.random.default_rng(seed)
    dones = np.zeros((steps, n))
    dones[-1] = 1.0
    return RolloutSegment(
        states=rng.standard_normal((steps, n, ds)),
        prev_actions=rng.uniform(0, 1, (steps, n, da)),
        actions=rng.uniform(0.2, 0.8, (steps, n, da)),
        rewards=np.ones((steps, n)),
        dones=dones,
        values=np.zeros((steps, n)),
        log_probs=np.zeros((steps, n)),
        last_values=np.zeros(n),
    )


@pytest.fixture(scope="module")
def dpr_setup():
    world = DPRWorld(DPRConfig(num_cities=2, drivers_per_city=12, horizon=10, seed=31))
    dataset = collect_dpr_dataset(world, episodes=2)
    members = [
        train_user_simulator(
            dataset.subsample_users(0.8, seed=i),
            SimulatorLearnerConfig(hidden_sizes=(32, 32), epochs=30, seed=i),
        )
        for i in range(3)
    ]
    return world, dataset, SimulatorEnsemble(members)


@pytest.fixture(scope="module")
def wide_ensemble(dpr_setup):
    """The three fixture members plus nine small ones: a 12-member set,
    the size of the DPR benches' training ensemble."""
    _, dataset, ensemble = dpr_setup
    extra = [
        train_user_simulator(
            dataset, SimulatorLearnerConfig(hidden_sizes=(8,), epochs=1, seed=10 + i)
        )
        for i in range(9)
    ]
    return SimulatorEnsemble(ensemble.members + extra)


class TestExecFilter:
    def test_no_violation_no_change(self):
        segment = make_segment()
        low = np.zeros((3, 2))
        high = np.ones((3, 2))
        affected = apply_exec_filter(segment, low, high, r_min=0.0, gamma=0.9)
        assert affected == 0
        np.testing.assert_array_equal(segment.rewards, np.ones((4, 3)))

    def test_violation_sets_done_and_reward(self):
        segment = make_segment()
        segment.actions[2, 1] = [0.95, 0.5]  # outside user 1's bounds below
        low = np.full((3, 2), 0.2)
        high = np.full((3, 2), 0.8)
        affected = apply_exec_filter(segment, low, high, r_min=-1.0, gamma=0.9)
        assert affected == 1
        assert segment.dones[2, 1] == 1.0
        np.testing.assert_allclose(segment.rewards[2, 1], -1.0 / 0.1)

    def test_first_violation_wins(self):
        segment = make_segment()
        segment.actions[1, 0] = [0.9, 0.5]
        segment.actions[3, 0] = [0.9, 0.5]
        low = np.full((3, 2), 0.2)
        high = np.full((3, 2), 0.8)
        apply_exec_filter(segment, low, high, r_min=0.0, gamma=0.9)
        assert segment.dones[1, 0] == 1.0
        # later violation untouched (the episode already ended)
        assert segment.rewards[3, 0] == 1.0

    def test_tolerance_expands_bounds(self):
        segment = make_segment()
        segment.actions[0, 0] = [0.85, 0.5]
        low = np.full((3, 2), 0.2)
        high = np.full((3, 2), 0.8)
        affected = apply_exec_filter(
            segment, low, high, r_min=0.0, gamma=0.9, tolerance=0.1
        )
        assert affected == 0

    def test_action_clip_applies_before_check(self):
        segment = make_segment()
        segment.actions[0, 0] = [5.0, 0.5]  # raw sample far out; clips to 1.0
        low = np.full((3, 2), 0.0)
        high = np.full((3, 2), 1.0)
        affected = apply_exec_filter(
            segment, low, high, r_min=0.0, gamma=0.9, action_clip=(0.0, 1.0)
        )
        assert affected == 0

    def test_mask_invalidates_after_cut(self):
        segment = make_segment()
        segment.actions[1, 2] = [0.9, 0.5]
        low = np.full((3, 2), 0.2)
        high = np.full((3, 2), 0.8)
        apply_exec_filter(segment, low, high, r_min=0.0, gamma=0.9)
        segment.finalize(gamma=0.9, lam=0.9)
        np.testing.assert_array_equal(segment.valid_mask[:, 2], [1.0, 1.0, 0.0, 0.0])


class TestUncertaintyPenalty:
    def test_penalty_reduces_rewards(self, dpr_setup):
        _, dataset, ensemble = dpr_setup
        group = dataset.groups[0]
        segment = make_segment(n=group.num_users, ds=group.state_dim)
        segment.states = group.states[0, :4]
        segment.actions = group.actions[0, :4]
        before = segment.rewards.copy()
        penalties = apply_uncertainty_penalty(segment, ensemble, alpha=0.5)
        assert np.all(penalties >= 0)
        assert np.all(segment.rewards <= before)

    def test_alpha_scales_penalty(self, dpr_setup):
        _, dataset, ensemble = dpr_setup
        group = dataset.groups[0]

        def penalised(alpha):
            segment = make_segment(n=group.num_users, ds=group.state_dim)
            segment.states = group.states[0, :4]
            segment.actions = group.actions[0, :4]
            apply_uncertainty_penalty(segment, ensemble, alpha=alpha)
            return segment.rewards

        r_small = penalised(0.01)
        r_large = penalised(1.0)
        assert r_large.mean() < r_small.mean()

    @pytest.mark.parametrize(
        "steps,n,members",
        [(5, 20, 3), (5, 1, 3), (10, 16, 3), (1, 7, 3), (1, 1, 12), (5, 20, 12), (10, 16, 12)],
    )
    def test_penalties_equal_per_step_uncertainty(
        self, dpr_setup, wide_ensemble, steps, n, members
    ):
        """One pass over the T·N rows scores each step exactly as
        ``ensemble.uncertainty`` on that step's N rows alone.

        The one exception is left out: a single user over several steps on
        8 or more members. numpy's ``mean(axis=0)`` sums a lone row's member
        deviations pairwise, so there the per-step form differs from the
        one pass in the last bit."""
        ensemble = dpr_setup[2] if members == 3 else wide_ensemble
        assert len(ensemble) == members
        segment = make_segment(steps=steps, n=n, ds=13, seed=steps + n)
        before = segment.rewards.copy()
        penalties = apply_uncertainty_penalty(segment, ensemble, alpha=0.3)
        assert penalties.shape == (steps, n)
        for t in range(steps):
            u = ensemble.uncertainty(segment.states[t], segment.actions[t])
            np.testing.assert_array_equal(penalties[t], u)
            np.testing.assert_array_equal(segment.rewards[t], before[t] - 0.3 * u)


class TestTrendFilter:
    def test_intervention_response_shape(self, dpr_setup):
        _, dataset, ensemble = dpr_setup
        deltas = np.linspace(-0.4, 0.4, 5)
        responses = intervention_response(ensemble, dataset.groups[0], deltas)
        assert responses.shape == (3, 12, 5)

    def test_keeps_most_users_with_decent_simulators(self, dpr_setup):
        _, dataset, ensemble = dpr_setup
        result = compute_trend_filter(ensemble, dataset.groups[0])
        assert result.keep_mask.sum() >= 6  # the consensus rule is forgiving

    def test_drops_a_user_only_when_every_slope_is_non_positive(self, dpr_setup):
        """The paper's rule: drop a user only when the slope is non-positive
        "among all simulators"."""
        _, dataset, ensemble = dpr_setup
        result = compute_trend_filter(ensemble, dataset.groups[0])
        np.testing.assert_array_equal(result.keep_mask, np.any(result.slopes > 0.0, axis=0))

    def test_slopes_recorded(self, dpr_setup):
        _, dataset, ensemble = dpr_setup
        result = compute_trend_filter(ensemble, dataset.groups[0])
        assert result.slopes.shape == (3, 12)
        assert result.response_curves.shape[0] == 3

    def test_filter_group_log_restricts_users(self, dpr_setup):
        _, dataset, _ = dpr_setup
        group = dataset.groups[0]
        mask = np.zeros(group.num_users, dtype=bool)
        mask[[0, 3, 5]] = True
        filtered = filter_group_log(group, mask)
        assert filtered.num_users == 3

    def test_filter_group_log_never_empties(self, dpr_setup):
        _, dataset, _ = dpr_setup
        group = dataset.groups[0]
        filtered = filter_group_log(group, np.zeros(group.num_users, dtype=bool))
        assert filtered.num_users == group.num_users

    def test_filter_group_log_shape_validation(self, dpr_setup):
        _, dataset, _ = dpr_setup
        with pytest.raises(ValueError):
            filter_group_log(dataset.groups[0], np.ones(3, dtype=bool))
