"""Tests for RolloutSegment / RolloutBuffer."""

import numpy as np
import pytest

from repro.rl import RolloutBuffer, RolloutSegment


def make_segment(steps=5, n=3, ds=4, da=2, seed=0, rewards=None, dones=None):
    rng = np.random.default_rng(seed)
    if rewards is None:
        rewards = rng.standard_normal((steps, n))
    if dones is None:
        dones = np.zeros((steps, n))
        dones[-1] = 1.0
    return RolloutSegment(
        states=rng.standard_normal((steps, n, ds)),
        prev_actions=rng.standard_normal((steps, n, da)),
        actions=rng.standard_normal((steps, n, da)),
        rewards=rewards,
        dones=dones,
        values=rng.standard_normal((steps, n)),
        log_probs=rng.standard_normal((steps, n)),
        last_values=rng.standard_normal(n),
        group_id=7,
    )


class TestRolloutSegment:
    def test_properties(self):
        segment = make_segment()
        assert segment.horizon == 5
        assert segment.num_users == 3
        assert segment.group_id == 7

    def test_shape_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            RolloutSegment(
                states=rng.standard_normal((5, 3, 4)),
                prev_actions=rng.standard_normal((5, 3, 2)),
                actions=rng.standard_normal((5, 3, 2)),
                rewards=rng.standard_normal((5, 3)),
                dones=np.zeros((4, 3)),  # wrong T
                values=rng.standard_normal((5, 3)),
                log_probs=rng.standard_normal((5, 3)),
                last_values=rng.standard_normal(3),
            )

    @pytest.mark.parametrize(
        "name,shape,message",
        [
            ("states", (4, 3, 4), "states shape"),
            ("actions", (5, 2, 2), "actions shape"),
            ("prev_actions", (5, 3, 1), "prev_actions must match"),
            ("dones", (5, 2), "dones must have shape"),
            ("values", (5,), "values must have shape"),
            ("log_probs", (5, 3, 1), "log_probs must have shape"),
            ("last_values", (5, 3), "last_values must have shape"),
        ],
        ids=["states", "actions", "prev_actions", "dones", "values", "log_probs", "last_values"],
    )
    def test_each_field_shape_is_checked(self, name, shape, message):
        """Every array is checked against the rewards' [T, N], one field
        at a time, and the error names the field that is off."""
        segment = make_segment()
        fields = {
            key: getattr(segment, key)
            for key in (
                "states", "prev_actions", "actions", "rewards", "dones",
                "values", "log_probs", "last_values",
            )
        }
        fields[name] = np.zeros(shape)
        with pytest.raises(ValueError, match=message):
            RolloutSegment(**fields)

    def test_finalize_populates_fields(self):
        segment = make_segment()
        segment.finalize(gamma=0.9, lam=0.9)
        assert segment.advantages is not None
        assert segment.returns is not None
        assert segment.valid_mask is not None
        np.testing.assert_allclose(segment.returns, segment.advantages + segment.values)

    def test_normalized_advantages_standardized(self):
        segment = make_segment(steps=20, n=10)
        segment.finalize(gamma=0.9, lam=0.9)
        normalized = segment.normalized_advantages()
        np.testing.assert_allclose(normalized.mean(), 0.0, atol=1e-8)
        np.testing.assert_allclose(normalized.std(), 1.0, atol=1e-6)

    def test_normalized_requires_finalize(self):
        segment = make_segment()
        with pytest.raises(RuntimeError):
            segment.normalized_advantages()

    def test_mean_episode_reward_respects_mask(self):
        rewards = np.ones((4, 2))
        dones = np.zeros((4, 2))
        dones[1, 0] = 1.0  # user 0 terminates at step 1
        dones[-1] = 1.0
        segment = make_segment(steps=4, n=2, rewards=rewards, dones=dones)
        segment.finalize(gamma=1.0, lam=1.0)
        # user 0 accumulates 2 valid rewards, user 1 accumulates 4.
        np.testing.assert_allclose(segment.mean_episode_reward(), 3.0)

    def test_finalize_after_reward_edit(self):
        """Reward post-processing before finalize must flow into returns."""
        segment = make_segment()
        segment.rewards = np.zeros_like(segment.rewards)
        segment.finalize(gamma=0.9, lam=1.0)
        np.testing.assert_allclose(
            segment.returns[-1], np.zeros(3) + 0.0 * segment.last_values, atol=1e-12
        )


class TestRolloutBuffer:
    def test_accumulates_segments(self):
        buffer = RolloutBuffer()
        buffer.add(make_segment(seed=0))
        buffer.add(make_segment(seed=1))
        assert len(buffer) == 2
        assert [segment.rewards.shape for segment in buffer] == [(5, 3), (5, 3)]

    def test_finalize_all(self):
        buffer = RolloutBuffer()
        buffer.add(make_segment(seed=0))
        buffer.add(make_segment(seed=1))
        buffer.finalize(0.9, 0.9)
        assert all(s.advantages is not None for s in buffer)

    def test_clear(self):
        buffer = RolloutBuffer()
        buffer.add(make_segment())
        buffer.clear()
        assert len(buffer) == 0

    def test_mean_reward_empty_raises(self):
        with pytest.raises(RuntimeError):
            RolloutBuffer().mean_reward()

    def test_mean_reward_averages_segments(self):
        buffer = RolloutBuffer()
        ones = np.ones((5, 3))
        threes = np.full((5, 3), 3.0)
        buffer.add(make_segment(rewards=ones))
        buffer.add(make_segment(rewards=threes))
        buffer.finalize(0.9, 0.9)
        np.testing.assert_allclose(buffer.mean_reward(), (5.0 + 15.0) / 2)
