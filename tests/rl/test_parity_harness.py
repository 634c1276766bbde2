"""The rollout parity check itself: it must see every kind of drift.

:func:`repro.rl.parity.assert_segments_identical` is the gate behind the
collector parity grids and ``benchmarks/perf_rollout.py``'s pre-timing
check. A comparison that passed on differing segments would turn every
one of those grids into a no-op, so each thing it compares gets one
mutated copy here — one flipped last bit, a changed shape, a missing
extra — and each must be reported under the field's name.
"""

import copy

import numpy as np
import pytest

from repro.rl import RolloutSegment
from repro.rl.parity import SEGMENT_FIELDS, assert_segments_identical


def make_segments(count=2, steps=4, users=3, seed=0):
    rng = np.random.default_rng(seed)
    segments = []
    for index in range(count):
        dones = np.zeros((steps, users))
        dones[-1] = 1.0
        segments.append(
            RolloutSegment(
                states=rng.standard_normal((steps, users, 2)),
                prev_actions=rng.standard_normal((steps, users, 1)),
                actions=rng.standard_normal((steps, users, 1)),
                rewards=rng.standard_normal((steps, users)),
                dones=dones,
                values=rng.standard_normal((steps, users)),
                log_probs=rng.standard_normal((steps, users)),
                last_values=rng.standard_normal(users),
                group_id=index,
                extras={"feedback": rng.standard_normal((steps, users))},
            )
        )
    return segments


def one_ulp_up(array):
    out = array.copy()
    flat = out.reshape(-1)
    flat[-1] = np.nextafter(flat[-1], np.inf)
    return out


def test_identical_copies_pass():
    segments = make_segments()
    assert_segments_identical(segments, copy.deepcopy(segments))


@pytest.mark.parametrize("name", SEGMENT_FIELDS)
def test_one_ulp_in_any_field_is_caught(name):
    segments = make_segments()
    drifted = copy.deepcopy(segments)
    setattr(drifted[1], name, one_ulp_up(getattr(drifted[1], name)))
    with pytest.raises(AssertionError, match=rf"case\[1\]\.{name}"):
        assert_segments_identical(segments, drifted, label="case")


@pytest.mark.parametrize("name", SEGMENT_FIELDS)
def test_a_reshaped_field_is_caught(name):
    segments = make_segments()
    drifted = copy.deepcopy(segments)
    value = getattr(drifted[0], name)
    # Bypass __post_init__: the harness must not rely on the constructor.
    drifted[0].__dict__[name] = value.reshape(value.shape + (1,))
    with pytest.raises(AssertionError, match=rf"case\[0\]\.{name}: shape"):
        assert_segments_identical(segments, drifted, label="case")


def test_segment_count_is_checked():
    segments = make_segments(count=3)
    with pytest.raises(AssertionError, match="3 reference segments vs 2 collected"):
        assert_segments_identical(segments, segments[:2])


def test_group_id_is_checked():
    segments = make_segments()
    drifted = copy.deepcopy(segments)
    drifted[1].group_id = 7
    with pytest.raises(AssertionError, match=r"segments\[1\]: group_id 7 != 1"):
        assert_segments_identical(segments, drifted)


def test_extras_keys_are_checked():
    segments = make_segments()
    drifted = copy.deepcopy(segments)
    drifted[0].extras["uncertainty"] = np.zeros((4, 3))
    with pytest.raises(AssertionError, match=r"segments\[0\]\.extras: keys"):
        assert_segments_identical(segments, drifted)


def test_extras_values_are_checked():
    segments = make_segments()
    drifted = copy.deepcopy(segments)
    drifted[0].extras["feedback"] = one_ulp_up(drifted[0].extras["feedback"])
    with pytest.raises(AssertionError, match=r"segments\[0\]\.extras\[feedback\]"):
        assert_segments_identical(segments, drifted)
