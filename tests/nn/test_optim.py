"""Tests for the Adam optimiser, its LR schedule and gradient clipping."""

import numpy as np
import pytest

from repro.nn import Adam, LinearLRSchedule, Parameter, Tensor, clip_grad_norm

RNG = np.random.default_rng(4)


def quadratic_loss(param: Parameter) -> Tensor:
    return ((param - 3.0) ** 2.0).sum()


class TestAdam:
    def test_first_step_size_is_lr(self):
        # With bias correction, the first Adam step has magnitude ~lr.
        param = Parameter(np.array([10.0]))
        optimizer = Adam([param], lr=0.5)
        quadratic_loss(param).backward()
        optimizer.step()
        np.testing.assert_allclose(param.data, [9.5], atol=1e-6)

    def test_converges_on_quadratic(self):
        param = Parameter(np.array([-4.0, 8.0]))
        optimizer = Adam([param], lr=0.2)
        for _ in range(300):
            optimizer.zero_grad()
            quadratic_loss(param).backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3.0, 3.0], atol=1e-4)

    def test_weight_decay_pulls_to_zero(self):
        param = Parameter(np.array([5.0]))
        optimizer = Adam([param], lr=0.1, weight_decay=1.0)
        for _ in range(500):
            optimizer.zero_grad()
            # zero loss gradient: only decay acts
            (param * 0.0).sum().backward()
            optimizer.step()
        assert abs(param.data[0]) < 0.5

    def test_zero_grad_resets(self):
        param = Parameter(np.array([1.0]))
        optimizer = Adam([param], lr=0.1)
        quadratic_loss(param).backward()
        optimizer.zero_grad()
        assert param.grad is None

    def test_skips_params_without_grad(self):
        p1 = Parameter(np.array([1.0]))
        p2 = Parameter(np.array([2.0]))
        optimizer = Adam([p1, p2], lr=0.1, weight_decay=1.0)
        (p1 * 2.0).sum().backward()
        optimizer.step()
        np.testing.assert_array_equal(p2.data, [2.0])
        np.testing.assert_array_equal(optimizer.state_dict()["m.1"], [0.0])
        assert p1.data[0] != 1.0

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        param = Parameter(np.array([1.0]))
        param.grad = np.array([0.5])
        norm = clip_grad_norm([param], max_norm=10.0)
        np.testing.assert_allclose(norm, 0.5)
        np.testing.assert_allclose(param.grad, [0.5])

    def test_clips_above_threshold(self):
        p1 = Parameter(np.array([1.0]))
        p2 = Parameter(np.array([1.0]))
        p1.grad = np.array([3.0])
        p2.grad = np.array([4.0])
        norm = clip_grad_norm([p1, p2], max_norm=1.0)
        np.testing.assert_allclose(norm, 5.0)
        total = np.sqrt(p1.grad**2 + p2.grad**2)
        np.testing.assert_allclose(total, [1.0], atol=1e-12)

    def test_handles_missing_grads(self):
        p1 = Parameter(np.array([1.0]))
        p2 = Parameter(np.array([1.0]))
        p1.grad = np.array([2.0])
        norm = clip_grad_norm([p1, p2], max_norm=1.0)
        np.testing.assert_allclose(norm, 2.0)


class TestLinearLRSchedule:
    def test_decays_to_end_value(self):
        param = Parameter(np.array([0.0]))
        optimizer = Adam([param], lr=1e-4)
        schedule = LinearLRSchedule(optimizer, start=1e-4, end=1e-6, total=10)
        for _ in range(10):
            schedule.step()
        np.testing.assert_allclose(optimizer.lr, 1e-6)

    def test_midpoint(self):
        param = Parameter(np.array([0.0]))
        optimizer = Adam([param], lr=1.0)
        schedule = LinearLRSchedule(optimizer, start=1.0, end=0.0, total=4)
        schedule.step()
        schedule.step()
        np.testing.assert_allclose(optimizer.lr, 0.5)

    def test_clamps_after_total(self):
        param = Parameter(np.array([0.0]))
        optimizer = Adam([param], lr=1.0)
        schedule = LinearLRSchedule(optimizer, start=1.0, end=0.1, total=2)
        for _ in range(5):
            schedule.step()
        np.testing.assert_allclose(optimizer.lr, 0.1)

    def test_invalid_total_raises(self):
        param = Parameter(np.array([0.0]))
        optimizer = Adam([param], lr=1.0)
        with pytest.raises(ValueError):
            LinearLRSchedule(optimizer, start=1.0, end=0.1, total=0)


class TestOptimizerStateDicts:
    """state_dict/load_state_dict: a restored optimiser takes the same step."""

    @staticmethod
    def run_steps(optimizer, param, count):
        for _ in range(count):
            optimizer.zero_grad()
            quadratic_loss(param).backward()
            optimizer.step()

    def test_restored_optimizer_continues_identically(self):
        unbroken = Parameter(np.array([0.0, 1.0]))
        opt_a = Adam([unbroken], lr=0.05)
        self.run_steps(opt_a, unbroken, 6)

        resumed = Parameter(np.array([0.0, 1.0]))
        opt_b = Adam([resumed], lr=0.05)
        self.run_steps(opt_b, resumed, 3)
        snapshot = opt_b.state_dict()
        params_at_snap = resumed.data.copy()

        fresh = Parameter(params_at_snap)
        opt_c = Adam([fresh], lr=0.05)
        opt_c.load_state_dict(snapshot)
        self.run_steps(opt_c, fresh, 3)
        np.testing.assert_array_equal(fresh.data, unbroken.data)

    def test_adam_state_carries_step_count(self):
        param = Parameter(np.array([0.5]))
        optimizer = Adam([param], lr=0.1)
        self.run_steps(optimizer, param, 4)
        state = optimizer.state_dict()
        assert int(state["step_count"][0]) == 4
        clone = Adam([Parameter(np.array([0.5]))], lr=0.1)
        clone.load_state_dict(state)
        assert clone._step_count == 4

    def test_missing_slot_raises(self):
        optimizer = Adam([Parameter(np.zeros(2))], lr=0.1)
        state = optimizer.state_dict()
        del state["v.0"]
        with pytest.raises(KeyError, match="v.0"):
            optimizer.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        optimizer = Adam([Parameter(np.zeros(2))], lr=0.1)
        state = optimizer.state_dict()
        state["m.0"] = np.zeros(3)
        with pytest.raises(ValueError, match="shape"):
            optimizer.load_state_dict(state)

    def test_schedule_state_rederives_lr(self):
        param = Parameter(np.array([0.0]))
        optimizer = Adam([param], lr=1.0)
        schedule = LinearLRSchedule(optimizer, start=1.0, end=0.0, total=10)
        for _ in range(4):
            schedule.step()
        state = schedule.state_dict()

        fresh_param = Parameter(np.array([0.0]))
        fresh_opt = Adam([fresh_param], lr=1.0)
        fresh_schedule = LinearLRSchedule(fresh_opt, start=1.0, end=0.0, total=10)
        fresh_schedule.load_state_dict(state)
        assert fresh_schedule._step_count == 4
        assert fresh_opt.lr == pytest.approx(optimizer.lr)
        assert fresh_schedule.step() == pytest.approx(schedule.step())
