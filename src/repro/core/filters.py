"""Post-processing guards against simulator errors (Sec. IV-C).

Three mechanisms keep the policy away from regions where the learned
simulators are wrong, one implementation each:

- **Uncertainty penalty** (prediction errors, Alg. 1 line 8):
  ``r ← r − α · U(s, a)`` with U the members' mean deviation
  :meth:`repro.sim.SimulatorEnsemble.uncertainty` (Sec. V-C2), plus the
  T_c-truncated rollouts from random logged initial states handled by
  :class:`repro.sim.env_wrapper.SimulatedDPREnv`.
- **F_trend** (extrapolation errors): an intervention test perturbs the
  bonus action by ΔB and checks each user's predicted order response
  against the prior knowledge that bonus elasticity is positive; users
  whose slope is non-positive under every simulator are removed from
  training (they would otherwise teach the policy to cut bonuses for free
  engagement — the Fig. 10 pathology).
- **F_exec** (extrapolation errors): the executable action subspace. If
  the policy emits an action outside the user's historical
  ``(a_min, a_max)`` range (``SimulatedDPREnv.exec_low/exec_high``), the
  state becomes terminal with reward ``R_min / (1 − γ)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..rl.buffer import RolloutSegment
from ..sim.dataset import GroupTrajectories
from ..sim.ensemble import SimulatorEnsemble


def apply_uncertainty_penalty(
    segment: RolloutSegment, ensemble: SimulatorEnsemble, alpha: float
) -> np.ndarray:
    """r ← r − α · U(s, a) in place; returns U at every step, ``[T, N]``.

    U is :meth:`SimulatorEnsemble.uncertainty`, scored in one pass over
    the segment's T·N (s_t, a_t) rows.
    """
    steps, n = segment.rewards.shape
    penalties = ensemble.uncertainty(
        segment.states.reshape(steps * n, -1), segment.actions.reshape(steps * n, -1)
    ).reshape(steps, n)
    segment.rewards = segment.rewards - alpha * penalties
    return penalties


def apply_exec_filter(
    segment: RolloutSegment,
    exec_low: np.ndarray,
    exec_high: np.ndarray,
    r_min: float,
    gamma: float,
    tolerance: float = 0.0,
    action_clip: Optional[Tuple[float, float]] = None,
) -> int:
    """F_exec: cut episodes at the first out-of-range action (in place).

    ``exec_low`` / ``exec_high`` are per-user bounds ``[N, da]`` from the
    logged data. Returns the number of affected users. The done flag and
    the absorbing reward ``R_min / (1 − γ)`` are written at the violation
    step; later steps are invalidated through the validity mask computed at
    ``finalize`` time.

    ``action_clip`` should match the environment's action-space clipping so
    the filter judges the *executed* action, not the raw policy sample.
    """
    actions = segment.actions
    if action_clip is not None:
        actions = np.clip(actions, action_clip[0], action_clip[1])
    low = exec_low - tolerance
    high = exec_high + tolerance
    violations = np.any((actions < low[None]) | (actions > high[None]), axis=-1)  # [T, N]
    affected = 0
    terminal_reward = r_min / (1.0 - gamma)
    for user in range(segment.num_users):
        hits = np.nonzero(violations[:, user])[0]
        if hits.size == 0:
            continue
        first = hits[0]
        segment.dones[first, user] = 1.0
        segment.rewards[first, user] = terminal_reward
        affected += 1
    return affected


@dataclass
class TrendFilterResult:
    """Outcome of the intervention test behind F_trend."""

    keep_mask: np.ndarray        # [N] users whose response obeys the prior
    slopes: np.ndarray           # [K, N] per-simulator response slope
    response_curves: np.ndarray  # [K, N, D] predicted orders per ΔB


def intervention_response(
    ensemble: SimulatorEnsemble,
    group_log: GroupTrajectories,
    deltas: np.ndarray,
    action_index: int = 1,
) -> np.ndarray:
    """Predicted per-user order response to bonus shifts ΔB.

    For every driver, take their logged (s, a) pairs, shift the bonus
    dimension by each ΔB, and average each simulator's predicted orders
    over the driver's logged visits. Returns ``[K, N, D]`` for K ensemble
    members, N users and D delta values.
    """
    states = group_log.states[:, :-1]  # align with actions
    actions = group_log.actions
    e, t, n, ds = states.shape
    flat_states = states.reshape(e * t * n, ds)
    flat_actions = actions.reshape(e * t * n, actions.shape[-1])
    responses = np.zeros((len(ensemble), n, len(deltas)))
    for d_index, delta in enumerate(deltas):
        shifted = flat_actions.copy()
        shifted[:, action_index] = np.clip(shifted[:, action_index] + delta, 0.0, 1.0)
        for k, member in enumerate(ensemble.members):
            orders = member.predict_mean(flat_states, shifted)[:, 0]
            responses[k, :, d_index] = orders.reshape(e * t, n).mean(axis=0)
    return responses


def compute_trend_filter(
    ensemble: SimulatorEnsemble,
    group_log: GroupTrajectories,
    deltas: Optional[np.ndarray] = None,
    action_index: int = 1,
) -> TrendFilterResult:
    """Run the intervention test and flag users violating the bonus prior.

    The paper removes drivers "which the slope of reaction is negative or
    zero among all simulators": a user is kept when at least one simulator
    predicts a positive slope, and removed only when *every* simulator
    predicts a non-positive one.
    """
    if deltas is None:
        deltas = np.linspace(-0.4, 0.4, 5)
    responses = intervention_response(ensemble, group_log, deltas, action_index)
    # Least-squares slope of orders vs ΔB for each (member, user).
    centered_d = deltas - deltas.mean()
    denom = float((centered_d**2).sum())
    slopes = ((responses - responses.mean(axis=2, keepdims=True)) * centered_d).sum(
        axis=2
    ) / denom
    keep = np.any(slopes > 0.0, axis=0)
    return TrendFilterResult(keep_mask=keep, slopes=slopes, response_curves=responses)


def filter_group_log(
    group_log: GroupTrajectories, keep_mask: np.ndarray
) -> GroupTrajectories:
    """Apply F_trend: restrict a group's log to users passing the test.

    Falls back to keeping everyone if the mask would empty the group (the
    filter must never abort training outright).
    """
    keep_mask = np.asarray(keep_mask, dtype=bool)
    if keep_mask.shape != (group_log.num_users,):
        raise ValueError("keep_mask must have one entry per user")
    if not np.any(keep_mask):
        return group_log
    return group_log.select_users(np.nonzero(keep_mask)[0])
