"""The sequential rollout reference: policy × environment → RolloutSegment.

:func:`collect_segment` rolls one env out at a time. It is the
semantics :func:`repro.rl.vec.collect_segments_vec`, the one collector
training uses, must bit-reproduce (:mod:`repro.rl.parity`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..envs.base import MultiUserEnv
from ..nn import no_grad
from .buffer import RolloutSegment
from .policies import ActorCriticBase


def collect_segment(
    env: MultiUserEnv,
    policy: ActorCriticBase,
    rng: np.random.Generator,
    max_steps: Optional[int] = None,
    extras_from_info: tuple[str, ...] = (),
) -> RolloutSegment:
    """Roll ``policy`` in ``env`` for one (possibly truncated) episode.

    ``extras_from_info`` names per-user arrays from the env's info dict
    (e.g. ``"orders"``, ``"cost"``) to stack into
    ``segment.extras`` for later post-processing or metrics.
    """
    with no_grad():
        return _collect_segment_impl(env, policy, rng, max_steps, extras_from_info)


def collect_segments_sequential(
    envs: Sequence[MultiUserEnv],
    policy: ActorCriticBase,
    rngs: Sequence[np.random.Generator],
    max_steps: Optional[int] = None,
    extras_from_info: tuple[str, ...] = (),
) -> List[RolloutSegment]:
    """Roll ``policy`` out env by env — the canonical reference loop.

    This is the semantics every batched/sharded collection mode must
    bit-reproduce (see :mod:`repro.rl.parity`); each env consumes its own
    policy-noise generator, exactly one per env, in env order.
    """
    if len(rngs) != len(envs):
        raise ValueError(f"expected {len(envs)} generators, got {len(rngs)}")
    return [
        collect_segment(
            env, policy, rng, max_steps=max_steps, extras_from_info=extras_from_info
        )
        for env, rng in zip(envs, rngs)
    ]


def _collect_segment_impl(
    env: MultiUserEnv,
    policy: ActorCriticBase,
    rng: np.random.Generator,
    max_steps: Optional[int],
    extras_from_info: tuple[str, ...],
) -> RolloutSegment:
    horizon = max_steps or env.horizon
    states = env.reset()
    n = env.num_users
    policy.start_rollout(n)
    prev_actions = np.zeros((n, policy.action_dim))

    seq_states: List[np.ndarray] = []
    seq_prev: List[np.ndarray] = []
    seq_actions: List[np.ndarray] = []
    seq_rewards: List[np.ndarray] = []
    seq_dones: List[np.ndarray] = []
    seq_values: List[np.ndarray] = []
    seq_log_probs: List[np.ndarray] = []
    extras: Dict[str, List[np.ndarray]] = {key: [] for key in extras_from_info}

    for _ in range(horizon):
        actions, log_probs, values = policy.act(states, prev_actions, rng)
        next_states, rewards, dones, info = env.step(actions)
        seq_states.append(states)
        seq_prev.append(prev_actions)
        seq_actions.append(actions)
        seq_rewards.append(np.asarray(rewards, dtype=np.float64))
        seq_dones.append(np.asarray(dones, dtype=np.float64))
        seq_values.append(values)
        seq_log_probs.append(log_probs)
        for key in extras_from_info:
            extras[key].append(np.asarray(info[key], dtype=np.float64))
        states = next_states
        prev_actions = actions
        if np.all(dones):
            break

    # Bootstrap value of the state after the final step (used when the
    # rollout was truncated rather than terminated).
    _, _, last_values = policy.act(states, prev_actions, rng, deterministic=True)

    return RolloutSegment(
        states=np.stack(seq_states),
        prev_actions=np.stack(seq_prev),
        actions=np.stack(seq_actions),
        rewards=np.stack(seq_rewards),
        dones=np.stack(seq_dones),
        values=np.stack(seq_values),
        log_probs=np.stack(seq_log_probs),
        last_values=last_values,
        group_id=env.group_id,
        extras={key: np.stack(value) for key, value in extras.items()},
    )
