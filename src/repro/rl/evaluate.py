"""One evaluation entry point: :func:`evaluate`.

Evaluation is one operation: the average (discounted) per-user return
of a policy over environments. One kernel computes it. The kernel steps
a :class:`~repro.rl.vec.VecEnvPool` under ``no_grad`` and asks an
``act_fn(states, t)`` callable for each step's actions. :func:`evaluate`
feeds that kernel whatever it is given::

    from repro.rl import evaluate

    evaluate(policy, env)                # float: one env
    evaluate(policy, [env_a, env_b])     # per-env returns
    evaluate(policy, vec_pool)           # per-env returns
    evaluate(policy, sharded_pool)       # the same kernel, inside the workers
    evaluate(act_fn, env)                # any act_fn(states, t) callable

- A bare env or a sequence of envs is wrapped in a pool. A given
  ``max_steps`` bounds this call's episodes; a pool's own ``max_steps``
  is left as it was and applies when it is omitted.
- An :class:`~repro.rl.policies.ActorCriticBase` acts through
  ``policy.as_act_fn(BlockRNG(streams, pool.slices), deterministic)``,
  with one noise stream per member env, so an env's return does not
  depend on which other envs share the batch. Any other callable acts
  as it is and owns its noise: ``rng`` and ``deterministic`` do not
  reach it.
- A :class:`~repro.rl.workers.ShardedVecEnvPool` takes a policy only:
  it syncs the policy to its workers, and each worker runs this front
  door, and so the same kernel, over its shard.

A bare env yields a ``float``; anything else yields one mean
(discounted) per-user return per member env. Per-env results are
bit-identical whether an env is evaluated alone, pooled or sharded
(``tests/rl/test_eval_parity.py``).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..envs.base import MultiUserEnv
from ..nn import no_grad
from .policies import ActorCriticBase
from .vec import BlockRNG, RNGLike, VecEnvPool, env_streams

__all__ = ["evaluate"]


def _check_episodes(episodes: int) -> None:
    """Refuse a sweep of no episodes: the kernel averages over them."""
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes!r}")


def _evaluate_pool(
    pool: VecEnvPool, act_fn, episodes: int, gamma: float, max_steps: Optional[int]
) -> np.ndarray:
    """The evaluation kernel: per-env mean (discounted) per-user return.

    Each episode resets ``act_fn`` (when it has a ``reset``), declares
    the pool's blocks to it (``set_rollout_groups``, so group context
    never mixes envs) and steps until every member is done. A finished
    member reads zero rewards, so its total does not depend on the
    members it shares the pool with. The blocks are cleared again even
    when a step raises.
    """
    totals = np.zeros(pool.num_envs)
    try:
        with no_grad():
            for _ in range(episodes):
                if hasattr(act_fn, "reset"):
                    act_fn.reset(pool.num_users)
                if hasattr(act_fn, "set_rollout_groups"):
                    act_fn.set_rollout_groups(pool.slices)
                states = pool.reset(max_steps)
                returns = np.zeros(pool.num_users)
                discount = 1.0
                step = 0
                while not pool.all_done:
                    states, rewards, _, _ = pool.step(act_fn(states, step))
                    returns += discount * rewards
                    discount *= gamma
                    step += 1
                for index, block in enumerate(pool.slices):
                    totals[index] += float(returns[block].mean())
    finally:
        if hasattr(act_fn, "set_rollout_groups"):
            act_fn.set_rollout_groups(None)
    return totals / episodes


def evaluate(
    policy,
    envs,
    *,
    episodes: int = 1,
    gamma: float = 1.0,
    rng: Optional[RNGLike] = None,
    deterministic: bool = True,
    max_steps: Optional[int] = None,
) -> Union[float, np.ndarray]:
    """Average (discounted) per-user return of ``policy`` over ``envs``.

    The one evaluation entry point (see the module docstring). Arguments:

    - ``policy`` — an :class:`~repro.rl.policies.ActorCriticBase`, which
      acts itself with one noise stream per env (``rng`` and
      ``deterministic`` apply), or any ``act_fn(states, t) -> actions``
      callable, which owns its noise.
    - ``envs`` — one :class:`~repro.envs.base.MultiUserEnv`, a sequence
      of them, a :class:`~repro.rl.vec.VecEnvPool`, or a
      :class:`~repro.rl.workers.ShardedVecEnvPool`, which evaluates
      inside its workers and needs an ``ActorCriticBase`` policy
      (``TypeError`` otherwise).
    - ``rng`` — a single generator (split into deterministic per-env
      children), a per-env sequence of generators, or a
      :class:`~repro.rl.vec.BlockRNG` (the caller's own streams,
      advanced in place). Defaults to ``default_rng(0)``.
    - ``episodes`` — episodes averaged per env; below 1 raises
      ``ValueError`` before any env steps or any worker is contacted.
    - ``max_steps`` — a per-episode step budget for this call; when
      omitted, a pool's own ``max_steps`` applies.

    Returns a ``float`` for a single bare env, else an array of one mean
    (discounted) per-user return per member env.
    """
    _check_episodes(episodes)
    from .workers import ShardedVecEnvPool  # local: workers imports this module

    is_policy = isinstance(policy, ActorCriticBase)
    if rng is None:
        rng = np.random.default_rng(0)
    if isinstance(envs, ShardedVecEnvPool):
        if not is_policy:
            raise TypeError(
                "a ShardedVecEnvPool evaluates inside its workers with a "
                "policy replica: call evaluate(policy, pool) with an "
                f"ActorCriticBase policy (got {type(policy).__name__}); use "
                "a VecEnvPool or env list for act_fn callables"
            )
        envs.sync_policy(policy)
        return envs.evaluate_policy(
            rng,
            episodes=episodes,
            gamma=gamma,
            deterministic=deterministic,
            max_steps=max_steps,
        )
    single = isinstance(envs, MultiUserEnv) and not isinstance(envs, VecEnvPool)
    if isinstance(envs, VecEnvPool):
        pool = envs
    else:
        pool = VecEnvPool([envs] if single else list(envs))
    if is_policy:
        streams = BlockRNG(env_streams(rng, pool.num_envs), pool.slices)
        act_fn = policy.as_act_fn(streams, deterministic=deterministic)
    else:
        act_fn = policy
    totals = _evaluate_pool(pool, act_fn, episodes, gamma, max_steps)
    return float(totals[0]) if single else totals
