"""One evaluation front door: :func:`evaluate`.

Evaluation is one operation — *average discounted per-user return of a
policy over environments* — with three orthogonal axes: who acts (a
bare callable vs. the policy itself), how the envs are driven (one at a
time vs. pooled vs. sharded worker-side), and what comes back (a scalar
vs. per-env returns). :func:`evaluate` is a single call that dispatches
on its inputs::

    from repro.rl import evaluate

    evaluate(policy, env)                      # scalar: one env, replica kernel
    evaluate(policy, [env_a, env_b])           # per-env returns, pooled
    evaluate(policy, sharded_pool)             # evaluated inside the workers
    evaluate(act_fn, env)                      # callable protocol, one env
    evaluate(act_fn, pool, mode="vec")         # callable over a pool

Dispatch rules (``mode="auto"``):

- ``policy`` an :class:`~repro.rl.policies.ActorCriticBase` → the
  **replica** path: the policy acts itself under ``no_grad`` with one
  noise stream per member env (sharding-invariant; a
  :class:`~repro.rl.workers.ShardedVecEnvPool` is synced and evaluated
  worker-side — the only path such a pool takes);
- ``policy`` any other callable → the **act_fn** path: a single env runs
  the classic per-env loop (``solo``), pools/sequences run the stacked
  loop (``vec``).

The return shape follows the input: a single bare env yields a scalar
``float``; a pool or sequence yields one mean (discounted) per-user
return per member env. Per-env results are bit-identical across solo,
pooled and sharded execution — enforced by
``tests/rl/test_eval_parity.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..envs.base import MultiUserEnv
from ..nn import no_grad
from .policies import ActorCriticBase
from .vec import BlockRNG, RNGLike, VecEnvPool, split_rng

__all__ = ["evaluate"]

_MODES = ("auto", "solo", "vec", "replica")


def _check_episodes(episodes: int) -> None:
    """Refuse a sweep of no episodes: every kernel averages over them."""
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes!r}")


# ----------------------------------------------------------------------
# kernels (internal: the public surface is ``evaluate``)
# ----------------------------------------------------------------------
def _solo_eval(env: MultiUserEnv, act_fn, episodes: int = 1, gamma: float = 1.0) -> float:
    """Average (discounted) per-user return of ``act_fn`` on one env.

    ``act_fn(states, t)`` must return actions ``[num_users, act_dim]``. A
    new episode calls ``reset()`` and, when the callable has a ``reset``
    method (recurrent policies), resets its internal state too. ``env``
    may be a :class:`~repro.rl.vec.VecEnvPool`: pools expose the same
    step/reset interface over the stacked user axis, and their block
    structure (``group_slices``) is forwarded to group-aware policies so
    per-city context never mixes cities.
    """
    group_slices = getattr(env, "group_slices", None)
    forward_groups = group_slices is not None and hasattr(act_fn, "set_rollout_groups")
    total = 0.0
    try:
        for _ in range(episodes):
            if hasattr(act_fn, "reset"):
                act_fn.reset(env.num_users)
            if forward_groups:
                act_fn.set_rollout_groups(group_slices)
            states = env.reset()
            returns = np.zeros(env.num_users)
            discount = 1.0
            for t in range(env.horizon):
                actions = act_fn(states, t)
                states, rewards, dones, _ = env.step(actions)
                returns += discount * rewards
                discount *= gamma
                if np.all(dones):
                    break
            total += float(returns.mean())
    finally:
        if forward_groups:
            act_fn.set_rollout_groups(None)  # don't leak block structure
    return total / episodes


def _vec_eval(
    envs: Union[VecEnvPool, Sequence[MultiUserEnv]],
    act_fn,
    episodes: int = 1,
    gamma: float = 1.0,
) -> np.ndarray:
    """Per-env average (discounted) per-user return, one act per step.

    The pooled counterpart of :func:`_solo_eval`: instead of looping
    cities, all cities advance together and the callable sees the
    stacked state matrix. Returns an array with one mean per-user return
    per member env.
    """
    pool = envs if isinstance(envs, VecEnvPool) else VecEnvPool(envs)
    totals = np.zeros(pool.num_envs)
    try:
        for _ in range(episodes):
            if hasattr(act_fn, "reset"):
                act_fn.reset(pool.num_users)
            if hasattr(act_fn, "set_rollout_groups"):
                act_fn.set_rollout_groups(pool.slices)
            states = pool.reset()
            returns = np.zeros(pool.num_users)
            discount = 1.0
            step = 0
            while not pool.all_done:
                actions = act_fn(states, step)
                states, rewards, dones, _ = pool.step(actions)
                returns += discount * rewards
                discount *= gamma
                step += 1
            for index, block in enumerate(pool.slices):
                totals[index] += float(returns[block].mean())
    finally:
        if hasattr(act_fn, "set_rollout_groups"):
            act_fn.set_rollout_groups(None)
    return totals / episodes


def _replica_eval(
    pool: Union[VecEnvPool, Sequence[MultiUserEnv]],
    policy: ActorCriticBase,
    rngs: Sequence[np.random.Generator],
    episodes: int = 1,
    gamma: float = 1.0,
    deterministic: bool = True,
    max_steps: Optional[int] = None,
) -> np.ndarray:
    """Replica-side evaluation kernel: act with ``policy`` itself, per-env streams.

    The sharding-invariant counterpart of :func:`_vec_eval`: instead of
    an opaque ``act_fn`` holding one shared noise stream, the policy acts
    directly with one caller-owned generator **per member env** (wrapped in a
    :class:`BlockRNG` over the pool's blocks) and per-env context groups. Each
    env's action noise therefore comes from that env's own stream regardless
    of which other envs share the batch — so evaluating the same envs split
    across any number of shard-local pools (each with its env's generator)
    produces bit-identical per-env returns. This is the kernel both sides of
    :meth:`repro.rl.workers.ShardedVecEnvPool.evaluate_policy` run: workers
    call it over their shard with their policy replica, the degraded/in-process
    path calls it over the full pool.

    Only the actor runs: the kernel calls :meth:`ActorCriticBase.actions`,
    which draws exactly what ``act`` would but skips the critic and the
    log-prob that evaluation never reads.

    ``rngs`` objects are advanced in place (per-env stream continuity across
    multi-episode sweeps). Returns one mean (discounted) per-user return per
    member env.
    """
    if not isinstance(pool, VecEnvPool):
        pool = VecEnvPool(pool, max_steps=max_steps)
    elif max_steps is not None:
        pool.max_steps = max_steps
    rngs = list(rngs)
    if len(rngs) != pool.num_envs:
        raise ValueError(
            f"replica evaluation needs one generator per env: "
            f"got {len(rngs)} for {pool.num_envs} envs"
        )
    block_rng = BlockRNG(rngs, pool.slices)
    totals = np.zeros(pool.num_envs)
    try:
        with no_grad():
            for _ in range(episodes):
                policy.start_rollout(pool.num_users)
                policy.set_rollout_groups(pool.slices)
                states = pool.reset()
                prev_actions = np.zeros((pool.num_users, policy.action_dim))
                returns = np.zeros(pool.num_users)
                discount = 1.0
                while not pool.all_done:
                    actions = policy.actions(
                        states, prev_actions, block_rng, deterministic=deterministic
                    )
                    prev_actions = actions
                    states, rewards, dones, _ = pool.step(actions)
                    returns += discount * rewards
                    discount *= gamma
                for index, block in enumerate(pool.slices):
                    totals[index] += float(returns[block].mean())
    finally:
        policy.set_rollout_groups(None)
    return totals / episodes


def _as_env_rngs(rng: Optional[RNGLike], num_envs: int) -> List[np.random.Generator]:
    """Normalise the front door's ``rng`` argument to one stream per env."""
    if rng is None:
        rng = np.random.default_rng(0)
    if isinstance(rng, BlockRNG):
        return list(rng.rngs)
    if isinstance(rng, np.random.Generator):
        return split_rng(rng, num_envs)
    return list(rng)


# ----------------------------------------------------------------------
# the front door
# ----------------------------------------------------------------------
def evaluate(
    policy,
    envs,
    *,
    episodes: int = 1,
    gamma: float = 1.0,
    mode: str = "auto",
    rng: Optional[RNGLike] = None,
    deterministic: bool = True,
    max_steps: Optional[int] = None,
) -> Union[float, np.ndarray]:
    """Average (discounted) per-user return of ``policy`` over ``envs``.

    The one evaluation entry point (see the module docstring for the
    dispatch table). Arguments:

    - ``policy`` — an :class:`~repro.rl.policies.ActorCriticBase`
      (replica path: the policy acts itself, ``deterministic`` and
      ``rng`` apply) or any ``act_fn(states, t) -> actions`` callable
      (classic callable protocol; ``rng``/``deterministic`` are ignored —
      the callable owns its noise).
    - ``envs`` — one :class:`~repro.envs.base.MultiUserEnv`, a sequence
      of them, a :class:`~repro.rl.vec.VecEnvPool`, or a
      :class:`~repro.rl.workers.ShardedVecEnvPool` (evaluated inside its
      workers via the version-stamped replica protocol; it needs an
      :class:`~repro.rl.policies.ActorCriticBase` policy and the
      ``"auto"``/``"replica"`` mode, anything else raises ``TypeError``).
    - ``mode`` — ``"auto"`` (dispatch on input types), ``"solo"`` (the
      per-env callable loop), ``"vec"`` (pooled callable loop) or
      ``"replica"`` (policy acts itself with per-env streams).
    - ``rng`` — replica path only: a single generator (split into
      deterministic per-env children), a per-env sequence, or a
      :class:`~repro.rl.vec.BlockRNG` (caller-owned streams, advanced in
      place). Defaults to ``default_rng(0)``.
    - ``episodes`` — episodes averaged per env; below 1 raises
      ``ValueError`` before any env steps or any worker is contacted.

    Returns a ``float`` for a single bare env, else an array of one mean
    (discounted) per-user return per member env. Per-env results are
    bit-identical across solo / pooled / sharded execution of the same
    envs (``tests/rl/test_eval_parity.py``).
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    _check_episodes(episodes)
    from .workers import ShardedVecEnvPool  # local: workers imports this module

    is_policy = isinstance(policy, ActorCriticBase)
    if isinstance(envs, ShardedVecEnvPool):
        if not is_policy or mode not in ("auto", "replica"):
            raise TypeError(
                "a ShardedVecEnvPool evaluates inside its workers with a "
                "policy replica: call evaluate(policy, pool) with an "
                f"ActorCriticBase policy (got {type(policy).__name__}, "
                f"mode={mode!r}); use a VecEnvPool or env list for act_fn "
                "callables"
            )
        envs.sync_policy(policy)
        return envs.evaluate_policy(
            rng if rng is not None else np.random.default_rng(0),
            episodes=episodes,
            gamma=gamma,
            deterministic=deterministic,
            max_steps=max_steps,
        )
    is_pool = isinstance(envs, VecEnvPool)
    is_single = isinstance(envs, MultiUserEnv) and not is_pool
    if not (is_pool or is_single):
        envs = list(envs)
        if not envs:
            raise ValueError("evaluate() needs at least one environment")

    if mode == "auto":
        if is_policy:
            mode = "replica"
        else:
            mode = "solo" if is_single else "vec"

    if mode == "replica":
        if not is_policy:
            raise TypeError(
                "mode='replica' evaluates the policy itself and needs an "
                f"ActorCriticBase, got {type(policy).__name__}"
            )
        pool = [envs] if is_single else envs
        if not isinstance(pool, VecEnvPool):
            pool = VecEnvPool(pool)
        totals = _replica_eval(
            pool,
            policy,
            _as_env_rngs(rng, pool.num_envs),
            episodes=episodes,
            gamma=gamma,
            deterministic=deterministic,
            max_steps=max_steps,
        )
        return float(totals[0]) if is_single else totals

    act_fn = (
        policy.as_act_fn(
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(0),
            deterministic=deterministic,
        )
        if is_policy
        else policy
    )
    if mode == "solo":
        if is_single or is_pool:
            return _solo_eval(envs, act_fn, episodes=episodes, gamma=gamma)
        return np.array(
            [_solo_eval(env, act_fn, episodes=episodes, gamma=gamma) for env in envs]
        )
    # mode == "vec"
    if is_single:
        return float(
            _vec_eval([envs], act_fn, episodes=episodes, gamma=gamma)[0]
        )
    return _vec_eval(envs, act_fn, episodes=episodes, gamma=gamma)
