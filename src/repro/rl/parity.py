"""Cross-mode rollout parity harness.

The repo's rollout engine has three collection modes that are
contractually **bit-identical** for matched per-env policy-noise streams:

- ``sequential`` — :func:`repro.rl.runner.collect_segments_sequential`,
  one env at a time. The reference semantics.
- ``vectorized`` — :func:`repro.rl.vec.collect_segments_vec` over an
  in-process :class:`~repro.rl.vec.VecEnvPool` (one ``policy.act`` per
  timestep for all envs).
- ``shard_parallel`` — full rollouts in worker processes: policy
  replicas act per shard
  (:meth:`~repro.rl.workers.ShardedVecEnvPool.sync_policy` +
  :meth:`~repro.rl.workers.ShardedVecEnvPool.collect_rollouts`).

This module is the *single* place that equivalence is spelled out:
``tests/rl/test_rollout_parity.py`` drives :func:`verify_rollout_parity`
across mode × shard-count × env-layout × policy grids, and
``benchmarks/perf_rollout.py`` calls the same helpers as its pre-timing
equivalence gate — a bench never times a path this harness has not just
proven bit-identical.

Why bit-identity survives replica forwards: replica weights round-trip
byte-exact (npz archives, no pickled floats), the nn engine's row-stable
matmul contract makes a forward over any row subset equal the same rows
of the stacked forward, per-env policy noise comes from
:class:`~repro.rl.vec.BlockRNG` streams pinned to env identity, and env
RNGs travel inside the pickled envs. See :mod:`repro.rl.workers`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..envs.base import MultiUserEnv
from .buffer import RolloutSegment
from .policies import ActorCriticBase
from .runner import collect_segments_sequential
from .vec import TRAJECTORY_FIELDS, VecEnvPool, collect_segments_vec
from .workers import ShardedVecEnvPool

#: Every rollout collection mode, reference first.
ROLLOUT_MODES: Tuple[str, ...] = ("sequential", "vectorized", "shard_parallel")

#: Array fields of a RolloutSegment compared for bitwise equality: the
#: per-step trajectory arrays plus the bootstrap values.
SEGMENT_FIELDS: Tuple[str, ...] = TRAJECTORY_FIELDS + ("last_values",)


def assert_segments_identical(
    expected: Sequence[RolloutSegment],
    actual: Sequence[RolloutSegment],
    label: str = "segments",
) -> None:
    """Bitwise comparison of two segment lists; raises ``AssertionError``.

    Checks every :data:`SEGMENT_FIELDS` array (shape and bytes), the
    group ids, and the extras dicts. ``label`` prefixes failure messages
    so parametrized tests and bench scenarios stay attributable.
    """
    if len(expected) != len(actual):
        raise AssertionError(
            f"{label}: {len(expected)} reference segments vs {len(actual)} collected"
        )
    for index, (ref, got) in enumerate(zip(expected, actual)):
        where = f"{label}[{index}]"
        if ref.group_id != got.group_id:
            raise AssertionError(
                f"{where}: group_id {got.group_id!r} != {ref.group_id!r}"
            )
        for name in SEGMENT_FIELDS:
            a, b = getattr(ref, name), getattr(got, name)
            if a.shape != b.shape:
                raise AssertionError(f"{where}.{name}: shape {b.shape} != {a.shape}")
            np.testing.assert_array_equal(b, a, err_msg=f"{where}.{name}")
        if set(ref.extras) != set(got.extras):
            raise AssertionError(
                f"{where}.extras: keys {sorted(got.extras)} != {sorted(ref.extras)}"
            )
        for key in ref.extras:
            np.testing.assert_array_equal(
                got.extras[key], ref.extras[key], err_msg=f"{where}.extras[{key}]"
            )


def collect_rollout_mode(
    mode: str,
    envs: Sequence[MultiUserEnv],
    policy: ActorCriticBase,
    rngs: Sequence[np.random.Generator],
    num_workers: int = 2,
    max_steps: Optional[int] = None,
    extras_from_info: Tuple[str, ...] = (),
    pool: Optional[Union[VecEnvPool, ShardedVecEnvPool]] = None,
    pool_kwargs: Optional[dict] = None,
) -> List[RolloutSegment]:
    """Collect one round of segments through the named rollout mode.

    ``envs`` advance in place for the in-process modes and inside the
    worker processes for ``shard_parallel`` — pass fresh envs per call
    when comparing modes. A prebuilt ``pool`` overrides ``envs`` for the
    pooled modes (a :class:`~repro.rl.vec.VecEnvPool` for ``vectorized``,
    a :class:`~repro.rl.workers.ShardedVecEnvPool` for
    ``shard_parallel``); reuse one across calls to test multi-episode
    stream continuity. ``shard_parallel`` otherwise builds a throwaway
    pool, with ``pool_kwargs`` forwarded to its constructor — the chaos
    tests route ``fault_policy`` / ``chaos`` through here so recovery
    runs under the exact parity harness that certifies the fault-free
    paths.
    """
    if mode == "sequential":
        return collect_segments_sequential(
            envs, policy, rngs, max_steps=max_steps, extras_from_info=extras_from_info
        )
    if mode == "vectorized":
        return collect_segments_vec(
            pool if pool is not None else envs,
            policy,
            rngs,
            max_steps=max_steps,
            extras_from_info=extras_from_info,
        )
    if mode != "shard_parallel":
        raise ValueError(f"unknown rollout mode {mode!r}; expected one of {ROLLOUT_MODES}")
    owned = pool is None
    if pool is None:
        pool = ShardedVecEnvPool(envs, num_workers=num_workers, **(pool_kwargs or {}))
    elif not isinstance(pool, ShardedVecEnvPool):
        raise ValueError(f"mode {mode!r} needs a ShardedVecEnvPool, got {type(pool).__name__}")
    try:
        pool.sync_policy(policy)
        return pool.collect_rollouts(
            rngs, max_steps=max_steps, extras_from_info=extras_from_info
        )
    finally:
        if owned:
            pool.close()


def verify_rollout_parity(
    make_envs: Callable[[], Sequence[MultiUserEnv]],
    policy: ActorCriticBase,
    seed: int,
    modes: Sequence[str] = ROLLOUT_MODES[1:],
    num_workers: int = 2,
    max_steps: Optional[int] = None,
    extras_from_info: Tuple[str, ...] = (),
    label: str = "parity",
    pool_kwargs: Optional[dict] = None,
) -> List[RolloutSegment]:
    """Assert every requested mode bit-reproduces the sequential loop.

    ``make_envs`` must return a *fresh* env set per call (same seeds →
    same initial state) because collection advances env state; every
    mode gets its own envs and its own per-env generators derived from
    ``seed``, so any mismatch is the collection path's fault alone.
    ``pool_kwargs`` reach the sharded pool's constructor (fault-policy
    and chaos injection for the robustness tests). Returns the
    sequential reference segments (benches reuse them).
    """
    reference_envs = make_envs()
    count = len(reference_envs)

    def fresh_rngs() -> List[np.random.Generator]:
        return [np.random.default_rng(seed + index) for index in range(count)]

    reference = collect_segments_sequential(
        reference_envs,
        policy,
        fresh_rngs(),
        max_steps=max_steps,
        extras_from_info=extras_from_info,
    )
    for mode in modes:
        collected = collect_rollout_mode(
            mode,
            make_envs(),
            policy,
            fresh_rngs(),
            num_workers=num_workers,
            max_steps=max_steps,
            extras_from_info=extras_from_info,
            pool_kwargs=pool_kwargs,
        )
        assert_segments_identical(reference, collected, label=f"{label}/{mode}")
    return reference
