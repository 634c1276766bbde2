"""Cross-mode rollout parity harness.

The repo's rollout engine has two collection modes that are
contractually **bit-identical** for matched per-env policy-noise streams:

- ``sequential`` — :func:`repro.rl.runner.collect_segments_sequential`,
  one env at a time. The reference semantics.
- ``vectorized`` — :func:`repro.rl.vec.collect_segments_vec` over an
  in-process :class:`~repro.rl.vec.VecEnvPool` (one ``policy.act`` per
  timestep for all envs).

This module is the *single* place that equivalence is spelled out:
``tests/rl/test_rollout_parity.py`` drives :func:`collect_rollout_mode`
and :func:`assert_segments_identical` across mode × env-layout × policy
grids, and ``benchmarks/perf_rollout.py`` calls the same comparison as
its pre-timing equivalence gate — a bench never times a path this
harness has not just proven bit-identical.

Why bit-identity survives stacking: the nn engine's row-stable matmul
contract makes a forward over any row subset equal the same rows of the
stacked forward, and per-env policy noise comes from
:class:`~repro.rl.vec.BlockRNG` streams pinned to env identity.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..envs.base import MultiUserEnv
from .buffer import RolloutSegment
from .policies import ActorCriticBase
from .runner import collect_segments_sequential
from .vec import TRAJECTORY_FIELDS, VecEnvPool, collect_segments_vec

#: Every rollout collection mode, reference first.
ROLLOUT_MODES: Tuple[str, ...] = ("sequential", "vectorized")

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
    max_steps: Optional[int] = None,
    extras_from_info: Tuple[str, ...] = (),
    pool: Optional[VecEnvPool] = None,
) -> List[RolloutSegment]:
    """Collect one round of segments through the named rollout mode.

    ``envs`` advance in place — pass fresh envs per call when comparing
    modes. A prebuilt :class:`~repro.rl.vec.VecEnvPool` ``pool``
    overrides ``envs`` for ``vectorized``; reuse one across calls to
    test multi-episode stream continuity.
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
    raise ValueError(f"unknown rollout mode {mode!r}; expected one of {ROLLOUT_MODES}")
