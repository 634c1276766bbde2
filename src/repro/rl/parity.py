"""Rollout parity check: the vectorized collector against the sequential one.

The repo's rollout engine has one collector,
:func:`repro.rl.vec.collect_segments_vec` over a
:class:`~repro.rl.vec.VecEnvPool` (one ``policy.act`` per timestep for
all envs), and it is contractually **bit-identical** to its reference
semantics, :func:`repro.rl.runner.collect_segments_sequential` (one env
at a time), for matched per-env policy-noise streams.

This module is the *single* place that equivalence is spelled out:
``tests/rl/test_rollout_parity.py`` calls both collectors and compares
them with :func:`assert_segments_identical` across env-layout × policy
grids, and ``benchmarks/perf_rollout.py`` calls the same comparison as
its pre-timing equivalence gate — a bench never times a path this
harness has not just proven bit-identical.

Why bit-identity survives stacking: the nn engine's row-stable matmul
contract makes a forward over any row subset equal the same rows of the
stacked forward, and per-env policy noise comes from
:class:`~repro.rl.vec.BlockRNG` streams pinned to env identity.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .buffer import RolloutSegment
from .vec import TRAJECTORY_FIELDS

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
