"""Run checkpoint / resume for the training loops.

A checkpoint is one CRC32-verified state archive in the one-block layout
of :mod:`repro.nn.serialization`, written atomically by
:func:`repro.nn.save_state` (write-temp-then-rename, so a crash
mid-write can never corrupt the previous checkpoint), holding everything
a :class:`~repro.core.trainer.PolicyTrainer` needs to continue **on the
exact trajectory** an unbroken run would have taken:

- ``policy.*``  — the policy's full replica state (all parameters,
  including the SADAE, plus non-parameter buffers such as the SADAE
  input normaliser) via ``replica_state`` — the same delta-free archive
  the evaluation workers receive;
- ``optimizer.*`` / ``schedule.*`` — the PPO Adam accumulators and the
  linear-LR schedule position, so the first post-resume update takes
  the same parameter step;
- ``rng.*`` — the trainer's generator and the policy's evaluation
  generator, pickled *whole*. (A ``bit_generator.state`` dict is not
  enough: ``split_rng`` spawns child streams through the generator's
  ``SeedSequence``, whose spawn counter lives outside that state dict —
  pickling the generator object preserves it, so post-resume rollout
  noise streams match the unbroken run's.)
- ``aux.*``   — trainer-specific continuation state (shared training-env
  objects with their internal RNGs, the SADAE replay window, the DPR env
  seed counter) via the ``checkpoint_extra_state`` hook;
- ``meta.*``  — format version and the completed-iteration counter.

Loading refuses archives whose checksum, format version or parameter
shapes do not match — a torn or bit-flipped checkpoint fails loudly
(:class:`repro.nn.StateChecksumError`) instead of resuming from garbage.
Enforced by ``tests/core/test_checkpoint.py``: a run that checkpoints,
dies and resumes reproduces the unbroken run's metrics and final
parameters bit for bit, and corrupted checkpoints are rejected.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Optional

import numpy as np

from ..nn.serialization import load_state, save_state

PathLike = Any

#: Bumped when the archive layout changes incompatibly.
CHECKPOINT_VERSION = 1


def pickle_to_array(obj: Any) -> np.ndarray:
    """Pickle an object into a uint8 array (an archive-storable opaque blob)."""
    return np.frombuffer(pickle.dumps(obj), dtype=np.uint8)


def unpickle_array(array: np.ndarray) -> Any:
    """Inverse of :func:`pickle_to_array`."""
    return pickle.loads(np.asarray(array, dtype=np.uint8).tobytes())


def save_checkpoint(path: PathLike, trainer) -> None:
    """Snapshot ``trainer`` (policy, optimiser, RNGs, aux state) to ``path``.

    ``trainer`` is any :class:`~repro.core.trainer.PolicyTrainer`; the
    archive is written atomically, so an existing checkpoint at ``path``
    survives a crash mid-save.
    """
    state: Dict[str, np.ndarray] = {
        "meta.version": np.array([CHECKPOINT_VERSION], dtype=np.int64),
        "meta.iteration": np.array([trainer.iteration], dtype=np.int64),
        "rng.trainer": pickle_to_array(trainer.rng),
    }
    for key, value in trainer.policy.replica_state().items():
        state[f"policy.{key}"] = np.asarray(value)
    for key, value in trainer.ppo.optimizer.state_dict().items():
        state[f"optimizer.{key}"] = np.asarray(value)
    schedule = getattr(trainer.ppo, "_schedule", None)
    if schedule is not None:
        for key, value in schedule.state_dict().items():
            state[f"schedule.{key}"] = np.asarray(value)
    eval_rng = getattr(trainer.policy, "_eval_rng", None)
    if eval_rng is not None:
        state["rng.eval"] = pickle_to_array(eval_rng)
    for key, value in trainer.checkpoint_extra_state().items():
        state[f"aux.{key}"] = np.asarray(value)
    save_state(path, state)


def load_checkpoint(path: PathLike, trainer) -> int:
    """Restore ``trainer`` from a checkpoint; returns the iteration count.

    The trainer must be *freshly constructed from the same config* (same
    policy architecture, simulator set and seed) — the checkpoint
    overwrites its parameters, optimiser accumulators, RNG streams and
    aux state in place, after which ``train_iteration`` continues the
    unbroken run's trajectory bit for bit. Raises
    :class:`~repro.nn.StateChecksumError` on a corrupt archive,
    ``ValueError`` on a version or shape mismatch and ``KeyError`` on
    missing entries. The version check runs before any trainer state is
    overwritten; keys under any other prefix are ignored.
    """
    state = load_state(path)
    version = int(np.asarray(state["meta.version"]).ravel()[0])
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path} has format version {version}, this build "
            f"reads version {CHECKPOINT_VERSION}"
        )
    iteration = int(np.asarray(state["meta.iteration"]).ravel()[0])

    def prefixed(prefix: str) -> Dict[str, np.ndarray]:
        return {
            key[len(prefix):]: value
            for key, value in state.items()
            if key.startswith(prefix)
        }

    trainer.policy.load_replica_state(prefixed("policy."))
    trainer.ppo.optimizer.load_state_dict(prefixed("optimizer."))
    schedule = getattr(trainer.ppo, "_schedule", None)
    schedule_state = prefixed("schedule.")
    if schedule is not None:
        if not schedule_state:
            raise KeyError(
                "checkpoint has no schedule state but the trainer's PPO uses "
                "an LR schedule — config mismatch"
            )
        schedule.load_state_dict(schedule_state)
    trainer.rng = unpickle_array(state["rng.trainer"])
    if "rng.eval" in state:
        trainer.policy._eval_rng = unpickle_array(state["rng.eval"])
    trainer.load_checkpoint_extra_state(prefixed("aux."))
    trainer._iteration = iteration
    return iteration


def checkpoint_iteration(path: PathLike) -> Optional[int]:
    """Peek a checkpoint's completed-iteration counter (None if unreadable)."""
    try:
        state = load_state(path)
        return int(np.asarray(state["meta.iteration"]).ravel()[0])
    except (OSError, KeyError, ValueError):
        return None
