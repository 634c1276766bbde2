"""Batched cross-city rollout engine.

Sim2Rec trains one policy against an *ensemble* of simulators (many
cities × many drivers), so rollout throughput dominates every
experiment. The sequential path (:func:`repro.rl.runner.collect_segment`)
rolls one city at a time, paying the full per-step Python/numpy overhead
once per city per timestep. This module stacks N homogeneous
:class:`~repro.envs.base.MultiUserEnv` groups on the **user axis** so the
policy is driven with a single ``act`` call per timestep for all cities
at once — the block-diagonal vectorisation used by RecSim-style env
pools.

Determinism contract
--------------------
:func:`collect_segments_vec` produces per-city :class:`RolloutSegment`
objects *numerically identical* to looping ``collect_segment`` city by
city, provided each city keeps its own policy-noise stream:

- every environment steps with its own internal RNG exactly as in the
  sequential path (the pool never draws from env RNGs);
- policy sampling noise is drawn through :class:`BlockRNG`, which owns
  one ``np.random.Generator`` per environment and fills each env's block
  of the stacked batch from that env's stream;
- group-level context (the SADAE embedding υ_t) is scoped per block via
  ``policy.set_rollout_groups``: blocks of one size share a stacked
  posterior pass, but no block's users ever mix with another city's.

Per-env done masking: an environment leaves the pool as soon as all of
its users are done (or its own step budget is exhausted); its block is
frozen and its value bootstrap is taken from the first ``act`` call after
its final transition — exactly the state the sequential bootstrap sees.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..envs.base import MultiUserEnv
from ..nn import no_grad
from .buffer import RolloutSegment
from .policies import ActorCriticBase

RNGLike = Union[np.random.Generator, Sequence[np.random.Generator], "BlockRNG"]


def split_rng(rng: np.random.Generator, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent child generators deterministically."""
    try:
        return list(rng.spawn(count))
    except (AttributeError, TypeError):  # pragma: no cover - legacy numpy
        seeds = rng.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(seed)) for seed in seeds]


class BlockRNG:
    """A ``np.random.Generator`` stand-in over block-stacked batches.

    A draw whose leading axis equals the stacked user count is split so
    each environment's rows come from that environment's own stream —
    the property that makes vectorized rollouts bit-reproduce sequential
    per-city rollouts.
    """

    def __init__(self, rngs: Sequence[np.random.Generator], slices: Sequence[slice]):
        if len(rngs) != len(slices):
            raise ValueError("need exactly one generator per block")
        self.rngs = list(rngs)
        self.slices = list(slices)
        self.total = slices[-1].stop if slices else 0

    def standard_normal(self, size=None) -> np.ndarray:
        """Standard normals of shape ``size``, each block's rows from its own stream.

        The one draw the policies make (:func:`repro.nn.diag_gaussian_sample`);
        ``size``'s leading axis must be the stacked user count.
        """
        if size is None:
            shape = ()
        else:
            shape = (size,) if isinstance(size, int) else tuple(size)
        if not shape or shape[0] != self.total:
            raise ValueError(
                f"BlockRNG draws must have leading axis {self.total}, got size={size!r}"
            )
        out = np.empty(shape)
        for rng, block in zip(self.rngs, self.slices):
            out[block] = rng.standard_normal((block.stop - block.start,) + shape[1:])
        return out


def validate_pool_members(envs: Sequence[MultiUserEnv]) -> List[slice]:
    """Member checks shared by :class:`VecEnvPool` and the sharded pool.

    Enforces the pool invariants (at least one env, distinct objects,
    homogeneous obs/action dims) and returns the user-axis slice of each
    member, in order.
    """
    if not envs:
        raise ValueError("a vec env pool needs at least one environment")
    if len({id(env) for env in envs}) != len(envs):
        raise ValueError(
            "pool members must be distinct objects; stepping one env "
            "under two blocks would corrupt its state"
        )
    first = envs[0]
    for env in envs[1:]:
        if env.observation_dim != first.observation_dim:
            raise ValueError("pool members must share the observation dimension")
        if env.action_dim != first.action_dim:
            raise ValueError("pool members must share the action dimension")
    offsets = np.cumsum([0] + [env.num_users for env in envs])
    return [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]


class VecEnvPool(MultiUserEnv):
    """N homogeneous multi-user environments stacked on the user axis.

    The pool is itself a :class:`MultiUserEnv` whose ``num_users`` is the
    sum over members, so everything written against the single-env
    interface (:func:`repro.rl.evaluate`, behaviour policies, metrics)
    works on a whole city set unchanged. ``step`` applies the
    block-diagonal transition: each member env receives its own slice of
    the stacked action matrix and advances with its own internal RNG.
    On top of the env interface it exposes the block structure and
    per-member progress :func:`collect_segments_vec` and
    :func:`repro.rl.evaluate` need: ``slices`` (one user-axis slice per
    member, in member order), ``group_id``, ``num_envs``,
    ``active_mask``, ``env_steps``, ``all_done`` and ``max_steps`` (a
    settable per-episode step budget, applied at the next ``reset``;
    ``reset(max_steps)`` sets the budget for that one episode instead).

    Finished members (all users done, or the member's step budget spent)
    are masked out: their state block freezes, their rewards read zero
    and their dones read True, and the underlying env is never stepped
    again — mirroring the sequential early-exit.
    """

    def __init__(self, envs: Sequence[MultiUserEnv], max_steps: Optional[int] = None):
        self.slices = validate_pool_members(envs)
        first = envs[0]
        self.envs = list(envs)
        self.max_steps = max_steps
        self.num_users = int(self.slices[-1].stop)
        self.horizon = max(env.horizon for env in self.envs)
        self.observation_space = first.observation_space
        self.action_space = first.action_space
        self.group_id = [env.group_id for env in self.envs]
        self._active = np.zeros(len(self.envs), dtype=bool)
        self._steps = np.zeros(len(self.envs), dtype=np.int64)
        self._limits = np.zeros(len(self.envs), dtype=np.int64)
        self._states = np.zeros((self.num_users, first.observation_dim))
        # Native block-diagonal stepping: env classes may provide a
        # ``make_batch_stepper(envs, slices)`` classmethod returning an
        # object with reset()/step() over the stacked user axis (or None
        # when the members are not homogeneous enough). The stepper must
        # preserve per-env RNG streams and guarantee that all members
        # finish simultaneously (equal horizons). Implementations:
        # DPRCityEnv, SimulatedDPREnv (shared simulator) and LTSEnv.
        self._batch_stepper = None
        factory = getattr(type(first), "make_batch_stepper", None)
        if factory is not None and len(self.envs) > 1:
            self._batch_stepper = factory(self.envs, self.slices)

    # ------------------------------------------------------------------
    @property
    def num_envs(self) -> int:
        return len(self.envs)

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean mask over member envs still running (copy)."""
        return self._active.copy()

    @property
    def env_steps(self) -> np.ndarray:
        """Steps taken by each member env this episode (copy)."""
        return self._steps.copy()

    @property
    def all_done(self) -> bool:
        return not self._active.any()

    # ------------------------------------------------------------------
    def reset(self, max_steps: Optional[int] = None) -> np.ndarray:
        if self._batch_stepper is not None:
            fresh = self._batch_stepper.reset()
            self._states[:] = fresh
        else:
            for env, block in zip(self.envs, self.slices):
                self._states[block] = env.reset()
            fresh = self._states.copy()
        self._active[:] = True
        self._steps[:] = 0
        for index, env in enumerate(self.envs):
            self._limits[index] = max_steps or self.max_steps or env.horizon
        return fresh

    def step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[str, Any]]:
        actions = self._validate_actions(actions)
        if self._batch_stepper is not None and self._active.all():
            states, rewards, dones, infos = self._batch_stepper.step(actions)
            self._states[:] = states
            self._steps += 1
            for index in range(len(self.envs)):
                block = self.slices[index]
                if dones[block].all() or self._steps[index] >= self._limits[index]:
                    self._active[index] = False
            if self._active.any() and not self._active.all():
                raise RuntimeError(
                    "batched stepper members must finish simultaneously"
                )
            info = {"per_env": infos, "active": self._active.copy()}
            return states, rewards, dones, info
        if self._batch_stepper is not None and self._active.any():
            raise RuntimeError(
                "batched stepper pools cannot step a partially-finished batch"
            )
        rewards = np.zeros(self.num_users)
        dones = np.ones(self.num_users, dtype=bool)
        infos: List[Optional[Dict[str, Any]]] = [None] * len(self.envs)
        for index, (env, block) in enumerate(zip(self.envs, self.slices)):
            if not self._active[index]:
                continue  # frozen block: state unchanged, reward 0, done True
            states, env_rewards, env_dones, info = env.step(actions[block])
            self._states[block] = states
            rewards[block] = env_rewards
            env_dones = np.asarray(env_dones, dtype=bool)
            dones[block] = env_dones
            infos[index] = info
            self._steps[index] += 1
            if env_dones.all() or self._steps[index] >= self._limits[index]:
                self._active[index] = False
        info = {"per_env": infos, "active": self._active.copy()}
        return self._states.copy(), rewards, dones, info


def env_streams(rng: RNGLike, num_envs: int) -> List[np.random.Generator]:
    """One policy-noise generator per env, from any accepted ``rng`` form.

    A single generator is split into ``num_envs`` deterministic children
    (:func:`split_rng`); a sequence of generators or a :class:`BlockRNG`
    hands over the caller's own generators, which every draw advances in
    place. Raises ``ValueError`` unless there is exactly one per env.
    """
    if isinstance(rng, np.random.Generator):
        return split_rng(rng, num_envs)
    rngs = list(rng.rngs if isinstance(rng, BlockRNG) else rng)
    if len(rngs) != num_envs:
        raise ValueError(f"expected {num_envs} generators, got {len(rngs)}")
    return rngs


def collect_segments_vec(
    pool: Union[VecEnvPool, Sequence[MultiUserEnv]],
    policy: ActorCriticBase,
    rng: RNGLike,
    max_steps: Optional[int] = None,
    extras_from_info: tuple[str, ...] = (),
) -> List[RolloutSegment]:
    """Roll ``policy`` in every pool member at once; one act per timestep.

    Returns one :class:`RolloutSegment` per member env, each truncated at
    that env's own final step and bootstrapped from the state after it —
    numerically identical (see the module docstring's determinism
    contract) to calling :func:`repro.rl.runner.collect_segment` per env
    with the matching per-env generator.

    ``rng`` may be a single generator (per-env streams are spawned from
    it), an explicit sequence of per-env generators, or a prebuilt
    :class:`BlockRNG`. ``max_steps``, when given, bounds this call's
    episode; a prebuilt pool's own ``max_steps`` is left as it was and
    applies when it is omitted.

    A :class:`repro.rl.workers.ShardedVecEnvPool` does not step from the
    parent: passing one raises ``TypeError`` — the sharded pool only
    evaluates, through ``evaluate(policy, pool)``.
    """
    from .workers import ShardedVecEnvPool  # local: workers imports this module

    if isinstance(pool, ShardedVecEnvPool):
        raise TypeError(
            "collect_segments_vec steps envs in this process; a "
            "ShardedVecEnvPool only evaluates, inside its workers — call "
            "evaluate(policy, pool), and collect through a VecEnvPool or "
            "an env list"
        )
    if not isinstance(pool, VecEnvPool):
        pool = VecEnvPool(pool)
    block_rng = BlockRNG(env_streams(rng, pool.num_envs), pool.slices)
    try:
        with no_grad():
            return _collect_impl(pool, policy, block_rng, max_steps, extras_from_info)
    finally:
        # Set by _collect_impl; cleared here so a raising env step or act
        # cannot leak the block structure into the policy's next caller.
        if hasattr(policy, "set_rollout_groups"):
            policy.set_rollout_groups(None)


def _collect_impl(
    pool: VecEnvPool,
    policy: ActorCriticBase,
    block_rng: BlockRNG,
    max_steps: Optional[int],
    extras_from_info: tuple[str, ...],
) -> List[RolloutSegment]:
    states = pool.reset(max_steps)
    total = pool.num_users
    policy.start_rollout(total)
    if hasattr(policy, "set_rollout_groups"):
        policy.set_rollout_groups(pool.slices)
    prev_actions = np.zeros((total, policy.action_dim))

    seq_states: List[np.ndarray] = []
    seq_prev: List[np.ndarray] = []
    seq_actions: List[np.ndarray] = []
    seq_rewards: List[np.ndarray] = []
    seq_dones: List[np.ndarray] = []
    seq_values: List[np.ndarray] = []
    seq_log_probs: List[np.ndarray] = []
    seq_extras: Dict[str, List[np.ndarray]] = {key: [] for key in extras_from_info}

    lengths: List[Optional[int]] = [None] * pool.num_envs
    last_values: List[Optional[np.ndarray]] = [None] * pool.num_envs
    pending: List[int] = []  # finished envs awaiting their bootstrap values

    while not pool.all_done:
        actions, log_probs, values = policy.act(states, prev_actions, block_rng)
        # Envs that finished on the previous transition bootstrap from the
        # values of this act call: same post-terminal state, same recurrent
        # extractor state as the sequential bootstrap would see.
        for index in pending:
            last_values[index] = values[pool.slices[index]].copy()
        pending.clear()

        active_before = pool.active_mask
        next_states, rewards, dones, info = pool.step(actions)

        seq_states.append(states)
        seq_prev.append(prev_actions)
        seq_actions.append(actions)
        seq_rewards.append(np.array(rewards, dtype=np.float64))
        seq_dones.append(np.array(dones, dtype=np.float64))
        seq_values.append(values)
        seq_log_probs.append(log_probs)
        per_env_infos = info["per_env"]
        for key in extras_from_info:
            buffer: Optional[np.ndarray] = None
            for env_info, block in zip(per_env_infos, pool.slices):
                if env_info is None:
                    continue  # frozen block; rows past an env's end are dropped
                value = np.asarray(env_info[key], dtype=np.float64)
                if buffer is None:
                    buffer = np.zeros((total,) + value.shape[1:])
                buffer[block] = value
            seq_extras[key].append(buffer)

        finished_now = np.nonzero(active_before & ~pool.active_mask)[0]
        for index in finished_now:
            lengths[index] = int(pool.env_steps[index])
            pending.append(int(index))

        states = next_states
        prev_actions = actions

    if pending:
        # Envs that ran until the global end: bootstrap exactly like the
        # sequential path (deterministic act, no extra noise draws).
        _, _, values = policy.act(states, prev_actions, block_rng, deterministic=True)
        for index in pending:
            last_values[index] = values[pool.slices[index]].copy()

    stacked = {
        "states": np.stack(seq_states),
        "prev_actions": np.stack(seq_prev),
        "actions": np.stack(seq_actions),
        "rewards": np.stack(seq_rewards),
        "dones": np.stack(seq_dones),
        "values": np.stack(seq_values),
        "log_probs": np.stack(seq_log_probs),
    }
    stacked_extras = {key: np.stack(value) for key, value in seq_extras.items()}
    return _assemble_segments(
        stacked, stacked_extras, lengths, last_values, pool.slices, pool.group_id
    )


TRAJECTORY_FIELDS = (
    "states",
    "prev_actions",
    "actions",
    "rewards",
    "dones",
    "values",
    "log_probs",
)


def _assemble_segments(
    stacked: Dict[str, np.ndarray],
    stacked_extras: Dict[str, np.ndarray],
    lengths: Sequence[Optional[int]],
    last_values: Sequence[Optional[np.ndarray]],
    slices: Sequence[slice],
    group_ids: Sequence[Any],
) -> List[RolloutSegment]:
    """Slice per-env :class:`RolloutSegment` objects out of stacked arrays.

    ``stacked`` holds one time-major ``[T, total_users, ...]`` array per
    :data:`TRAJECTORY_FIELDS` entry; env ``k`` owns user rows
    ``slices[k]`` and its first ``lengths[k]`` timesteps (rows past an
    env's own end are ignored).
    """
    segments: List[RolloutSegment] = []
    for index, gid in enumerate(group_ids):
        block = slices[index]
        steps = lengths[index]
        segments.append(
            RolloutSegment(
                states=stacked["states"][:steps, block].copy(),
                prev_actions=stacked["prev_actions"][:steps, block].copy(),
                actions=stacked["actions"][:steps, block].copy(),
                rewards=stacked["rewards"][:steps, block].copy(),
                dones=stacked["dones"][:steps, block].copy(),
                values=stacked["values"][:steps, block].copy(),
                log_probs=stacked["log_probs"][:steps, block].copy(),
                last_values=np.array(last_values[index], dtype=np.float64),
                group_id=gid,
                extras={
                    key: value[:steps, block].copy()
                    for key, value in stacked_extras.items()
                },
            )
        )
    return segments
