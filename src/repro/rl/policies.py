"""Actor-critic policies for multi-user PPO.

Two families:

- :class:`MLPActorCritic` — feed-forward Gaussian policy π(a | s). Used by
  the DIRECT baseline and (trained across the simulator set) by DR-UNI,
  which is exactly "Sim2Rec with a constant φ output".
- :class:`RecurrentActorCritic` — an LSTM environment-parameter extractor
  z_t = φ(x_t, z_{t-1}) with x_t = [context_t, a_{t-1}, s_t], feeding a
  context-aware head π(a | s_t, z_t). With an empty context this is the
  DR-OSI architecture [15]; Sim2Rec subclasses it and injects the SADAE
  group embedding υ_t as context (Fig. 2).

Both expose the same rollout/update interface consumed by
:mod:`repro.rl.runner` and :mod:`repro.rl.ppo`:

- ``start_rollout(num_users)`` — reset per-episode recurrent state;
- ``act(states, prev_actions, rng)`` — sample actions without gradients,
  with their log-probs and values (what collection and serving record);
- ``actions(states, prev_actions, rng)`` — the same rollout step and
  noise draw, returning only the actions (what evaluation reads: the
  critic and the log-prob never run);
- ``evaluate_segments_batched(segments, user_idxs)`` — recompute
  log-probs / values / entropy with gradients for one or more
  same-length segments in one stacked pass (full BPTT for recurrent
  policies); this is what :class:`~repro.rl.ppo.PPO` learns through;
- ``evaluate_segment(segment, user_idx)`` — the same recomputation one
  segment at a time, kept as the parity reference the stacked pass is
  tested and timed against.

The rollout step (``act`` / ``actions``) is array-native end to end: it
never builds a ``Tensor``. The layers run their graph-free ``infer``
forwards (:meth:`repro.nn.MLP.infer`, :meth:`repro.nn.LSTMCell.infer`),
and the Gaussian head samples and scores with
:func:`repro.nn.diag_gaussian_sample` / :func:`repro.nn.diag_gaussian_log_prob`.
Each of these is the graph path's arithmetic op for op, so the actions,
log-probs and values a rollout records are bit-identical to what either
evaluation recomputes at the same parameters.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from .buffer import RolloutSegment


def _stacked_rows(
    segments: Sequence[RolloutSegment], user_idxs: Sequence[np.ndarray], field: str
) -> np.ndarray:
    """``field`` of every segment's selected users as time-major ``[T·Σb, d]`` rows.

    Row ``t·Σb + offset_k + j`` is user ``user_idxs[k][j]`` of segment k
    at step t: segment blocks stay contiguous within each step.
    """
    stacked = np.concatenate(
        [getattr(s, field)[:, idx] for s, idx in zip(segments, user_idxs)], axis=1
    )
    return stacked.reshape(stacked.shape[0] * stacked.shape[1], -1)


def _gaussian_head(
    actor: nn.MLP, log_std: nn.Parameter, features: np.ndarray, rng, deterministic: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """π(a | features) on arrays: the drawn actions and the Gaussian mean.

    The mean is the actor's sigmoid output (actions live in [0, 1]). A
    deterministic step returns the mean itself as its actions (the
    distribution's mode) and draws no noise.
    """
    mean = actor.infer(features)
    nn.sigmoid_data(mean, out=mean)
    if deterministic:
        return mean, mean
    return nn.diag_gaussian_sample(mean, log_std.data, rng), mean


def _copy_state(state):
    """An independent copy of an LSTM ``(h, c)`` state."""
    return tuple(np.array(part, dtype=np.float64) for part in state)


class _PolicyActFn:
    """A policy behind the ``act_fn(states, t)`` protocol (:meth:`ActorCriticBase.as_act_fn`).

    Feeds each step the previous step's actions (zeros on the first step
    after a reset) and draws noise from ``rng``.
    """

    def __init__(self, policy: ActorCriticBase, rng, deterministic: bool):
        self.policy = policy
        self.rng = rng
        self.deterministic = deterministic
        self.reset(0)

    def reset(self, num_users: int) -> None:
        self.policy.start_rollout(num_users)
        self._prev_actions: Optional[np.ndarray] = None

    def set_rollout_groups(self, groups) -> None:
        self.policy.set_rollout_groups(groups)

    def __call__(self, states: np.ndarray, t: int) -> np.ndarray:
        if self._prev_actions is None:
            self._prev_actions = np.zeros((states.shape[0], self.policy.action_dim))
        actions = self.policy.actions(
            states, self._prev_actions, self.rng, deterministic=self.deterministic
        )
        self._prev_actions = actions
        return actions


class ActorCriticBase(nn.Module):
    """Shared interface; see module docstring."""

    recurrent: bool = False
    # Block structure of the current rollout batch (set by the vectorized
    # collector); None means the whole batch is one group.
    _rollout_groups: Optional[Sequence[slice]] = None

    def start_rollout(self, num_users: int) -> None:
        """Reset any per-episode internal state (no-op for feed-forward)."""
        self._rollout_groups = None

    def set_rollout_groups(self, groups: Optional[Sequence[slice]]) -> None:
        """Declare the per-env blocks of a stacked rollout batch.

        Group-level machinery (the SADAE context in
        :class:`~repro.core.policy.Sim2RecPolicy`) must never mix users
        across environments; the vectorized collector calls this after
        ``start_rollout`` so context is scoped block by block. The blocks
        must cover the rows of every ``act`` batch exactly once, in order
        (empty blocks are allowed); a group-aware policy raises
        ``ValueError`` otherwise.
        """
        self._rollout_groups = list(groups) if groups is not None else None

    def act(
        self,
        states: np.ndarray,
        prev_actions: np.ndarray,
        rng: np.random.Generator,
        deterministic: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:  # pragma: no cover - abstract
        raise NotImplementedError

    def actions(
        self,
        states: np.ndarray,
        prev_actions: np.ndarray,
        rng: np.random.Generator,
        deterministic: bool = False,
    ) -> np.ndarray:
        """``act(...)[0]``: the actions alone, for callers that only step envs.

        Advances any recurrent state and consumes ``rng`` exactly like
        :meth:`act`, so the two can be interleaved freely. The built-in
        policies override it to skip the critic and the log-prob.
        """
        return self.act(states, prev_actions, rng, deterministic=deterministic)[0]

    # ------------------------------------------------------------------
    # session state (serving layer)
    # ------------------------------------------------------------------
    def initial_recurrent_state(self, num_users: int):
        """The state a ``num_users``-row rollout starts from (None: stateless)."""
        return None

    def recurrent_state(self):
        """Numpy snapshot of the per-rollout recurrent state, or None.

        Feed-forward policies carry no state between ``act`` calls, so the
        base returns None. :class:`RecurrentActorCritic` returns copies of
        the LSTM's ``(h, c)`` arrays that :meth:`set_recurrent_state` can
        restore later.
        """
        return None

    def set_recurrent_state(self, state) -> None:
        """Restore a :meth:`recurrent_state` snapshot (no-op base)."""
        self.exchange_recurrent_state(None if state is None else _copy_state(state))

    def exchange_recurrent_state(self, state):
        """Adopt ``state`` as the live rollout state, uncopied; return the old one.

        The serving kernel's hand-off (:class:`repro.serve.PolicyServer`):
        it installs a window's freshly stacked session rows before
        ``act`` and takes the advanced state back after it, with no
        snapshot copies in between. The caller gives up ``state`` and
        owns what is returned; the rollout step never writes into either
        (it allocates every new state). Stateless policies hold None.
        """
        if state is not None:
            raise ValueError(
                f"{type(self).__name__} is stateless; cannot adopt recurrent state"
            )
        return None

    # ------------------------------------------------------------------
    # replica synchronisation (sharded evaluation workers)
    # ------------------------------------------------------------------
    def extra_state(self) -> Dict[str, np.ndarray]:
        """Non-parameter arrays a rollout replica needs to act faithfully.

        ``state_dict`` only covers :class:`~repro.nn.module.Parameter`
        tensors; policies whose forward pass also reads plain-array
        buffers (e.g. the SADAE input normaliser of
        :class:`~repro.core.policy.Sim2RecPolicy`) override this so the
        parameter broadcast carries them too. Values must
        be plain numpy arrays (the broadcast is pickle-free).
        """
        return {}

    def load_extra_state(self, state: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`extra_state` (no-op by default)."""

    def replica_state(self) -> Dict[str, np.ndarray]:
        """Everything a worker-side replica must load on each broadcast.

        One flat name → array mapping: ``param.*`` entries are the
        ``state_dict`` and ``extra.*`` entries the :meth:`extra_state`
        buffers. Serialised with :func:`repro.nn.state_to_bytes` for the
        delta-free broadcast; loading it via :meth:`load_replica_state`
        makes the replica's forward pass bit-identical to the source
        policy's (same bytes in every weight and buffer).
        """
        state = {f"param.{k}": v for k, v in self.state_dict().items()}
        for key, value in self.extra_state().items():
            state[f"extra.{key}"] = np.asarray(value)
        return state

    def load_replica_state(self, state: Dict[str, np.ndarray]) -> None:
        """Load a :meth:`replica_state` mapping into this policy."""
        params = {k[len("param."):]: v for k, v in state.items() if k.startswith("param.")}
        extra = {k[len("extra."):]: v for k, v in state.items() if k.startswith("extra.")}
        self.load_state_dict(params)
        self.load_extra_state(extra)

    def evaluate_segment(
        self, segment: RolloutSegment, user_idx: np.ndarray
    ) -> Tuple[nn.Tensor, nn.Tensor, nn.Tensor]:  # pragma: no cover - abstract
        """One segment's ``[T, len(user_idx)]`` log-probs, values and entropies.

        The per-segment parity reference for
        :meth:`evaluate_segments_batched`; the learner never calls it.
        """
        raise NotImplementedError

    @staticmethod
    def _check_equal_horizons(segments: Sequence[RolloutSegment]) -> int:
        horizons = {segment.horizon for segment in segments}
        if len(horizons) != 1:
            raise ValueError(
                f"evaluate_segments_batched needs equal-length segments, got "
                f"horizons {sorted(horizons)}; bucket ragged segments by length first"
            )
        return horizons.pop()

    def evaluate_segments_batched(
        self,
        segments: Sequence[RolloutSegment],
        user_idxs: Sequence[np.ndarray],
    ) -> Tuple[nn.Tensor, nn.Tensor, nn.Tensor]:  # pragma: no cover - abstract
        """Evaluate one or more same-length segments in one stacked forward pass.

        The learner's evaluation: segment ``k``'s selected users occupy
        rows ``sum(len(user_idxs[:k])) ..`` of the user axis, giving
        time-major ``[T, sum-of-users]`` log-probs, values and entropies.
        The contract mirrors the rollout engine's (:mod:`repro.rl.vec`):
        every number is **bit-identical** to calling the reference
        ``evaluate_segment(segments[k], user_idxs[k])`` one segment at a
        time, because each row's arithmetic never mixes users across
        segments (group-level context is computed per group, one segment
        per group) and all matmuls are batch-length independent row-wise.

        All segments must share one horizon — :class:`repro.rl.ppo.PPO`
        buckets ragged segments by length before calling this.
        """
        raise NotImplementedError

    def as_act_fn(self, rng, deterministic: bool = True):
        """Adapt to the ``act_fn(states, t)`` protocol of :func:`repro.rl.evaluate`.

        ``rng`` is a generator or a :class:`~repro.rl.vec.BlockRNG` (one
        stream per env block of the batch).
        """
        return _PolicyActFn(self, rng, deterministic)


class MLPActorCritic(ActorCriticBase):
    """Feed-forward Gaussian policy with a state-independent log-std."""

    recurrent = False

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        rng: np.random.Generator,
        hidden_sizes: Tuple[int, ...] = (64, 64),
        init_log_std: float = -0.5,
    ):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.actor = nn.MLP(
            [state_dim, *hidden_sizes, action_dim], rng, activation="tanh", out_gain=0.01
        )
        self.critic = nn.MLP([state_dim, *hidden_sizes, 1], rng, activation="tanh")
        self.log_std = nn.Parameter(np.full(action_dim, init_log_std), name="log_std")

    def _distribution(self, states: nn.Tensor) -> nn.DiagGaussian:
        mean = self.actor(states).sigmoid()  # actions live in [0, 1]
        return nn.DiagGaussian(mean, self.log_std)

    def act(self, states, prev_actions, rng, deterministic=False):
        states = np.asarray(states, dtype=np.float64)
        actions, mean = _gaussian_head(self.actor, self.log_std, states, rng, deterministic)
        log_probs = nn.diag_gaussian_log_prob(actions, mean, self.log_std.data)
        return actions, log_probs, self.critic.infer(states)[:, 0]

    def actions(self, states, prev_actions, rng, deterministic=False):
        states = np.asarray(states, dtype=np.float64)
        return _gaussian_head(self.actor, self.log_std, states, rng, deterministic)[0]

    def evaluate_segment(self, segment, user_idx):
        t, b = segment.horizon, len(user_idx)
        states = segment.states[:, user_idx].reshape(t * b, self.state_dim)
        actions = segment.actions[:, user_idx].reshape(t * b, self.action_dim)
        states_t = nn.Tensor(states)
        dist = self._distribution(states_t)
        log_probs = dist.log_prob(actions).reshape(t, b)
        values = self.critic(states_t).reshape(t, b)
        entropy = dist.entropy().reshape(t, b)
        return log_probs, values, entropy

    def evaluate_segments_batched(self, segments, user_idxs):
        """Stacked evaluation: one actor/critic forward for all segments.

        Feed-forward policies have no cross-user state at all, so batching
        is a pure concatenation on the user axis, and one segment through
        it is bit-identical to :meth:`evaluate_segment` in gradients too;
        see :meth:`ActorCriticBase.evaluate_segments_batched` for the
        forward contract.
        """
        t = self._check_equal_horizons(segments)
        total = sum(len(idx) for idx in user_idxs)
        states_t = nn.Tensor(_stacked_rows(segments, user_idxs, "states"))
        dist = self._distribution(states_t)
        log_probs = dist.log_prob(_stacked_rows(segments, user_idxs, "actions")).reshape(t, total)
        values = self.critic(states_t).reshape(t, total)
        entropy = dist.entropy().reshape(t, total)
        return log_probs, values, entropy


class RecurrentActorCritic(ActorCriticBase):
    """LSTM extractor + context-aware Gaussian head (DR-OSI / Sim2Rec core).

    Subclasses provide a per-step group context by overriding
    :meth:`_rollout_context` (arrays in, array out) and
    :meth:`_segments_context` (several segments' Tensor sequences, with
    grad); the base class uses an empty context, which recovers the
    DR-OSI architecture.
    """

    recurrent = True

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        rng: np.random.Generator,
        lstm_hidden: int = 64,
        head_hidden: Tuple[int, ...] = (128, 64),
        context_dim: int = 0,
        init_log_std: float = -0.5,
    ):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.context_dim = context_dim
        self.extractor = nn.LSTMCell(state_dim + action_dim + context_dim, lstm_hidden, rng)
        head_in = state_dim + lstm_hidden
        self.actor = nn.MLP(
            [head_in, *head_hidden, action_dim], rng, activation="tanh", out_gain=0.01
        )
        self.critic = nn.MLP([head_in, *head_hidden, 1], rng, activation="tanh")
        self.log_std = nn.Parameter(np.full(action_dim, init_log_std), name="log_std")
        # The live extractor state: the LSTM's (h, c) arrays.
        self._state = None

    # ------------------------------------------------------------------
    # context hooks (overridden by the Sim2Rec policy)
    # ------------------------------------------------------------------
    def _rollout_context(self, states: np.ndarray, prev_actions: np.ndarray) -> Optional[np.ndarray]:
        """Per-step context for rollouts, shape ``[N, context_dim]`` or None."""
        return None

    def _segments_context(self, segments: Sequence[RolloutSegment]) -> Optional[nn.Tensor]:
        """Context of same-length segments with gradients, ``[K, T, context_dim]``.

        The context is *group-level*: row ``[k, t]`` is one vector shared
        by all users of ``segments[k]`` at step t (it is computed from the
        whole group's state-action set), so it broadcasts over the user
        axis during evaluation. Any embedding noise must be drawn in
        segment order, so that a one-segment call per segment consumes it
        exactly as one call over all of them. None means no context.
        """
        return None

    # ------------------------------------------------------------------
    def start_rollout(self, num_users: int) -> None:
        super().start_rollout(num_users)
        self._state = self.initial_recurrent_state(num_users)

    def _state_batch_size(self) -> int:
        return -1 if self._state is None else self._state[0].shape[0]

    def initial_recurrent_state(self, num_users: int):
        return tuple(part.data for part in self.extractor.initial_state(num_users))

    def recurrent_state(self):
        return None if self._state is None else _copy_state(self._state)

    def exchange_recurrent_state(self, state):
        previous, self._state = self._state, state
        return previous

    def _distribution(self, features: nn.Tensor) -> nn.DiagGaussian:
        """π(a | s, z) from the head features ``[s, z]``."""
        mean = self.actor(features).sigmoid()  # actions live in [0, 1]
        return nn.DiagGaussian(mean, self.log_std)

    def _heads(self, states_t: nn.Tensor, z: nn.Tensor) -> Tuple[nn.DiagGaussian, nn.Tensor]:
        features = nn.concat([states_t, z], axis=-1)
        return self._distribution(features), self.critic(features)

    def _rollout_step(self, states, prev_actions, rng, deterministic):
        """Advance the extractor one step and draw actions, on arrays.

        Returns the actions, the Gaussian mean and the head features
        ``[s, z]``: :meth:`act` adds the log-prob and the critic,
        :meth:`actions` stops here. A batch-size change restarts the
        extractor state only; declared rollout groups stay, so groups
        that do not tile the new batch still raise.
        """
        states = np.asarray(states, dtype=np.float64)
        prev_actions = np.asarray(prev_actions, dtype=np.float64)
        if self._state_batch_size() != states.shape[0]:
            self._state = self.initial_recurrent_state(states.shape[0])
        parts = [states, prev_actions]
        context = self._rollout_context(states, prev_actions)
        if context is not None:
            parts.append(context)
        z, self._state = self.extractor.infer(np.concatenate(parts, axis=-1), self._state)
        features = np.concatenate([states, z], axis=-1)
        actions, mean = _gaussian_head(self.actor, self.log_std, features, rng, deterministic)
        return actions, mean, features

    def act(self, states, prev_actions, rng, deterministic=False):
        actions, mean, features = self._rollout_step(states, prev_actions, rng, deterministic)
        log_probs = nn.diag_gaussian_log_prob(actions, mean, self.log_std.data)
        return actions, log_probs, self.critic.infer(features)[:, 0]

    def actions(self, states, prev_actions, rng, deterministic=False):
        return self._rollout_step(states, prev_actions, rng, deterministic)[0]

    def evaluate_segment(self, segment, user_idx):
        t = segment.horizon
        b = len(user_idx)
        context_seq = self._segments_context([segment])
        if context_seq is not None:
            context_seq = context_seq.reshape(t, self.context_dim)
        state = self.extractor.initial_state(b)
        log_probs, values, entropies = [], [], []
        for step in range(t):
            states_np = segment.states[step, user_idx]
            prev_np = segment.prev_actions[step, user_idx]
            states_t = nn.Tensor(states_np)
            parts = [states_t, nn.Tensor(prev_np)]
            if context_seq is not None:
                step_context = context_seq[step].reshape(1, self.context_dim)
                tiled = nn.concat([step_context] * b, axis=0)
                parts.append(tiled)
            x = nn.concat(parts, axis=-1)
            z, state = self.extractor(x, state)
            dist, value = self._heads(states_t, z)
            log_probs.append(dist.log_prob(segment.actions[step, user_idx]))
            values.append(value[:, 0])
            entropies.append(dist.entropy())
        return (
            nn.stack(log_probs, axis=0),
            nn.stack(values, axis=0),
            nn.stack(entropies, axis=0),
        )

    def evaluate_segments_batched(self, segments, user_idxs):
        """One time-major BPTT pass over every segment's selected users.

        Stacks the segments on the user axis (``[T, sum-of-users, d]``)
        and evaluates the whole horizon at once: the extractor runs as
        one fused ``unroll`` (:mod:`repro.nn.recurrent`) and the heads
        and distributions run once on all ``T·sum-of-users`` rows — the
        same block-diagonal trick :func:`repro.rl.vec.collect_segments_vec`
        applies to rollouts, now with the autodiff graph attached.

        The forward is bit-identical to the per-segment reference
        :meth:`evaluate_segment` because (a) the recurrent state of row i
        only ever reads row i, (b) group-level context comes from
        :meth:`_segments_context`, which draws any embedding noise in
        segment order exactly as one call per segment would (the Sim2Rec
        policy computes it per run of equal-cardinality segments), (c)
        context tiling uses :func:`repro.nn.tile_rows`, whose forward is
        value-identical to the per-user concat tiling, and (d) every
        matmul is batch-length independent row-wise. Gradients sum the
        same terms in another order (the fused unroll's backward), one
        segment included, and agree to ≤1e-10 relative
        (``tests/rl/test_batched_eval.py``).
        """
        t = self._check_equal_horizons(segments)
        counts = [len(idx) for idx in user_idxs]
        total = sum(counts)
        # Context first: it may consume the embedding-noise stream.
        contexts = self._segments_context(segments)
        states_t = nn.Tensor(_stacked_rows(segments, user_idxs, "states"))
        parts = [states_t, nn.Tensor(_stacked_rows(segments, user_idxs, "prev_actions"))]
        if contexts is not None:
            # Row (step, k) holds segment k's context at that step.
            step_rows = contexts.transpose(1, 0, 2).reshape(
                t * len(segments), self.context_dim
            )
            parts.append(nn.tile_rows(step_rows, counts * t))
        x = nn.concat(parts, axis=-1).reshape(t, total, -1)
        z = self.extractor.unroll(x).reshape(t * total, -1)
        dist, values = self._heads(states_t, z)
        return (
            dist.log_prob(_stacked_rows(segments, user_idxs, "actions")).reshape(t, total),
            values.reshape(t, total),
            dist.entropy().reshape(t, total),
        )
