"""The Sim2Rec context-aware policy with its hierarchical extractor (Fig. 2).

Per time-step, for every user i of the group:

1. the group's state-action set ``X_t = (S_t, A_{t-1})`` is embedded by
   SADAE: ``υ_t ~ q_κ(υ | X_t)``;
2. υ_t passes through fully-connected layers f (Table II) and is
   concatenated with the user's ``[a^i_{t-1}, s^i_t]`` to form x^i_t;
3. the LSTM extractor advances ``z^i_t = φ(z^i_{t-1}, x^i_t)``;
4. the context-aware head samples ``a^i_t ~ π(a | s^i_t, z^i_t)``.

During PPO updates the whole pipeline — including q_κ — is recomputed with
gradients (Eq. 4), so the extractor learns representations that the policy
actually needs, exactly as the paper prescribes. The learner computes that
context per run of consecutive equal-cardinality segments: one SADAE pass
over the run's stacked per-step sets and one pass of f
(:meth:`Sim2RecPolicy._segments_context`).
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .. import nn
from ..rl.buffer import RolloutSegment
from ..rl.policies import RecurrentActorCritic
from .sadae import SADAE


class Sim2RecPolicy(RecurrentActorCritic):
    """RecurrentActorCritic + SADAE group context."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        sadae: SADAE,
        rng: np.random.Generator,
        fc_sizes: Tuple[int, ...] = (64, 32),
        lstm_hidden: int = 64,
        head_hidden: Tuple[int, ...] = (128, 64),
        init_log_std: float = -0.5,
        sample_embedding: bool = True,
    ):
        context_dim = fc_sizes[-1]
        super().__init__(
            state_dim,
            action_dim,
            rng,
            lstm_hidden=lstm_hidden,
            head_hidden=head_hidden,
            context_dim=context_dim,
            init_log_std=init_log_std,
        )
        self.sadae = sadae
        # The extra fully-connected layers f between q_κ and φ (Table II).
        self.context_mlp = nn.MLP(
            [sadae.config.latent_dim, *fc_sizes], rng, activation="tanh"
        )
        self.sample_embedding = sample_embedding
        self._eval_rng = np.random.default_rng(0)

    # ------------------------------------------------------------------
    # replica synchronisation
    # ------------------------------------------------------------------
    def extra_state(self) -> Dict[str, np.ndarray]:
        """SADAE normaliser statistics ride along with the param broadcast.

        The input/state/action standardisation arrays are plain buffers
        (not Parameters), yet :meth:`_rollout_context` reads them on
        every act — a shard-parallel replica that missed them would
        embed with stale statistics and silently diverge bit-wise.
        """
        return {f"sadae_norm.{k}": v for k, v in self.sadae.normalizer_state().items()}

    def load_extra_state(self, state: Dict[str, np.ndarray]) -> None:
        prefix = "sadae_norm."
        self.sadae.load_normalizer_state(
            {k[len(prefix):]: v for k, v in state.items() if k.startswith(prefix)}
        )

    # ------------------------------------------------------------------
    # context hooks
    # ------------------------------------------------------------------
    def _rollout_context(self, states: np.ndarray, prev_actions: np.ndarray) -> np.ndarray:
        # υ_t is a *group-level* embedding: in a vectorized rollout the
        # stacked batch holds several groups (one block per env), and the
        # Eq. (6) posterior product must never mix users across groups.
        # Groups of one size embed together: their rows form a [K, n, d]
        # stack whose posterior row k is bit-identical to group k alone
        # (see `SADAE.posterior`), f runs once on the [K, latent] means,
        # and each output row is repeated to its group's users. A size
        # with one group is exactly the solo computation.
        #
        # Shard-parallel ordering note: rollout-time υ is the posterior
        # *mean* (`sadae.embed` draws no noise), so neither stacking
        # groups nor computing them on different workers can reorder any
        # υ-draw stream; the sampled υ path (`_segments_context` with
        # `_eval_rng`) runs only during parent-side PPO evaluation, in
        # segment order.
        groups = self._rollout_groups or (slice(0, states.shape[0]),)
        actions = None if self.sadae.config.state_only else prev_actions
        context = np.empty((states.shape[0], self.context_dim))
        for rows, count, size in _size_buckets(groups, states.shape[0]):
            upsilon = self.sadae.embed(
                states[rows].reshape(count, size, -1),
                None if actions is None else actions[rows].reshape(count, size, -1),
            )
            context[rows] = np.repeat(self.context_mlp.infer(upsilon), size, axis=0)
        return context

    def _segments_context(self, segments: Sequence[RolloutSegment]) -> nn.Tensor:
        """υ context of same-length segments, ``[K, T, context_dim]``, with gradients to κ.

        Each run of consecutive segments with one group size N stacks
        its S·T per-step sets ``X_t = (S_t, A_{t-1})`` into one
        ``[S·T, N, d]`` SADAE call, and f runs once on all K·T latent
        rows. Every row is bit-identical to embedding the segments, and
        their steps, one by one: encoder and f rows do not depend on the
        batch length, and each run's ``(S·T, latent)`` υ draw consumes
        ``_eval_rng`` exactly as S one-segment calls do. Only
        *consecutive* segments stack, so the draws stay in segment order
        (see :meth:`SADAE.embed_tensor`).
        """
        rng = self._eval_rng if self.sample_embedding else None
        state_only = self.sadae.config.state_only
        upsilons = []
        for _, run in groupby(segments, key=lambda segment: segment.num_users):
            run = list(run)
            states = np.concatenate([segment.states for segment in run])
            actions = (
                None
                if state_only
                else np.concatenate([segment.prev_actions for segment in run])
            )
            upsilons.append(self.sadae.embed_tensor(states, actions, rng))
        return self.context_mlp(nn.concat(upsilons, axis=0)).reshape(
            len(segments), segments[0].horizon, self.context_dim
        )

    # Note: ``self.sadae`` and ``self.context_mlp`` are module attributes, so
    # ``self.parameters()`` already exposes q_κ and f to the PPO optimiser —
    # the Eq. (4) gradient path updates κ without extra wiring.


def _size_buckets(
    groups: Sequence[slice], total: int
) -> List[Tuple[Union[slice, np.ndarray], int, int]]:
    """The rows of every group size in a stacked ``total``-row batch.

    ``groups`` must cover rows ``0 .. total-1`` exactly once, in order;
    an empty group owns no rows and is skipped. Returns one
    ``(rows, count, size)`` triple per distinct group size, in order of
    first appearance: ``rows`` selects that size's ``count`` groups back
    to back, as a slice when they are adjacent and as an index array
    otherwise.
    """
    by_size: Dict[int, List[slice]] = {}
    cursor = 0
    for block in groups:
        if block.start == block.stop:
            continue
        if block.start != cursor or block.stop < block.start or block.step not in (None, 1):
            raise _tiling_error(groups, total)
        by_size.setdefault(block.stop - block.start, []).append(block)
        cursor = block.stop
    if cursor != total:
        raise _tiling_error(groups, total)
    return [(_bucket_rows(blocks), len(blocks), size) for size, blocks in by_size.items()]


def _bucket_rows(blocks: List[slice]) -> Union[slice, np.ndarray]:
    if all(a.stop == b.start for a, b in zip(blocks, blocks[1:])):
        return slice(blocks[0].start, blocks[-1].stop)
    return np.concatenate([np.arange(block.start, block.stop) for block in blocks])


def _tiling_error(groups: Sequence[slice], total: int) -> ValueError:
    return ValueError(
        f"rollout groups {list(groups)} do not tile the {total}-row batch: "
        "every row must belong to exactly one group, in order"
    )
