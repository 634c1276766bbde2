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
actually needs, exactly as the paper prescribes.
"""

from __future__ import annotations

from typing import Dict, Tuple

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
        # stacked batch holds several groups (one block per env), so the
        # SADAE posterior product must run per block — mixing users across
        # cities would change every number.
        #
        # Shard-parallel ordering note: rollout-time υ is the posterior
        # *mean* (`sadae.embed` draws no noise), so computing blocks on
        # different workers cannot reorder any υ-draw stream; the sampled
        # υ path (`_segment_context` with `_eval_rng`) runs only during
        # parent-side PPO evaluation, segment by segment, in order.
        groups = self._rollout_groups or (slice(0, states.shape[0]),)
        context = np.empty((states.shape[0], self.context_dim))
        for block in groups:
            upsilon = self.sadae.embed(
                states[block],
                None if self.sadae.config.state_only else prev_actions[block],
            )
            with nn.no_grad():
                context[block] = self.context_mlp(nn.Tensor(upsilon.reshape(1, -1))).data
        return context

    def _segment_context(self, segment: RolloutSegment) -> nn.Tensor:
        """υ context per step over the full group, with gradients to κ.

        The T per-step sets ``X_t = (S_t, A_{t-1})`` go through SADAE as
        one ``[T, N, d]`` stack and f runs once on ``[T, latent]``. Every
        row, and the υ-noise stream, is bit-identical to embedding the
        steps one by one (see :meth:`SADAE.embed_tensor`).
        """
        rng = self._eval_rng if self.sample_embedding else None
        actions = None if self.sadae.config.state_only else segment.prev_actions
        upsilon = self.sadae.embed_tensor(segment.states, actions, rng)
        return self.context_mlp(upsilon)

    # Note: ``self.sadae`` and ``self.context_mlp`` are module attributes, so
    # ``self.parameters()`` already exposes q_κ and f to the PPO optimiser —
    # the Eq. (4) gradient path updates κ without extra wiring.
