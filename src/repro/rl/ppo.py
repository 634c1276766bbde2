"""Proximal Policy Optimization (clip variant) over user-sequence rollouts.

The paper optimises Eq. (4) with PPO [46]; gradients flow through the
context-aware heads, the LSTM extractor φ and — for Sim2Rec — the SADAE
encoder q_κ and the layers f, because the learner recomputes the whole
pipeline with the autodiff graph attached (full backpropagation through
time). ``policy.parameters()`` holds every one of them, so one optimiser
over it updates κ too.

Minibatches are drawn over *users* (whole sequences), never over time
steps, so recurrent state is always consistent.

Stacked-segment updates
-----------------------
Each epoch buckets the buffer's segments by horizon and evaluates the
r-th minibatch of every same-length segment in one time-major
``[T, sum-of-users, d]`` BPTT pass
(:meth:`~repro.rl.policies.ActorCriticBase.evaluate_segments_batched`),
taking one optimizer step per minibatch *round*. A bucket of one
segment, every ragged leftover length included, goes through the same
pass with one segment in it. The forward numbers are bit-identical to
the per-segment reference :meth:`~repro.rl.policies.ActorCriticBase.evaluate_segment`;
the gradients sum the same terms in another order (≤1e-10 relative).
K same-length segments mean K× fewer, K×-larger steps per epoch than
one step per (segment, minibatch) pair, the standard trade of
vectorized PPO implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from .buffer import RolloutBuffer, RolloutSegment
from .policies import ActorCriticBase


@dataclass
class PPOConfig:
    """Clipped-PPO hyper-parameters (paper defaults in Table II)."""

    learning_rate: float = 3e-4
    final_learning_rate: Optional[float] = None  # linear decay target (1e-6 in Table II)
    total_iterations: int = 100                  # decay horizon when final_learning_rate set
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 1e-3
    update_epochs: int = 4
    minibatches_per_segment: int = 2
    max_grad_norm: float = 0.5
    bootstrap_truncated: bool = False  # bootstrap V at segment end (T_c truncation)


class TrainingDiverged(RuntimeError):
    """A loss or gradient norm went non-finite; no parameter was updated.

    Raised before the optimizer step, so the parameters (and the
    optimizer's moment estimates) keep their last finite values.
    :class:`repro.core.PolicyTrainer` re-raises it naming the last run
    checkpoint to resume from.
    """


class PPO:
    """One PPO learner bound to a policy's parameters."""

    def __init__(self, policy: ActorCriticBase, config: PPOConfig):
        self.policy = policy
        self.config = config
        self.optimizer = nn.Adam(policy.parameters(), lr=config.learning_rate)
        self._schedule = None
        if config.final_learning_rate is not None:
            self._schedule = nn.LinearLRSchedule(
                self.optimizer,
                start=config.learning_rate,
                end=config.final_learning_rate,
                total=config.total_iterations,
            )

    # ------------------------------------------------------------------
    def update(self, buffer: RolloutBuffer) -> Dict[str, float]:
        """Run the clipped-PPO update over all segments in the buffer.

        The buffer must already be finalized (advantages computed); the
        trainer does so after applying its reward/done post-processing.
        """
        config = self.config
        stats = {
            "policy_loss": 0.0,
            "value_loss": 0.0,
            "entropy": 0.0,
            "clip_frac": 0.0,
            "approx_kl": 0.0,
            "grad_norm": 0.0,
        }
        updates = 0
        for segment in buffer:
            if segment.advantages is None:
                raise RuntimeError("buffer not finalized before PPO.update")
        # Each segment's advantages are standardised once per update; every
        # minibatch of every epoch slices the same array.
        advantages = [segment.normalized_advantages() for segment in buffer]
        for epoch in range(config.update_epochs):
            for metrics in self._update_epoch(buffer, advantages, epoch):
                for key in stats:
                    stats[key] += metrics[key]
                updates += 1
        if self._schedule is not None:
            self._schedule.step()
        if updates:
            for key in stats:
                stats[key] /= updates
        stats["learning_rate"] = self.optimizer.lr
        return stats

    def _user_minibatches(
        self, segment: RolloutSegment, epoch: int, index: int
    ) -> Iterable[np.ndarray]:
        """Minibatch user splits, seeded by (epoch, buffer position).

        The position-derived seed (rather than ``id(segment)``, whose
        memory address made every run's shuffles unique) keeps the whole
        PPO update reproducible: same buffer contents → same minibatch
        order, across runs and processes.
        """
        n = segment.num_users
        count = min(self.config.minibatches_per_segment, n)
        order = np.random.default_rng(hash((epoch, index)) % (2**32)).permutation(n)
        return np.array_split(order, count)

    def _update_epoch(
        self, buffer: RolloutBuffer, advantages: Sequence[np.ndarray], epoch: int
    ) -> List[Dict[str, float]]:
        """One epoch of stacked-segment updates (length-bucketed).

        Segments are bucketed by horizon in buffer order; within a bucket
        the r-th minibatches of every segment form one stacked update
        step, so a bucket of one takes one step per minibatch of its
        segment. ``advantages[i]`` is segment i's normalised advantages.
        """
        buckets: Dict[int, List[Tuple[int, RolloutSegment]]] = {}
        for index, segment in enumerate(buffer):
            buckets.setdefault(segment.horizon, []).append((index, segment))
        metrics: List[Dict[str, float]] = []
        for bucket in buckets.values():
            splits = [
                list(self._user_minibatches(s, epoch, i)) for i, s in bucket
            ]
            for round_idx in range(max(len(split) for split in splits)):
                members = [
                    (segment, advantages[index], split[round_idx])
                    for (index, segment), split in zip(bucket, splits)
                    if round_idx < len(split)
                ]
                metrics.append(self._update_stacked(members))
        return metrics

    def _minibatch_targets(
        self, segment: RolloutSegment, advantages: np.ndarray, user_idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(advantages, returns, old log-probs, mask) for one minibatch.

        ``advantages`` is the segment's :meth:`~repro.rl.buffer.RolloutSegment.normalized_advantages`.
        """
        return (
            advantages[:, user_idx],
            segment.returns[:, user_idx],
            segment.log_probs[:, user_idx],
            segment.valid_mask[:, user_idx],
        )

    def _update_stacked(
        self, members: Sequence[Tuple[RolloutSegment, np.ndarray, np.ndarray]]
    ) -> Dict[str, float]:
        """One optimizer step over one or more segments' stacked minibatches.

        ``members`` holds (segment, its normalised advantages, user
        indices) triples. Advantage normalisation stays per segment (each
        segment's own valid-step statistics); only the forward/backward
        pass and the optimizer step are shared.
        """
        targets = [self._minibatch_targets(s, adv, idx) for s, adv, idx in members]
        adv, returns, old_log_probs, mask = (
            np.concatenate([t[field] for t in targets], axis=1) for field in range(4)
        )
        log_probs, values, entropy = self.policy.evaluate_segments_batched(
            [s for s, _, _ in members], [idx for _, _, idx in members]
        )
        return self._loss_step(log_probs, values, entropy, adv, returns, old_log_probs, mask)

    def _loss_step(
        self,
        log_probs: nn.Tensor,
        values: nn.Tensor,
        entropy: nn.Tensor,
        adv: np.ndarray,
        returns: np.ndarray,
        old_log_probs: np.ndarray,
        mask: np.ndarray,
    ) -> Dict[str, float]:
        """Clipped-PPO loss on ``[T, B]`` evaluation outputs + one step.

        Besides the losses, the returned metrics carry two learner-health
        series: ``grad_norm``, the pre-clip global gradient norm, and
        ``approx_kl``, the mask-weighted mean of ``(r − 1) − log r`` (a
        low-variance, non-negative estimate of KL(old ‖ new)). Raises
        :class:`TrainingDiverged` before the optimizer step when the loss
        or the gradient norm is non-finite.
        """
        config = self.config
        mask_total = max(mask.sum(), 1.0)
        mask_t = nn.Tensor(mask)
        log_ratio = log_probs - old_log_probs
        ratio = log_ratio.exp()
        surrogate = ratio * adv
        clipped = ratio.clip(1.0 - config.clip_ratio, 1.0 + config.clip_ratio) * adv
        policy_loss = -(surrogate.minimum(clipped) * mask_t).sum() / mask_total

        value_error = values - returns
        value_loss = ((value_error * value_error) * mask_t).sum() / mask_total

        entropy_mean = (entropy * mask_t).sum() / mask_total

        loss = (
            policy_loss
            + config.value_coef * value_loss
            - config.entropy_coef * entropy_mean
        )
        if not np.isfinite(loss.item()):
            raise TrainingDiverged(f"PPO loss is {loss.item()}")
        self.optimizer.zero_grad()
        loss.backward()
        grad_norm = nn.clip_grad_norm(self.optimizer.parameters, config.max_grad_norm)
        if not np.isfinite(grad_norm):
            raise TrainingDiverged(f"PPO gradient norm is {grad_norm}")
        self.optimizer.step()

        clip_frac = float(
            ((np.abs(ratio.data - 1.0) > config.clip_ratio) * mask).sum() / mask_total
        )
        approx_kl = float((((ratio.data - 1.0) - log_ratio.data) * mask).sum() / mask_total)
        return {
            "policy_loss": policy_loss.item(),
            "value_loss": value_loss.item(),
            "entropy": entropy_mean.item(),
            "clip_frac": clip_frac,
            "approx_kl": approx_kl,
            "grad_norm": grad_norm,
        }
