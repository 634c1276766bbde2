"""Training loops: the generic simulator-set PPO trainer and Algorithm 1.

:class:`PolicyTrainer` implements the shared loop — sample an environment
from the simulator set, roll out, post-process, PPO-update — which is all
that DIRECT / DR-UNI / DR-OSI need (they differ only in policy class and
environment sampler). :class:`repro.scenarios.ScenarioTrainer` (any
registered family, the LTS task sets included) and
:class:`Sim2RecDPRTrainer` specialise it into the full Algorithm 1, both
through the one Eq. (8) step :func:`sadae_step`:

1. construct Ω' (done by the caller: LTS task sets / DEMER-style ensemble);
2. sample a simulator M_ω ~ p(Ω) and a group g ~ p(g)          (lines 4–5);
3. roll out τ with the T_c truncation                          (line 6);
4. add the uncertainty penalty r ← r − α U(s, a)               (line 8);
5. apply F_trend (user removal) and F_exec (done + R_min/(1−γ)) (line 9);
6. PPO update of (φ, π, f, q_κ) via Eq. (4) plus SADAE ELBO updates via
   Eq. (8)                                                      (line 10).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..envs.base import MultiUserEnv
from ..obs import JSONLMetricsSink, MetricsRegistry, PHASE_SECONDS_BUCKETS
from ..rl.buffer import RolloutBuffer, RolloutSegment
from ..rl.policies import ActorCriticBase
from ..rl.ppo import PPO, TrainingDiverged
from ..rl.runner import collect_segment
from ..rl.vec import collect_segments_vec, split_rng
from ..sim.dataset import TrajectoryDataset
from ..sim.ensemble import SimulatorEnsemble
from ..sim.env_wrapper import SimulatedDPREnv
from ..utils.logging import MetricLogger
from ..utils.seeding import make_rng
from .config import Sim2RecConfig
from .filters import (
    apply_exec_filter,
    apply_uncertainty_penalty,
    compute_trend_filter,
    filter_group_log,
)
from .policy import Sim2RecPolicy
from .sadae import SADAE, StateActionSet, train_sadae

EnvSampler = Callable[[np.random.Generator], MultiUserEnv]


def _poolable_batches(
    envs: Sequence[MultiUserEnv],
) -> List[List[Tuple[int, MultiUserEnv]]]:
    """Partition sampled envs into rounds that can share a VecEnvPool.

    A pool must not hold the same env object twice (block-diagonal
    stepping would corrupt its state) and members must agree on state and
    action dims; anything that does not fit the current round is deferred
    to a later one, preserving sampling order within each round.
    """
    remaining = list(enumerate(envs))
    batches: List[List[Tuple[int, MultiUserEnv]]] = []
    while remaining:
        reference = remaining[0][1]
        seen: set[int] = set()
        batch: List[Tuple[int, MultiUserEnv]] = []
        deferred: List[Tuple[int, MultiUserEnv]] = []
        for index, env in remaining:
            compatible = (
                id(env) not in seen
                and env.observation_dim == reference.observation_dim
                and env.action_dim == reference.action_dim
            )
            if compatible:
                seen.add(id(env))
                batch.append((index, env))
            else:
                deferred.append((index, env))
        batches.append(batch)
        remaining = deferred
    return batches


class PolicyTrainer:
    """Generic PPO training against a (sampled) set of environments."""

    def __init__(
        self,
        policy: ActorCriticBase,
        env_sampler: EnvSampler,
        config: Sim2RecConfig,
        logger: Optional[MetricLogger] = None,
    ):
        self.policy = policy
        self.env_sampler = env_sampler
        self.config = config
        self.ppo = PPO(policy, config.ppo)
        self.rng = make_rng(config.seed)
        self.logger = logger or MetricLogger()
        self._iteration = 0
        # Observability (docs/observability.md): wall-clock phase timings
        # and counters live in a metrics registry, *never* in
        # the metrics dict ``train_iteration`` returns — that dict is the
        # determinism contract's witness and must stay timing-free. The
        # registry is also what the per-iteration JSONL sink
        # (``config.metrics_path``) snapshots.
        self.metrics = MetricsRegistry()
        self._m_phase = self.metrics.histogram(
            "train_phase_seconds",
            "wall-clock seconds per training phase",
            ("phase",),
            buckets=PHASE_SECONDS_BUCKETS,
        )
        self._m_iterations = self.metrics.counter(
            "train_iterations_total", "completed training iterations"
        )
        self._metrics_sink: Optional[JSONLMetricsSink] = None
        # Samplers with side effects (e.g. resampling user gaps on shared
        # env objects) need the sample→rollout interleaving of the
        # sequential path; subclasses set this to opt out of pooling.
        self._sequential_collect = False
        # Completed iterations held by the last checkpoint this trainer
        # wrote to config.checkpoint_path (None: none written yet).
        self._last_checkpoint: Optional[int] = None

    def close(self) -> None:
        """Close the JSONL metrics sink (idempotent).

        A later iteration reopens the sink in append mode.
        """
        sink, self._metrics_sink = self._metrics_sink, None
        if sink is not None:
            sink.close()

    def __enter__(self) -> "PolicyTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # Observability plumbing --------------------------------------------
    @contextmanager
    def _phase_timer(self, phase: str) -> Iterator[None]:
        """Record the enclosed block's wall-clock under ``phase``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._m_phase.labels(phase).observe(time.perf_counter() - start)

    def _write_metrics_record(self, iteration: int, logged: Dict[str, float]) -> None:
        """Append one registry snapshot to ``config.metrics_path`` (lazy open)."""
        path = self.config.metrics_path
        if path is None:
            return
        if self._metrics_sink is None:
            self._metrics_sink = JSONLMetricsSink(path)
        self._metrics_sink.append(
            {
                "iteration": iteration,
                "logged": {key: float(value) for key, value in logged.items()},
                "metrics": self.metrics.snapshot(),
            }
        )

    def _collect_round(
        self, envs: List[MultiUserEnv], streams: List[np.random.Generator]
    ) -> List[RolloutSegment]:
        """Roll out one pool round: a lone env directly, else through a pool."""
        max_steps = self.config.truncate_horizon
        if len(envs) == 1:
            return [collect_segment(envs[0], self.policy, streams[0], max_steps=max_steps)]
        return collect_segments_vec(envs, self.policy, streams, max_steps=max_steps)

    # Hooks specialised by Sim2Rec trainers ------------------------------
    def post_process_segment(self, segment: RolloutSegment, env: MultiUserEnv) -> None:
        """Reward/done post-processing before GAE (Alg. 1 lines 8–9)."""

    def after_update(self) -> List[float]:
        """Extra learning steps after PPO (the Eq. 8 SADAE update).

        Returns the step's per-epoch losses, empty when no update ran;
        :meth:`train_iteration` logs their mean as ``sadae_loss``.
        """
        return []

    # The collect schedule: sample -> roll out -> post-process ----------
    def collect(self) -> Tuple[RolloutBuffer, List[float]]:
        """Sample simulators and roll the policy out in each (Alg. 1 l. 4–6).

        The iteration's simulators roll out together through one
        in-process :class:`~repro.rl.vec.VecEnvPool` — bit-identical to
        rolling them out one at a time. Environments that cannot share
        a pool (duplicate objects from samplers that reuse env
        instances, or mismatched state/action dims) fall back to
        additional pool rounds or single-env rollouts, and samplers with
        side effects roll simulators one at a time.
        """
        config = self.config
        if self._sequential_collect:
            envs: List[MultiUserEnv] = []
            segments: List[Optional[RolloutSegment]] = []
            for _ in range(config.segments_per_iteration):
                env = self.env_sampler(self.rng)
                envs.append(env)
                segments.append(
                    collect_segment(
                        env, self.policy, self.rng, max_steps=config.truncate_horizon
                    )
                )
        else:
            envs = [self.env_sampler(self.rng) for _ in range(config.segments_per_iteration)]
            streams = split_rng(self.rng, len(envs))
            segments = [None] * len(envs)
            for batch in _poolable_batches(envs):
                indices = [index for index, _ in batch]
                collected = self._collect_round(
                    [env for _, env in batch], [streams[index] for index in indices]
                )
                for index, segment in zip(indices, collected):
                    segments[index] = segment
        buffer = RolloutBuffer()
        raw_rewards: List[float] = []
        for env, segment in zip(envs, segments):
            raw_rewards.append(float(segment.rewards.sum(axis=0).mean()))
            self.post_process_segment(segment, env)
            buffer.add(segment)
        return buffer, raw_rewards

    def train_iteration(self) -> Dict[str, float]:
        """Collect, PPO-update and run the SADAE step once; returns the metrics.

        A non-finite loss or gradient norm in either learner raises
        :class:`~repro.rl.TrainingDiverged` before any parameter moves,
        re-raised here naming the last run checkpoint to resume from.
        Logging, checkpointing and the metrics snapshot happen *after*
        the metrics dict is final, so instrumentation cannot perturb the
        values the parity tests compare run to run.
        """
        config = self.config
        try:
            with self._phase_timer("collect"):
                buffer, raw_rewards = self.collect()
            buffer.finalize(
                config.ppo.gamma,
                config.ppo.gae_lambda,
                bootstrap_last=config.ppo.bootstrap_truncated,
            )
            with self._phase_timer("update"):
                stats = self.ppo.update(buffer)
            with self._phase_timer("sadae"):
                sadae_losses = self.after_update()
        except TrainingDiverged as error:
            path = config.checkpoint_path
            if self._last_checkpoint is None:
                resume = f"no checkpoint was written (checkpoint_path={path!r})"
            else:
                resume = (
                    f"the last checkpoint, {path!r}, was written after "
                    f"{self._last_checkpoint} completed iterations"
                )
            raise TrainingDiverged(
                f"training diverged in iteration {self._iteration}: {error}; {resume}"
            ) from error
        metrics = {
            "reward": float(np.mean(raw_rewards)),
            "shaped_reward": buffer.mean_reward(),
            **stats,
        }
        # No update, no key: the mean of nothing would log NaN. A
        # non-finite SADAE loss raised TrainingDiverged above.
        if sadae_losses:
            metrics["sadae_loss"] = float(np.mean(sadae_losses))
        iteration = self._iteration
        self.logger.log(iteration, **metrics)
        self._iteration += 1
        self._m_iterations.inc()
        if (
            config.checkpoint_every > 0
            and config.checkpoint_path is not None
            and self._iteration % config.checkpoint_every == 0
        ):
            with self._phase_timer("checkpoint"):
                self.save_checkpoint(config.checkpoint_path)
            self._last_checkpoint = self._iteration
        self._write_metrics_record(iteration, metrics)
        return metrics

    def train(self, iterations: int) -> MetricLogger:
        for _ in range(iterations):
            self.train_iteration()
        return self.logger

    # Run checkpoint / resume --------------------------------------------
    @property
    def iteration(self) -> int:
        """Completed training iterations (the resume point)."""
        return self._iteration

    def checkpoint_extra_state(self) -> Dict[str, np.ndarray]:
        """Trainer-specific continuation state for run checkpoints.

        Subclasses whose sampler or learning steps carry state across
        iterations (shared env objects, replay windows, counters)
        override this — and :meth:`load_checkpoint_extra_state` — so a
        resumed run continues the unbroken trajectory. Values must be
        numpy arrays (:func:`repro.core.checkpoint.pickle_to_array`
        wraps arbitrary objects).
        """
        return {}

    def load_checkpoint_extra_state(self, state: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`checkpoint_extra_state` (no-op by default)."""

    def save_checkpoint(self, path) -> None:
        """Atomically snapshot this trainer to ``path`` (npz + CRC32)."""
        from .checkpoint import save_checkpoint

        save_checkpoint(path, self)

    def load_checkpoint(self, path) -> int:
        """Restore a snapshot saved by :meth:`save_checkpoint`.

        The trainer must be freshly built from the same config; returns
        the completed-iteration count to continue from.
        """
        from .checkpoint import load_checkpoint

        return load_checkpoint(path, self)


def sadae_step(
    sadae: SADAE,
    sets: Sequence[StateActionSet],
    config: Sim2RecConfig,
    rng: np.random.Generator,
) -> List[float]:
    """The Eq. (8) step of Algorithm 1 line 10, shared by the Sim2Rec trainers.

    Runs ``config.sadae_updates_per_iteration`` ELBO epochs, normaliser
    frozen, on ``config.sadae_sets_per_update`` sets drawn from ``sets``
    without replacement. Returns :func:`train_sadae`'s per-epoch losses,
    or ``[]`` when no update ran (no sets yet, or updates switched off).
    """
    if not sets or config.sadae_updates_per_iteration <= 0:
        return []
    count = min(config.sadae_sets_per_update, len(sets))
    indices = rng.choice(len(sets), size=count, replace=False)
    return train_sadae(
        sadae,
        [sets[i] for i in indices],
        epochs=config.sadae_updates_per_iteration,
        rng=rng,
        fit_normalizer=False,
    )


class Sim2RecDPRTrainer(PolicyTrainer):
    """Algorithm 1 on the DPR task: learned simulator ensemble + logged data."""

    def __init__(
        self,
        policy: Sim2RecPolicy,
        ensemble: SimulatorEnsemble,
        dataset: TrajectoryDataset,
        config: Sim2RecConfig,
        logger: Optional[MetricLogger] = None,
    ):
        self.ensemble = ensemble
        self.dataset = dataset
        self._filtered_logs = {}
        self._trend_results = {}
        for group in dataset.groups:
            if config.use_trend_filter:
                result = compute_trend_filter(ensemble, group)
                self._trend_results[group.group_id] = result
                self._filtered_logs[group.group_id] = filter_group_log(
                    group, result.keep_mask
                )
            else:
                self._filtered_logs[group.group_id] = group
        group_ids = list(self._filtered_logs)
        # Instance state (not a closure cell) so run checkpoints can
        # capture it: resumed runs draw the same env seeds the unbroken
        # run would have.
        self._env_seed_counter = 0

        def sampler(rng: np.random.Generator) -> MultiUserEnv:
            member = ensemble.sample_member(rng)           # M_ω ~ p(Ω)
            gid = group_ids[int(rng.integers(0, len(group_ids)))]  # g ~ p(g)
            self._env_seed_counter += 1
            return SimulatedDPREnv(
                member,
                self._filtered_logs[gid],
                truncate_horizon=config.truncate_horizon or 5,
                ensemble=ensemble if config.use_uncertainty_penalty else None,
                seed=config.seed + 40_000 + self._env_seed_counter,
            )

        super().__init__(policy, sampler, config, logger)
        self.sim2rec_policy = policy
        self._sadae_sets = dataset.state_action_sets()

    @property
    def trend_results(self):
        """Per-group intervention-test outcomes (for diagnostics/benches)."""
        return self._trend_results

    def checkpoint_extra_state(self) -> Dict[str, np.ndarray]:
        return {
            "env_seed_counter": np.array([self._env_seed_counter], dtype=np.int64)
        }

    def load_checkpoint_extra_state(self, state: Dict[str, np.ndarray]) -> None:
        self._env_seed_counter = int(
            np.asarray(state["env_seed_counter"]).ravel()[0]
        )

    def pretrain_sadae(self, epochs: Optional[int] = None) -> List[float]:
        with self._phase_timer("sadae_pretrain"):
            return train_sadae(
                self.sim2rec_policy.sadae,
                self._sadae_sets,
                epochs=epochs or self.config.sadae_pretrain_epochs,
                rng=self.rng,
            )

    def post_process_segment(self, segment: RolloutSegment, env: MultiUserEnv) -> None:
        config = self.config
        if config.use_uncertainty_penalty:
            apply_uncertainty_penalty(
                segment,
                self.ensemble,
                config.uncertainty_alpha,
                estimator=config.uncertainty_estimator,
            )
        if config.use_exec_filter and isinstance(env, SimulatedDPREnv):
            apply_exec_filter(
                segment,
                env.exec_low,
                env.exec_high,
                r_min=config.exec_r_min,
                gamma=config.ppo.gamma,
                tolerance=config.exec_tolerance,
                action_clip=(0.0, 1.0),
            )

    def after_update(self) -> List[float]:
        return sadae_step(self.sim2rec_policy.sadae, self._sadae_sets, self.config, self.rng)


def build_sim2rec_policy(
    state_dim: int,
    action_dim: int,
    config: Sim2RecConfig,
    rng: Optional[np.random.Generator] = None,
) -> Sim2RecPolicy:
    """Assemble the SADAE + extractor + context-aware policy from a config."""
    rng = rng or make_rng(config.seed)
    sadae = SADAE(state_dim, action_dim, config.sadae)
    return Sim2RecPolicy(
        state_dim,
        action_dim,
        sadae,
        rng,
        fc_sizes=config.fc_sizes,
        lstm_hidden=config.lstm_hidden,
        head_hidden=config.head_hidden,
        init_log_std=config.init_log_std,
    )
