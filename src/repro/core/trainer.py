"""Training loops: the generic simulator-set PPO trainer and Algorithm 1.

:class:`PolicyTrainer` implements the shared loop — sample an environment
from the simulator set, roll out, post-process, PPO-update — which is all
that DIRECT / DR-UNI / DR-OSI need (they differ only in policy class and
environment sampler). :class:`Sim2RecLTSTrainer` and
:class:`Sim2RecDPRTrainer` specialise it into the full Algorithm 1:

1. construct Ω' (done by the caller: LTS task sets / DEMER-style ensemble);
2. sample a simulator M_ω ~ p(Ω) and a group g ~ p(g)          (lines 4–5);
3. roll out τ with the T_c truncation                          (line 6);
4. add the uncertainty penalty r ← r − α U(s, a)               (line 8);
5. apply F_trend (user removal) and F_exec (done + R_min/(1−γ)) (line 9);
6. PPO update of (φ, π, f, q_κ) via Eq. (4) plus SADAE ELBO updates via
   Eq. (8)                                                      (line 10).
"""

from __future__ import annotations

import pickle
import time
import warnings
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..envs.base import MultiUserEnv
from ..envs.lts_tasks import LTSTask
from ..obs import JSONLMetricsSink, MetricsRegistry, PHASE_SECONDS_BUCKETS
from ..rl.buffer import RolloutBuffer, RolloutSegment
from ..rl.policies import ActorCriticBase
from ..rl.ppo import PPO
from ..rl.runner import collect_segment
from ..rl.vec import collect_segments_vec, split_rng
from ..rl.workers import ShardedVecEnvPool, sharding_available
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
from .sadae import train_sadae

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
        # and supervision counters live in a metrics registry, *never* in
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
        self._m_collect_lag = self.metrics.gauge(
            "train_collect_lag",
            "staleness of the last consumed rollout buffer in iterations "
            "(0 fresh, 1 prefetched under the pipelined contract)",
        )
        self._metrics_sink: Optional[JSONLMetricsSink] = None
        # Samplers with side effects (e.g. resampling user gaps on shared
        # env objects) need the sample→rollout interleaving of the
        # sequential path; subclasses set this to opt out of pooling.
        self._sequential_collect = False
        # Multi-process rollout workers (config.rollout_workers > 1): the
        # sharded pool is cached and its worker processes reused across
        # iterations whenever the sampled batch has the same layout.
        self._worker_pool: Optional[ShardedVecEnvPool] = None
        self._worker_pool_key: Optional[tuple] = None
        # Samplers that hand out *shared* env objects (the LTS task's
        # train envs) rely on env state continuity across iterations, so
        # worker-side state is synced back after each collection. Fresh-
        # env samplers (DPR) opt out to skip the transfer.
        self._sync_worker_envs = True
        # Worker replicas need the policy itself to cross the process
        # boundary; a policy that cannot be pickled (externally attached
        # loggers, lambdas, ...) falls back to in-process collection
        # instead of failing the run (set on first failure).
        self._replica_unpicklable = False
        # Pipelined determinism: iteration N+1's collection, launched
        # before iteration N's update. Either finished segments (the
        # launch collected synchronously, or a checkpoint drained it) or
        # an async dispatch still rolling in the worker pool.
        self._prefetch: Optional[Dict[str, Any]] = None

    def close(self) -> None:
        """Release the rollout worker processes (idempotent, exception-safe).

        The cached pool reference is dropped *before* its ``close()``
        runs, so a teardown that raises (e.g. a worker that already
        crashed) still leaves the trainer in the no-pool state and a
        second ``close()`` is always a no-op. An in-flight prefetch is
        discarded with the pool (no side effect was committed at
        dispatch, so nothing is left half-applied).
        """
        self._prefetch = None
        sink, self._metrics_sink = self._metrics_sink, None
        if sink is not None:
            sink.close()
        pool, self._worker_pool = self._worker_pool, None
        self._worker_pool_key = None
        if pool is not None:
            pool.close()

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

    def _finish_iteration(self, metrics: Dict[str, float]) -> Dict[str, float]:
        """Shared iteration epilogue: log, count, checkpoint, snapshot.

        Everything observability-related happens *after* the metrics dict
        is final, so instrumentation cannot perturb the values the
        determinism harness compares run-to-run.
        """
        config = self.config
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
        self._write_metrics_record(iteration, metrics)
        return metrics

    # Worker-pool plumbing ----------------------------------------------
    def _sharded_pool(self, envs: Sequence[MultiUserEnv], workers: int) -> ShardedVecEnvPool:
        key = (
            workers,
            tuple(env.num_users for env in envs),
            envs[0].observation_dim,
            envs[0].action_dim,
            self.config.fault_policy,
        )
        if self._worker_pool is not None and self._worker_pool.closed:
            # A crash (WorkerCrashed / WorkerStepError / StaleReplicaError)
            # closes the pool behind our back; drop the stale handle
            # instead of feeding load_envs to dead workers.
            self.close()
        if self._worker_pool is not None and key == self._worker_pool_key:
            self._worker_pool.load_envs(envs)
            return self._worker_pool
        # Layout or worker count changed since the last collect: the old
        # pool (processes + shared memory) must go before a new one
        # replaces it.
        self.close()
        self._worker_pool = ShardedVecEnvPool(
            envs, num_workers=workers, fault_policy=self.config.fault_policy
        )
        self._worker_pool.set_metrics(self.metrics)
        self._worker_pool_key = key
        return self._worker_pool

    def _replica_pool(self, envs: Sequence[MultiUserEnv]) -> Optional[ShardedVecEnvPool]:
        """The worker pool for one pooled round, policy synced; None = in-process.

        Worker replicas collect when ``config.rollout_workers > 1`` and
        the round has more than one env. A policy that cannot be pickled
        warns once, closes the worker pool and leaves the rest of the run
        in-process — bit-identical, just not parallel. The broadcast
        ships the policy as it stands now, so a pipelined launch hands
        the workers the pre-update weights: the stale-by-one contract.
        """
        workers = min(self.config.rollout_workers, len(envs))
        if workers <= 1 or self._replica_unpicklable or not sharding_available():
            if self._worker_pool is not None:
                # rollout_workers changed to an in-process setting
                # between collects: the cached pool would otherwise leak
                # its worker processes.
                self.close()
            return None
        pool = self._sharded_pool(envs, workers)
        try:
            pool.sync_policy(self.policy)
        except (TypeError, AttributeError, pickle.PicklingError) as error:
            if pool.replica_version != 0:
                raise  # a previously-syncable policy failing is a real bug
            warnings.warn(
                f"policy cannot be shipped to rollout workers ({error!r}); "
                "collecting in-process for the rest of this run",
                RuntimeWarning,
                stacklevel=3,
            )
            self._replica_unpicklable = True
            self.close()
            return None
        return pool

    def _pull_worker_envs(
        self, envs: Sequence[MultiUserEnv], pool: ShardedVecEnvPool
    ) -> None:
        """Copy the workers' advanced env state into the parent's objects.

        Samplers that reuse envs across iterations (RNG streams, episode
        state) stay bit-identical to in-process runs; fresh-env samplers
        opt out via ``_sync_worker_envs`` to skip the transfer.
        """
        if self._sync_worker_envs:
            for mine, theirs in zip(envs, pool.fetch_member_envs()):
                vars(mine).update(vars(theirs))

    def _dispatch_round(
        self, envs: List[MultiUserEnv], streams: List[np.random.Generator]
    ) -> Dict[str, Any]:
        """Start one pooled rollout round and return its pending collect.

        The single place that picks the pool: worker replicas get the
        rollout dispatched asynchronously (``_wait_collect`` gathers it),
        the in-process pool collects right here.
        """
        pool = self._replica_pool(envs)
        if pool is None:
            segments = collect_segments_vec(
                envs, self.policy, streams, max_steps=self.config.truncate_horizon
            )
            return {"envs": envs, "segments": segments, "pool": None}
        pool.collect_rollouts_async(streams, max_steps=self.config.truncate_horizon)
        return {"envs": envs, "segments": None, "pool": pool}

    # Hooks specialised by Sim2Rec trainers ------------------------------
    def post_process_segment(self, segment: RolloutSegment, env: MultiUserEnv) -> None:
        """Reward/done post-processing before GAE (Alg. 1 lines 8–9)."""

    def after_update(self) -> None:
        """Extra learning steps after PPO (the Eq. 8 SADAE update)."""

    # The collect schedule: sample -> dispatch -> wait -> post-process --
    def collect(self) -> Tuple[RolloutBuffer, List[float]]:
        """Sample simulators and roll the policy out in each (Alg. 1 l. 4–6).

        ``config.rollout_workers`` <= 1 drives the iteration's simulators
        together through one in-process
        :class:`~repro.rl.vec.VecEnvPool`; > 1 shards them across a
        :class:`~repro.rl.workers.ShardedVecEnvPool` whose workers roll
        out with policy replicas — bit-identical segments either way.
        Environments that cannot share a pool (duplicate objects from
        samplers that reuse env instances, or mismatched state/action
        dims) fall back to additional pool rounds or single-env
        rollouts, and samplers with side effects roll simulators one at
        a time. This is the pipelined schedule with no lag:
        ``_finish_collect(_begin_collect())``.
        """
        return self._finish_collect(self._begin_collect())

    def _collect_batches(
        self,
        envs: Sequence[MultiUserEnv],
        streams: List[np.random.Generator],
        batches: List[List[Tuple[int, MultiUserEnv]]],
    ) -> List[RolloutSegment]:
        """Collect one segment per sampled env, pool round by pool round."""
        segments: List[Optional[RolloutSegment]] = [None] * len(envs)
        for batch in batches:
            if len(batch) == 1:
                index, env = batch[0]
                segments[index] = collect_segment(
                    env,
                    self.policy,
                    streams[index],
                    max_steps=self.config.truncate_horizon,
                )
            else:
                indices = [index for index, _ in batch]
                pending = self._dispatch_round(
                    [env for _, env in batch],
                    [streams[index] for index in indices],
                )
                self._wait_collect(pending)
                for index, segment in zip(indices, pending["segments"]):
                    segments[index] = segment
        return segments

    def _begin_collect(self) -> Dict[str, Any]:
        """Sample this collection's simulators and start collecting.

        The launch half of the collect schedule: every RNG draw that
        shapes the collection (env sampling, stream splitting) happens
        here, so the trajectory is fixed at launch time no matter when —
        or where — the rollouts actually run. When the iteration is one
        pooled round over several envs and worker replicas are in use,
        the rollout is dispatched asynchronously and the returned pending
        holds the live pool; every other setup (sequential/interleaved
        samplers, in-process pools, multi-round batches) collects right
        here, which executes the *same* schedule without overlap —
        trajectories are therefore identical across worker counts.
        """
        config = self.config
        if self._sequential_collect:
            envs: List[MultiUserEnv] = []
            segments: List[RolloutSegment] = []
            for _ in range(config.segments_per_iteration):
                env = self.env_sampler(self.rng)
                envs.append(env)
                segments.append(
                    collect_segment(
                        env, self.policy, self.rng, max_steps=config.truncate_horizon
                    )
                )
            return {"envs": envs, "segments": segments, "pool": None}
        envs = [self.env_sampler(self.rng) for _ in range(config.segments_per_iteration)]
        streams = split_rng(self.rng, len(envs))
        batches = _poolable_batches(envs)
        if len(batches) == 1 and len(envs) > 1:
            return self._dispatch_round(envs, streams)
        return {
            "envs": envs,
            "segments": self._collect_batches(envs, streams, batches),
            "pool": None,
        }

    def _wait_collect(self, pending: Dict[str, Any]) -> None:
        """Resolve an in-flight pending collect to finished segments, in place.

        Commits exactly the side effects the synchronous path would
        have: the workers' advanced env state is synced back into the
        parent's objects (when the sampler shares them) and the pool's
        owner-RNG/snapshot bookkeeping is applied by
        ``collect_rollouts_wait`` itself.
        """
        pool = pending["pool"]
        if pool is None:
            return
        segments = pool.collect_rollouts_wait()
        self._pull_worker_envs(pending["envs"], pool)
        pending["segments"] = segments
        pending["pool"] = None

    def _finish_collect(
        self, pending: Dict[str, Any]
    ) -> Tuple[RolloutBuffer, List[float]]:
        """Wait on a pending collect and post-process it into a buffer."""
        self._wait_collect(pending)
        buffer = RolloutBuffer()
        raw_rewards: List[float] = []
        for env, segment in zip(pending["envs"], pending["segments"]):
            raw_rewards.append(float(segment.rewards.sum(axis=0).mean()))
            self.post_process_segment(segment, env)
            buffer.add(segment)
        return buffer, raw_rewards

    # Pipelined determinism (config.determinism == "pipelined") ----------
    def drain_prefetch(self) -> Optional[Dict[str, Any]]:
        """Resolve an in-flight prefetch to finished segments, in place.

        Called before a checkpoint is taken: waiting now (instead of at
        the next ``train_iteration``) commits exactly the side effects
        the next consume would have committed — worker env state synced
        back, pool RNG streams advanced — so the snapshot captures a
        state bit-identical to the unbroken run's, and the stashed
        segments let the resumed trainer consume the collect without
        re-running it (post-processing still happens at consume time).
        Returns the drained prefetch, or None when nothing is pending.
        A failed wait discards the prefetch before propagating.
        """
        pending = self._prefetch
        if pending is None:
            return None
        try:
            self._wait_collect(pending)
        except BaseException:
            self._prefetch = None
            raise
        return pending

    def _train_iteration_pipelined(self) -> Dict[str, float]:
        """One pipelined iteration: consume prefetch N, launch N+1, update N.

        The buffer consumed here was collected against the policy as it
        stood *before* the previous iteration's update — staleness
        exactly one iteration (zero only at iteration 0, when the
        collect is fresh). The next iteration's collection is dispatched
        before this iteration's update, so the workers roll while the
        parent learns. ``collect_lag`` in the returned metrics records
        how stale the consumed buffer was (0.0 fresh / 1.0 prefetched).
        """
        config = self.config
        pending, self._prefetch = self._prefetch, None
        lag = 1.0
        if pending is None:
            lag = 0.0
            pending = self._begin_collect()
        with self._phase_timer("collect"):
            buffer, raw_rewards = self._finish_collect(pending)
        with self._phase_timer("collect_dispatch"):
            self._prefetch = self._begin_collect()
        self._m_collect_lag.set(lag)
        buffer.finalize(
            config.ppo.gamma,
            config.ppo.gae_lambda,
            bootstrap_last=config.ppo.bootstrap_truncated,
        )
        with self._phase_timer("update"):
            stats = self.ppo.update(buffer)
        with self._phase_timer("sadae"):
            self.after_update()
        metrics = {
            "reward": float(np.mean(raw_rewards)),
            "shaped_reward": buffer.mean_reward(),
            "collect_lag": lag,
            **stats,
        }
        return self._finish_iteration(metrics)

    def train_iteration(self) -> Dict[str, float]:
        config = self.config
        if config.resolved_determinism() == "pipelined":
            return self._train_iteration_pipelined()
        with self._phase_timer("collect"):
            buffer, raw_rewards = self.collect()
        self._m_collect_lag.set(0.0)
        buffer.finalize(
            config.ppo.gamma,
            config.ppo.gae_lambda,
            bootstrap_last=config.ppo.bootstrap_truncated,
        )
        with self._phase_timer("update"):
            stats = self.ppo.update(buffer)
        with self._phase_timer("sadae"):
            self.after_update()
        metrics = {
            "reward": float(np.mean(raw_rewards)),
            "shaped_reward": buffer.mean_reward(),
            **stats,
        }
        return self._finish_iteration(metrics)

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


def env_population_extra_state(
    envs: Sequence[MultiUserEnv],
    recent_sets: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]],
) -> Dict[str, np.ndarray]:
    """Checkpoint payload for trainers over a shared env population.

    Captures the env objects whole (their internal RNG generators and
    episode state travel inside the pickle) plus the SADAE replay
    window. Shared by the LTS and scenario trainers.
    """
    from .checkpoint import pickle_to_array

    return {
        "train_envs": pickle_to_array(list(envs)),
        "recent_sets": pickle_to_array(list(recent_sets)),
    }


def load_env_population_extra_state(
    envs: Sequence[MultiUserEnv], state: Dict[str, np.ndarray]
) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Restore :func:`env_population_extra_state` **into** ``envs``.

    The checkpointed env states are written into the existing objects
    (``vars`` update) rather than replacing them — the sampler closure
    and any cached pool hold references to these exact objects. Returns
    the restored replay window.
    """
    from .checkpoint import unpickle_array

    saved = unpickle_array(state["train_envs"])
    if len(saved) != len(envs):
        raise ValueError(
            f"checkpoint has {len(saved)} training envs, trainer has "
            f"{len(envs)} — config mismatch"
        )
    for mine, theirs in zip(envs, saved):
        vars(mine).update(vars(theirs))
    return unpickle_array(state["recent_sets"])


class Sim2RecLTSTrainer(PolicyTrainer):
    """Algorithm 1 on the LTS task sets (predefined parameter space Ω).

    The LTS simulators are exact environment variants, so the data-driven
    error countermeasures stay off; the trainer adds SADAE ELBO updates on
    the state sets observed during rollouts and supports the Fig. 7
    "unlimited-user" mode that resamples per-user gaps each draw.
    """

    def __init__(
        self,
        policy: Sim2RecPolicy,
        task: LTSTask,
        config: Sim2RecConfig,
        resample_users: bool = False,
        logger: Optional[MetricLogger] = None,
    ):
        self.task = task
        self.resample_users = resample_users
        self._train_envs = task.make_train_envs()
        self._recent_sets: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []

        def sampler(rng: np.random.Generator) -> MultiUserEnv:
            env = self._train_envs[int(rng.integers(0, len(self._train_envs)))]
            if self.resample_users:
                env.resample_user_gaps()
            return env

        super().__init__(policy, sampler, config, logger)
        self.sim2rec_policy = policy
        # The unlimited-user mode resamples gaps on *shared* env objects at
        # sample time; batching samples up front would let a later resample
        # overwrite an earlier one before its rollout runs. Keep the
        # sequential sample→rollout interleaving in that mode.
        self._sequential_collect = resample_users

    def pretrain_sadae(self, epochs: Optional[int] = None, users_per_set: int = 200) -> List[float]:
        """Fit q_κ/p_θ on state sets drawn from the training simulators."""
        sets = collect_lts_state_sets(
            self.task, users_per_set=users_per_set, rng=self.rng
        )
        with self._phase_timer("sadae_pretrain"):
            return train_sadae(
                self.sim2rec_policy.sadae,
                sets,
                epochs=epochs or self.config.sadae_pretrain_epochs,
                rng=self.rng,
                batched=self.config.batched_sadae,
            )

    def post_process_segment(self, segment: RolloutSegment, env: MultiUserEnv) -> None:
        for t in range(0, segment.horizon, max(segment.horizon // 4, 1)):
            self._recent_sets.append((segment.states[t], None))
        self._recent_sets = self._recent_sets[-64:]

    def checkpoint_extra_state(self) -> Dict[str, np.ndarray]:
        return env_population_extra_state(self._train_envs, self._recent_sets)

    def load_checkpoint_extra_state(self, state: Dict[str, np.ndarray]) -> None:
        self._recent_sets = load_env_population_extra_state(self._train_envs, state)

    def after_update(self) -> None:
        if not self._recent_sets or self.config.sadae_updates_per_iteration <= 0:
            return
        count = min(self.config.sadae_sets_per_update, len(self._recent_sets))
        indices = self.rng.choice(len(self._recent_sets), size=count, replace=False)
        sets = [self._recent_sets[i] for i in indices]
        train_sadae(
            self.sim2rec_policy.sadae,
            sets,
            epochs=self.config.sadae_updates_per_iteration,
            rng=self.rng,
            fit_normalizer=False,
            batched=self.config.batched_sadae,
        )


def collect_lts_state_sets(
    task: LTSTask,
    users_per_set: int = 200,
    steps_per_env: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Build the SADAE training corpus: state sets from every LTS simulator.

    Mirrors the paper's setup ("we draw 1000 users for each simulator ...
    to the constructed state dataset D"): each simulator contributes its
    observed group state sets under random actions.
    """
    rng = rng or make_rng(0)
    sets: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []
    for index in range(task.num_simulators):
        env = task.make_train_env(index)
        if users_per_set != env.num_users:
            from ..envs.lts import LTSConfig, LTSEnv

            env = LTSEnv(
                LTSConfig(
                    num_users=users_per_set,
                    horizon=steps_per_env,
                    omega_g=float(task.train_omega_gs[index]),
                    omega_u_range=task.beta,
                    observation_noise_std=task.observation_noise_std,
                    seed=task.seed + 3000 + index,
                )
            )
        states = env.reset()
        sets.append((states.copy(), None))
        for _ in range(steps_per_env - 1):
            actions = rng.random((env.num_users, 1))
            states, _, _, _ = env.step(actions)
            sets.append((states.copy(), None))
    return sets


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
        # The sampler builds a fresh SimulatedDPREnv per draw — nothing
        # outlives its iteration, so skip the worker-state sync transfer.
        self._sync_worker_envs = False

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
                batched=self.config.batched_sadae,
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

    def after_update(self) -> None:
        if self.config.sadae_updates_per_iteration <= 0:
            return
        count = min(self.config.sadae_sets_per_update, len(self._sadae_sets))
        indices = self.rng.choice(len(self._sadae_sets), size=count, replace=False)
        sets = [self._sadae_sets[i] for i in indices]
        train_sadae(
            self.sim2rec_policy.sadae,
            sets,
            epochs=self.config.sadae_updates_per_iteration,
            rng=self.rng,
            fit_normalizer=False,
            batched=self.config.batched_sadae,
        )


def build_sim2rec_policy(
    state_dim: int,
    action_dim: int,
    config: Sim2RecConfig,
    rng: Optional[np.random.Generator] = None,
) -> Sim2RecPolicy:
    """Assemble the SADAE + extractor + context-aware policy from a config."""
    from .sadae import SADAE

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
