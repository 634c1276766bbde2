"""Sharded worker pools: protocol, param sync and failure paths.

The bitwise-equivalence contract (shard-parallel collection reproduces
the sequential ``collect_segment`` loop for any shard layout) is
enforced by the cross-mode parity suite in ``test_rollout_parity.py``.
This module keeps what is specific to the worker machinery: the pool
protocol (load/fetch, worker clamping, the parent-side stepping paths
it refuses), the policy-replica mailbox (version stamps, oversized
broadcasts, structure changes) and the operational guarantees — a
crashed worker raises instead of hanging, stale replicas are refused,
and shared memory never leaks.
"""

import os
import signal
import sys
import warnings

import numpy as np
import pytest

from repro.envs import DPRConfig, DPRWorld, LTSConfig, LTSEnv
from repro.rl import (
    MLPActorCritic,
    RecurrentActorCritic,
    ShardedVecEnvPool,
    StaleReplicaError,
    WorkerCrashed,
    WorkerStepError,
    collect_rollout_mode,
    collect_segment,
    collect_segments_vec,
    evaluate,
    sharding_available,
)
from repro.rl.parity import SEGMENT_FIELDS, assert_segments_identical
from repro.rl.workers import partition_contiguous

pytestmark = pytest.mark.skipif(
    not sharding_available(), reason="platform has no multiprocessing start method"
)


def make_world(**kwargs) -> DPRWorld:
    defaults = dict(num_cities=5, drivers_per_city=7, horizon=6, seed=3)
    defaults.update(kwargs)
    return DPRWorld(DPRConfig(**defaults))


def make_policy(**kwargs):
    defaults = dict(lstm_hidden=16, head_hidden=(32,))
    defaults.update(kwargs)
    return RecurrentActorCritic(13, 2, np.random.default_rng(0), **defaults)


def rngs_for(count: int, seed: int):
    return [np.random.default_rng(seed + i) for i in range(count)]


def assert_collects_identical(expected, got):
    """Two trainer ``collect()`` results: same raw rewards, same segments."""
    (buffer_a, rewards_a), (buffer_b, rewards_b) = expected, got
    assert rewards_a == rewards_b
    for seg_a, seg_b in zip(buffer_a.segments, buffer_b.segments):
        for name in SEGMENT_FIELDS:
            np.testing.assert_array_equal(
                getattr(seg_a, name), getattr(seg_b, name), err_msg=name
            )


class TestPoolProtocol:
    def test_pool_reports_member_layout(self):
        """The stacked user axis and its per-env / per-worker blocks."""
        world = make_world(num_cities=4, drivers_per_city=10)
        with ShardedVecEnvPool(world.make_all_city_envs(), num_workers=2) as pool:
            assert (pool.num_envs, pool.num_workers, pool.num_users) == (4, 2, 40)
            assert pool.group_id == [0, 1, 2, 3]
            assert [(s.start, s.stop) for s in pool.slices] == [
                (0, 10), (10, 20), (20, 30), (30, 40)
            ]
            assert [(s.start, s.stop) for s in pool.shards] == [(0, 2), (2, 4)]

    def test_parent_side_collect_is_refused(self):
        """The pool never steps from the parent: the in-process collector
        rejects it and names the worker-side replacement."""
        policy = MLPActorCritic(13, 2, np.random.default_rng(4), hidden_sizes=(8,))
        with ShardedVecEnvPool(make_world(num_cities=2).make_all_city_envs()) as pool:
            with pytest.raises(TypeError, match="collect_rollouts"):
                collect_segments_vec(pool, policy, np.random.default_rng(0))
            assert not pool.closed

    @pytest.mark.parametrize("mode", ["auto", "solo", "vec"])
    def test_act_fn_evaluate_is_refused(self, mode):
        """Only a policy can be evaluated worker-side; a bare act_fn (or a
        forced act_fn mode) raises and names the replica call."""
        policy = make_policy()
        with ShardedVecEnvPool(make_world(num_cities=3).make_all_city_envs()) as pool:
            with pytest.raises(TypeError, match=r"evaluate\(policy, pool\)"):
                evaluate(policy.as_act_fn(np.random.default_rng(0)), pool, mode=mode)
            if mode != "auto":
                with pytest.raises(TypeError, match=r"evaluate\(policy, pool\)"):
                    evaluate(policy, pool, mode=mode)
            assert pool.replica_version == 0  # nothing was broadcast

    def test_workers_clamped_to_env_count(self):
        world = make_world(num_cities=3)
        policy = make_policy()
        with ShardedVecEnvPool(world.make_all_city_envs(), num_workers=8) as pool:
            assert pool.num_workers == 3
            pool.sync_policy(policy)
            assert len(pool.collect_rollouts(rngs_for(3, 0))) == 3

    def test_rejects_duplicates_and_dim_mismatch(self):
        world = make_world(num_cities=2)
        env = world.make_city_env(0)
        with pytest.raises(ValueError, match="distinct"):
            ShardedVecEnvPool([env, env], num_workers=2)
        lts = LTSEnv(LTSConfig(num_users=5, horizon=4, seed=0))
        with pytest.raises(ValueError, match="observation dimension"):
            ShardedVecEnvPool([world.make_city_env(0), lts], num_workers=2)

    def test_partition_contiguous_balances_users(self):
        shards = partition_contiguous([3, 9, 5, 7, 4], 2)
        assert shards == [slice(0, 3), slice(3, 5)]  # 17 vs 11 users
        shards = partition_contiguous([10, 1, 1, 1, 1], 3)
        assert shards[0] == slice(0, 1)  # the heavy env gets its own shard
        assert [s.stop for s in shards][-1] == 5
        # every worker keeps at least one env even under extreme skew
        assert all(s.stop > s.start for s in partition_contiguous([100, 1, 1], 3))

    def test_load_envs_reuses_workers(self):
        world_a, world_b = make_world(seed=3), make_world(seed=99)
        policy = RecurrentActorCritic(
            13, 2, np.random.default_rng(7), lstm_hidden=16, head_hidden=(32,)
        )
        rngs = lambda: [np.random.default_rng(60 + i) for i in range(5)]  # noqa: E731
        seq = [
            collect_segment(env, policy, rng)
            for env, rng in zip(world_b.make_all_city_envs(), rngs())
        ]
        with ShardedVecEnvPool(world_a.make_all_city_envs(), num_workers=2) as pool:
            pool.sync_policy(policy)
            pool.collect_rollouts(rngs_for(5, 0))
            pids = [proc.pid for proc in pool._procs]
            pool.load_envs(world_b.make_all_city_envs())
            assert [proc.pid for proc in pool._procs] == pids  # same processes
            collected = pool.collect_rollouts(rngs())
        assert_segments_identical(seq, collected)

    def test_load_envs_rejects_layout_mismatch(self):
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            with pytest.raises(ValueError, match="user counts"):
                pool.load_envs(make_world(drivers_per_city=9).make_all_city_envs())

    def test_fetch_member_envs_returns_advanced_state(self):
        """Worker-side env state (RNG streams) round-trips to the parent."""
        policy = RecurrentActorCritic(
            13, 2, np.random.default_rng(8), lstm_hidden=16, head_hidden=(32,)
        )
        reference = make_world().make_all_city_envs()
        for i, env in enumerate(reference):
            collect_segment(env, policy, np.random.default_rng(80 + i))
        parents = make_world().make_all_city_envs()
        with ShardedVecEnvPool(parents, num_workers=2) as pool:
            pool.sync_policy(policy)
            pool.collect_rollouts(rngs_for(5, 80))
            fetched = pool.fetch_member_envs()
        for mine, theirs in zip(parents, fetched):
            vars(mine).update(vars(theirs))
        # a further sequential episode matches envs that never left process
        for i, (ref, mine) in enumerate(zip(reference, parents)):
            a = collect_segment(ref, policy, np.random.default_rng(90 + i))
            b = collect_segment(mine, policy, np.random.default_rng(90 + i))
            np.testing.assert_array_equal(a.states, b.states)
            np.testing.assert_array_equal(a.rewards, b.rewards)


def shm_segment_exists(name: str):
    """Whether the named POSIX shm segment exists; None when the platform
    doesn't expose segments as files (macOS) — callers skip the assert."""
    if not sys.platform.startswith("linux"):
        return None
    return os.path.exists(f"/dev/shm/{name.lstrip('/')}")


class _ExplodingEnv(LTSEnv):
    """Raises from step() on command — exercises error forwarding."""

    def __init__(self, *args, explode_at=2, **kwargs):
        super().__init__(*args, **kwargs)
        self.explode_at = explode_at
        self._step_calls = 0

    def step(self, actions):
        self._step_calls += 1
        if self._step_calls >= self.explode_at:
            raise RuntimeError("boom from the worker side")
        return super().step(actions)


class TestParamSyncFailures:
    """Failure injection for the policy-replica broadcast protocol."""

    def test_crash_mid_broadcast_raises_and_unlinks(self):
        """A worker SIGKILLed before answering sync_policy: the broadcast
        raises WorkerCrashed instead of hanging, the pool closes, shm
        is released."""
        policy = make_policy()
        pool = ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2)
        try:
            pool.sync_policy(policy)
            pool.collect_rollouts(rngs_for(5, 0))  # allocates the segment
            name = pool._traj_shm.name
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            policy.parameters()[0].data += 1e-6  # a real re-broadcast
            with pytest.raises(WorkerCrashed, match="worker 1"):
                pool.sync_policy(policy)
            assert pool.closed
            assert shm_segment_exists(name) is not True
        finally:
            pool.close()  # idempotent

    def test_stale_version_stamp_raises_cleanly(self):
        """A collect whose stamp disagrees with the workers' replica
        version must refuse to roll out old weights: StaleReplicaError,
        no hang, pool closed, shared memory unlinked."""
        pool = ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2)
        try:
            pool.sync_policy(make_policy())
            pool._replica_version += 1  # desync the stamp
            with pytest.raises(StaleReplicaError, match="version 1"):
                pool.collect_rollouts([np.random.default_rng(i) for i in range(5)])
            assert pool.closed
            assert shm_segment_exists(pool._traj_shm.name) is not True
        finally:
            pool.close()

    def test_collect_before_sync_raises_and_pool_survives(self):
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            with pytest.raises(RuntimeError, match="sync_policy"):
                pool.collect_rollouts([np.random.default_rng(i) for i in range(5)])
            # parent-side validation only: the pool is still fully usable
            assert not pool.closed
            pool.sync_policy(make_policy())
            segments = pool.collect_rollouts(
                [np.random.default_rng(i) for i in range(5)]
            )
            assert len(segments) == 5

    def test_oversized_state_dict_raises_before_sending(self):
        """An over-limit replica_state raises ValueError without touching
        the workers; the pool stays open, and close() leaves no segment."""
        pool = ShardedVecEnvPool(
            make_world().make_all_city_envs(), num_workers=2, max_param_bytes=1024
        )
        try:
            with pytest.raises(ValueError, match="max_param_bytes"):
                pool.sync_policy(make_policy())
            assert not pool.closed
            assert pool.replica_version == 0  # nothing was broadcast
            # still usable despite the refused broadcast
            pool.max_param_bytes = 1 << 30
            pool.sync_policy(make_policy())
            assert len(pool.collect_rollouts(rngs_for(5, 0))) == 5
        finally:
            pool.close()
        assert shm_segment_exists(pool._traj_shm.name) is not True

    def test_structure_change_ships_fresh_replica(self):
        """Re-syncing a differently-shaped policy falls back to the full
        object broadcast (state-only archives cannot change structure)."""
        small = make_policy()
        large = make_policy(lstm_hidden=32)
        rngs = lambda: [np.random.default_rng(500 + i) for i in range(5)]  # noqa: E731
        reference = [
            collect_segment(env, large, rng)
            for env, rng in zip(make_world().make_all_city_envs(), rngs())
        ]
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            assert pool.sync_policy(small) == 1
            assert pool.sync_policy(large) == 2  # structure change: version 2
            collected = pool.collect_rollouts(rngs())
        assert_segments_identical(reference, collected, label="structure_change")

    def test_one_shot_convenience_builds_and_closes_pool(self):
        policy = make_policy()
        rngs = lambda: [np.random.default_rng(600 + i) for i in range(5)]  # noqa: E731
        reference = [
            collect_segment(env, policy, rng)
            for env, rng in zip(make_world().make_all_city_envs(), rngs())
        ]
        collected = collect_rollout_mode(
            "shard_parallel", make_world().make_all_city_envs(), policy, rngs(), num_workers=2
        )
        assert_segments_identical(reference, collected, label="one_shot")


class TestReplicaResendSkip:
    """Unchanged policies are not re-broadcast (no pipe traffic at all)."""

    def test_unchanged_policy_skips_the_broadcast(self):
        policy = make_policy()
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            assert pool.sync_policy(policy) == 1
            assert pool.replica_broadcasts == 1
            # Same structure, byte-identical state: nothing is sent and
            # the version stamp does not move.
            assert pool.sync_policy(policy) == 1
            assert pool.sync_policy(policy) == 1
            assert pool.replica_broadcasts == 1
            # The workers' stamp still matches, so collection proceeds.
            segments = pool.collect_rollouts(
                [np.random.default_rng(700 + i) for i in range(5)]
            )
            assert len(segments) == 5

    def test_skipped_sync_collections_stay_bit_identical(self):
        """Collecting after a skipped re-sync uses the replicas already in
        the workers — and those are exact, so segments still match the
        sequential reference."""
        policy = make_policy()
        rngs = lambda: [np.random.default_rng(710 + i) for i in range(5)]  # noqa: E731
        reference = [
            collect_segment(env, policy, rng)
            for env, rng in zip(make_world().make_all_city_envs(), rngs())
        ]
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            pool.sync_policy(policy)
            pool.sync_policy(policy)  # skipped
            collected = pool.collect_rollouts(rngs())
        assert_segments_identical(reference, collected, label="skip_resend")

    def test_changed_parameters_do_resend(self):
        policy = make_policy()
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            assert pool.sync_policy(policy) == 1
            policy.parameters()[0].data += 1e-6  # a real update
            assert pool.sync_policy(policy) == 2
            assert pool.replica_broadcasts == 2
            # ... and a revert is also a change relative to the cache.
            policy.parameters()[0].data -= 1e-6
            assert pool.sync_policy(policy) == 3
            assert pool.replica_broadcasts == 3

    def test_trainer_iterations_only_broadcast_on_updates(self):
        """The training loop's per-iteration sync_policy only ships bytes
        when PPO actually moved the parameters: back-to-back collect()
        calls (no update in between) reuse the workers' replica."""
        from repro.core import PolicyTrainer, lts_small_config
        from repro.envs import make_lts_task

        config = lts_small_config(seed=0)
        config.rollout_workers = 2
        config.segments_per_iteration = 3
        task = make_lts_task("LTS3", num_users=6, horizon=5, seed=0)
        envs = task.make_train_envs()[:3]
        draws = iter(range(10_000))

        def round_robin(rng):  # deterministic layout: the pool is reused
            return envs[next(draws) % len(envs)]

        policy = MLPActorCritic(2, 1, np.random.default_rng(0), hidden_sizes=(8,))
        with PolicyTrainer(policy, round_robin, config) as trainer:
            trainer.collect()
            pool = trainer._worker_pool
            first = pool.replica_broadcasts
            trainer.collect()  # same parameters: no re-send
            assert trainer._worker_pool is pool
            assert pool.replica_broadcasts == first
            trainer.train_iteration()  # collect (no re-send yet) + PPO update
            trainer.collect()          # params moved: this collect re-sends
            assert trainer._worker_pool is pool
            assert pool.replica_broadcasts > first


class TestFailurePaths:
    def test_worker_crash_raises_instead_of_hanging(self):
        world = make_world(num_cities=4)
        pool = ShardedVecEnvPool(world.make_all_city_envs(), num_workers=2)
        try:
            pool.sync_policy(make_policy())
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashed, match="worker 1"):
                pool.collect_rollouts(rngs_for(4, 0))
            assert pool.closed  # crash tears the pool down
            # shared memory is gone even though close() ran via the crash path
            assert shm_segment_exists(pool._traj_shm.name) is not True
        finally:
            pool.close()  # idempotent

    def test_env_exception_forwarded_with_traceback(self):
        envs = [
            _ExplodingEnv(LTSConfig(num_users=3, horizon=6, seed=i), explode_at=2)
            for i in range(2)
        ]
        # only meaningful under fork (local classes don't survive spawn pickling)
        if not sharding_available("fork"):
            pytest.skip("needs fork start method")
        policy = MLPActorCritic(2, 1, np.random.default_rng(4), hidden_sizes=(8,))
        with ShardedVecEnvPool(envs, num_workers=2, start_method="fork") as pool:
            pool.sync_policy(policy)
            with pytest.raises(WorkerStepError, match="boom from the worker side"):
                pool.collect_rollouts(rngs_for(2, 0))
            # the worker's sub-pool state is unreliable after an env error,
            # so the pool refuses further use
            assert pool.closed

    def test_close_unlinks_shared_memory(self):
        world = make_world(num_cities=2)
        pool = ShardedVecEnvPool(world.make_all_city_envs(), num_workers=2)
        pool.sync_policy(make_policy())
        pool.collect_rollouts(rngs_for(2, 0))
        name = pool._traj_shm.name
        assert shm_segment_exists(name) is not False
        pool.close()
        assert shm_segment_exists(name) is not True
        pool.close()  # double close is a no-op
        with pytest.raises(RuntimeError, match="closed"):
            pool.collect_rollouts(rngs_for(2, 0))

    def test_resource_tracker_starts_before_the_workers(self, monkeypatch):
        """Construction alone starts the tracker, ahead of every worker."""
        from multiprocessing import resource_tracker

        events = []
        ensure_running = resource_tracker.ensure_running
        spawn_worker = ShardedVecEnvPool._spawn_worker

        def record_tracker():
            events.append("tracker")
            ensure_running()

        def record_worker(pool, *args, **kwargs):
            events.append("worker")
            spawn_worker(pool, *args, **kwargs)

        monkeypatch.setattr(resource_tracker, "ensure_running", record_tracker)
        monkeypatch.setattr(ShardedVecEnvPool, "_spawn_worker", record_worker)
        with ShardedVecEnvPool(make_world(num_cities=2).make_all_city_envs(), num_workers=2):
            pass
        assert events == ["tracker", "worker", "worker"]

    def test_terminated_workers_still_clean_up(self):
        """SIGTERM'd workers (the Ctrl-C path) leave no segment behind."""
        world = make_world(num_cities=2)
        pool = ShardedVecEnvPool(world.make_all_city_envs(), num_workers=2)
        pool.sync_policy(make_policy())
        pool.collect_rollouts(rngs_for(2, 0))
        name = pool._traj_shm.name
        for proc in pool._procs:
            proc.terminate()
        pool.close()
        assert shm_segment_exists(name) is not True


class TestTrainerIntegration:
    def _make_trainer(self, workers: int):
        from repro.core import Sim2RecLTSTrainer, build_sim2rec_policy, lts_small_config
        from repro.envs import make_lts_task

        config = lts_small_config(seed=0)
        config.rollout_workers = workers
        config.segments_per_iteration = 3
        task = make_lts_task("LTS3", num_users=8, horizon=6, seed=0)
        policy = build_sim2rec_policy(2, 1, config)
        return Sim2RecLTSTrainer(policy, task, config)

    def test_trainer_collect_bitwise_matches_in_process(self):
        """rollout_workers=2 reproduces the in-process run across multiple
        iterations — the fetch/sync path keeps the shared task envs'
        state continuity intact."""
        base = self._make_trainer(workers=1)
        sharded = self._make_trainer(workers=2)
        try:
            for _ in range(2):
                assert_collects_identical(base.collect(), sharded.collect())
            assert sharded._worker_pool is not None  # pool reused, not rebuilt
        finally:
            base.close()
            sharded.close()
        assert sharded._worker_pool is None

    def test_worker_count_changes_between_collects(self):
        """Dropping rollout_workers to 1 closes the worker pool and raising
        it again builds a new one; every collect matches the in-process
        run, so the parent's envs carried the workers' state across."""
        base = self._make_trainer(workers=1)
        trainer = self._make_trainer(workers=2)
        try:
            pools = []
            for workers in (2, 1, 2):
                trainer.config.rollout_workers = workers
                got = trainer.collect()
                pools.append(trainer._worker_pool)
                assert_collects_identical(base.collect(), got)
            assert pools[0] is not None and pools[0].closed
            assert pools[1] is None
            assert pools[2] is not None and pools[2] is not pools[0]
        finally:
            base.close()
            trainer.close()

    def test_more_workers_than_envs_is_clamped(self):
        """rollout_workers above the batch size runs one worker per env."""
        base = self._make_trainer(workers=1)
        trainer = self._make_trainer(workers=8)
        try:
            assert_collects_identical(base.collect(), trainer.collect())
            pool = trainer._worker_pool
            assert pool is not None
            assert pool.num_workers <= trainer.config.segments_per_iteration
        finally:
            base.close()
            trainer.close()

    def test_unpicklable_policy_falls_back_in_process(self):
        """A policy that cannot cross the process boundary (externally
        attached lambdas etc.) must not break rollout_workers > 1: the
        trainer warns once, closes the worker pool and collects
        in-process — bit-identically to rollout_workers=1."""
        base = self._make_trainer(workers=1)
        trainer = self._make_trainer(workers=2)
        trainer.policy._attached_hook = lambda x: x  # unpicklable member
        try:
            with pytest.warns(RuntimeWarning, match="in-process"):
                buffer, rewards = trainer.collect()
            assert trainer._replica_unpicklable
            assert trainer._worker_pool is None  # worker pool closed
            batches = [(buffer, rewards)]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # warns once only
                batches.append(trainer.collect())
            for got in batches:
                assert_collects_identical(base.collect(), got)
            assert trainer._worker_pool is None
        finally:
            base.close()
            trainer.close()

    def test_rollout_workers_degrade_on_single_env_batches(self):
        trainer = self._make_trainer(workers=4)
        trainer.config.segments_per_iteration = 1
        try:
            buffer, _ = trainer.collect()
            assert len(buffer) == 1
            assert trainer._worker_pool is None  # single-env batch stays in-process
        finally:
            trainer.close()

    @pytest.mark.parametrize("kind", ["lts", "scenario"])
    def test_sharded_training_matches_in_process_trajectory(self, kind):
        """Whole iterations (collect, PPO update, SADAE step) take the
        same trajectory with worker replicas as in one process: metrics
        equal and final parameters bit-identical."""

        def build(workers):
            if kind == "lts":
                return self._make_trainer(workers)
            from repro.core.config import scenario_small_config
            from repro.scenarios import trainer_from_config

            spec = {"family": "slate", "num_envs": 4, "num_users": 5, "horizon": 5}
            config = scenario_small_config(seed=11)
            config.scenario = dict(spec)
            config.rollout_workers = workers
            trainer = trainer_from_config(config, dict(spec))
            trainer.pretrain_sadae(epochs=1)
            return trainer

        runs = {}
        for workers in (1, 2):
            with build(workers) as trainer:
                metrics = [trainer.train_iteration() for _ in range(2)]
                if workers == 2:
                    assert trainer._worker_pool is not None
                params = {k: v.copy() for k, v in trainer.policy.replica_state().items()}
            runs[workers] = metrics, params
        (base_metrics, base_params), (got_metrics, got_params) = runs[1], runs[2]
        assert got_metrics == base_metrics
        assert got_params.keys() == base_params.keys()
        for key, value in base_params.items():
            np.testing.assert_array_equal(got_params[key], value, err_msg=key)

    def test_close_releases_worker_processes(self):
        """close() after sharded training stops every worker, unlinks the
        trajectory segment and is a no-op the second time."""
        trainer = self._make_trainer(workers=2)
        trainer.train_iteration()
        pool = trainer._worker_pool
        procs = list(pool._procs)
        name = pool._traj_shm.name
        trainer.close()
        assert pool.closed and trainer._worker_pool is None
        assert not any(proc.is_alive() for proc in procs)
        assert shm_segment_exists(name) is not True
        trainer.close()


class TestSynchronousCollect:
    """collect_rollouts() is one supervised command round like every other
    pool command: it returns once every worker replied, so any command
    may follow it and the pool stays on the in-process trajectory."""

    @pytest.mark.parametrize(
        "command",
        ["sync_policy", "collect_rollouts", "evaluate_policy", "load_envs", "fetch_member_envs"],
    )
    def test_command_after_collect_continues_in_process_run(self, command):
        policy = make_policy()
        envs = make_world().make_all_city_envs()  # the in-process twin
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            pool.sync_policy(policy)
            assert_segments_identical(
                collect_segments_vec(envs, policy, rngs_for(5, 960)),
                pool.collect_rollouts(rngs_for(5, 960)),
                label="first",
            )
            fetched = None
            if command == "sync_policy":
                policy.parameters()[0].data += 1e-3
                assert pool.sync_policy(policy) == 2
            elif command == "collect_rollouts":
                assert_segments_identical(
                    collect_segments_vec(envs, policy, rngs_for(5, 970)),
                    pool.collect_rollouts(rngs_for(5, 970)),
                    label="second",
                )
            elif command == "evaluate_policy":
                expected = evaluate(policy, envs, rng=rngs_for(5, 980), deterministic=False)
                np.testing.assert_array_equal(
                    pool.evaluate_policy(rngs_for(5, 980), deterministic=False), expected
                )
            elif command == "load_envs":
                envs = make_world(seed=99).make_all_city_envs()
                pool.load_envs(make_world(seed=99).make_all_city_envs())
            else:
                fetched = pool.fetch_member_envs()
            expected = collect_segments_vec(envs, policy, rngs_for(5, 990))
            assert_segments_identical(
                expected, pool.collect_rollouts(rngs_for(5, 990)), label="after"
            )
        if fetched is not None:
            assert_segments_identical(
                expected, collect_segments_vec(fetched, policy, rngs_for(5, 990)),
                label="fetched",
            )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_collect_observes_one_wait_per_shard(self, workers):
        """rollout_collect_seconds gets one observation per shard per
        collect; broadcasts, sweeps and fetches add none."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        with ShardedVecEnvPool(
            make_world().make_all_city_envs(), num_workers=workers
        ) as pool:
            pool.set_metrics(registry)
            pool.sync_policy(make_policy())
            for seed in (0, 10):
                pool.collect_rollouts(rngs_for(5, seed))
            pool.evaluate_policy(rngs_for(5, 20))
            pool.fetch_member_envs()
        series = registry.snapshot()["rollout_collect_seconds"]["series"]
        counts = {entry["labels"]["shard"]: entry["count"] for entry in series}
        assert counts == {str(worker): 2 for worker in range(workers)}

    def test_failed_collect_leaves_owner_rngs_untouched(self):
        """Caller-owned generators advance only once every worker replied:
        a collect that loses a worker raises with the streams as they were."""
        rngs = rngs_for(5, 995)
        before = [rng.bit_generator.state for rng in rngs]
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            pool.sync_policy(make_policy())
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashed, match="worker 1"):
                pool.collect_rollouts(rngs)
            assert pool.closed
        assert [rng.bit_generator.state for rng in rngs] == before
