"""Sharded evaluation pools: protocol, param sync and failure paths.

The bitwise-equivalence contract (a sharded evaluation sweep reproduces
in-process ``evaluate`` for any shard layout) is enforced by
``test_eval_parity.py``. This module keeps what is specific to the
worker machinery: the pool protocol (load, worker clamping, the
parent-side paths it refuses), the policy-replica mailbox (version
stamps, oversized broadcasts, structure changes, skipped re-sends) and
the operational guarantees — a crashed worker raises instead of
hanging, stale replicas are refused, a command that cannot be pickled
leaves the pool usable, and no worker outlives ``close()``.
``TestFailFastGrid`` crosses each kind of worker failure with each
command and pool layout; ``TestStartMethods`` runs the pool under every
platform start method.
"""

import multiprocessing as mp
import os
import pickle
import signal
import time

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
    collect_segments_vec,
    evaluate,
    sharding_available,
)
from repro.rl import workers as workers_module
from repro.rl.workers import partition_contiguous

pytestmark = pytest.mark.skipif(
    not sharding_available(), reason="platform has no multiprocessing start method"
)

needs_fork = pytest.mark.skipif(
    not sharding_available("fork"), reason="needs fork start method"
)

#: What pickling a lambda raises (the type differs across Python versions).
PICKLING_ERRORS = (pickle.PicklingError, AttributeError)


@pytest.fixture(autouse=True)
def no_leaks():
    """Every test must reap its workers."""
    yield
    deadline = time.monotonic() + 5.0
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not mp.active_children(), "leaked worker processes"


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


def in_process(policy, envs, seed: int) -> np.ndarray:
    """The reference sweep: in-process ``evaluate`` with sampled actions."""
    return evaluate(policy, envs, rng=rngs_for(len(envs), seed), deterministic=False)


def sharded(pool, seed: int) -> np.ndarray:
    """The same sweep inside the pool's workers (replica already synced)."""
    return pool.evaluate_policy(rngs_for(pool.num_envs, seed), deterministic=False)


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
        rejects it and says the pool only evaluates."""
        policy = MLPActorCritic(13, 2, np.random.default_rng(4), hidden_sizes=(8,))
        with ShardedVecEnvPool(make_world(num_cities=2).make_all_city_envs()) as pool:
            with pytest.raises(TypeError, match=r"only evaluates.*evaluate\(policy, pool\)"):
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
            assert len(pool.evaluate_policy(rngs_for(3, 0))) == 3

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
        expected = in_process(policy, world_b.make_all_city_envs(), 60)
        with ShardedVecEnvPool(world_a.make_all_city_envs(), num_workers=2) as pool:
            pool.sync_policy(policy)
            pool.evaluate_policy(rngs_for(5, 0))
            pids = [proc.pid for proc in pool._procs]
            pool.load_envs(world_b.make_all_city_envs())
            assert [proc.pid for proc in pool._procs] == pids  # same processes
            got = sharded(pool, 60)
        np.testing.assert_array_equal(got, expected)

    def test_load_envs_rejects_layout_mismatch(self):
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            with pytest.raises(ValueError, match="user counts"):
                pool.load_envs(make_world(drivers_per_city=9).make_all_city_envs())


class _ExplodingEnv(LTSEnv):
    """Fails on command from inside a worker: raises from ``reset()``
    (``phase="reset"``) or from the ``explode_at``-th ``step()``
    (``phase="step"``) — exercises error forwarding — or, given an
    ``exit_code``, kills its process there instead."""

    def __init__(self, *args, explode_at=2, phase="step", exit_code=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.explode_at = explode_at
        self.phase = phase
        self.exit_code = exit_code
        self._step_calls = 0

    def _explode(self):
        if self.exit_code is not None:
            os._exit(self.exit_code)
        raise RuntimeError("boom from the worker side")

    def reset(self):
        if self.phase == "reset":
            self._explode()
        return super().reset()

    def step(self, actions):
        self._step_calls += 1
        if self.phase == "step" and self._step_calls >= self.explode_at:
            self._explode()
        return super().step(actions)


class TestParamSyncFailures:
    """Failure injection for the policy-replica broadcast protocol."""

    def test_crash_mid_broadcast_raises_and_closes(self):
        """A worker SIGKILLed before answering sync_policy: the broadcast
        raises WorkerCrashed instead of hanging and the pool closes."""
        policy = make_policy()
        pool = ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2)
        try:
            pool.sync_policy(policy)
            pool.evaluate_policy(rngs_for(5, 0))
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            policy.parameters()[0].data += 1e-6  # a real re-broadcast
            with pytest.raises(WorkerCrashed, match="worker 1"):
                pool.sync_policy(policy)
            assert pool.closed
        finally:
            pool.close()  # idempotent

    def test_stale_version_stamp_raises_cleanly(self):
        """A sweep whose stamp disagrees with the workers' replica version
        must refuse to act with old weights: StaleReplicaError, no hang,
        pool closed."""
        pool = ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2)
        try:
            pool.sync_policy(make_policy())
            pool._replica_version += 1  # desync the stamp
            with pytest.raises(StaleReplicaError, match="version 1"):
                pool.evaluate_policy([np.random.default_rng(i) for i in range(5)])
            assert pool.closed
        finally:
            pool.close()

    def test_evaluate_before_sync_raises_and_pool_survives(self):
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            with pytest.raises(RuntimeError, match="sync_policy"):
                pool.evaluate_policy([np.random.default_rng(i) for i in range(5)])
            # parent-side validation only: the pool is still fully usable
            assert not pool.closed
            pool.sync_policy(make_policy())
            returns = pool.evaluate_policy([np.random.default_rng(i) for i in range(5)])
            assert len(returns) == 5

    def test_oversized_state_dict_raises_before_sending(self):
        """An over-limit replica_state raises ValueError without touching
        the workers; the pool stays open and usable."""
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
            assert len(pool.evaluate_policy(rngs_for(5, 0))) == 5
        finally:
            pool.close()

    def test_structure_change_ships_fresh_replica(self):
        """Re-syncing a differently-shaped policy falls back to the full
        object broadcast (state-only archives cannot change structure)."""
        small = make_policy()
        large = make_policy(lstm_hidden=32)
        expected = in_process(large, make_world().make_all_city_envs(), 500)
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            assert pool.sync_policy(small) == 1
            assert pool.sync_policy(large) == 2  # structure change: version 2
            got = sharded(pool, 500)
        np.testing.assert_array_equal(got, expected)


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
            # The workers' stamp still matches, so the sweep proceeds.
            returns = pool.evaluate_policy(
                [np.random.default_rng(700 + i) for i in range(5)]
            )
            assert len(returns) == 5

    def test_skipped_sync_evaluations_stay_bit_identical(self):
        """Evaluating after a skipped re-sync uses the replicas already in
        the workers — and those are exact, so the returns still match
        in-process evaluate."""
        policy = make_policy()
        expected = in_process(policy, make_world().make_all_city_envs(), 710)
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            pool.sync_policy(policy)
            pool.sync_policy(policy)  # skipped
            got = sharded(pool, 710)
        np.testing.assert_array_equal(got, expected)

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

    def test_repeated_evaluate_only_broadcasts_on_updates(self):
        """``evaluate(policy, pool)`` syncs on every call, but only ships
        bytes when the parameters moved: back-to-back sweeps of one
        policy reuse the workers' replica and return identical results."""
        envs = make_world().make_all_city_envs()
        policy = make_policy()
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            first = evaluate(policy, pool, rng=rngs_for(5, 720))
            pool.load_envs(make_world().make_all_city_envs())
            again = evaluate(policy, pool, rng=rngs_for(5, 720))
            assert pool.replica_broadcasts == 1
            np.testing.assert_array_equal(again, first)
            policy.parameters()[0].data += 1e-3  # an update
            pool.load_envs(make_world().make_all_city_envs())
            moved = evaluate(policy, pool, rng=rngs_for(5, 720))
            assert pool.replica_broadcasts == 2
        np.testing.assert_array_equal(moved, evaluate(policy, envs, rng=rngs_for(5, 720)))


class TestFailurePaths:
    def test_worker_crash_raises_instead_of_hanging(self):
        world = make_world(num_cities=4)
        pool = ShardedVecEnvPool(world.make_all_city_envs(), num_workers=2)
        try:
            pool.sync_policy(make_policy())
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashed, match="worker 1"):
                pool.evaluate_policy(rngs_for(4, 0))
            assert pool.closed  # crash tears the pool down
        finally:
            pool.close()  # idempotent

    def test_failed_evaluate_leaves_owner_rngs_untouched(self):
        """Caller-owned generators advance only once every worker replied:
        a sweep that loses a worker raises with the streams as they were."""
        rngs = rngs_for(5, 995)
        before = [rng.bit_generator.state for rng in rngs]
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            pool.sync_policy(make_policy())
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashed, match="worker 1"):
                pool.evaluate_policy(rngs, deterministic=False)
            assert pool.closed
        assert [rng.bit_generator.state for rng in rngs] == before

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
                pool.evaluate_policy(rngs_for(2, 0))
            # the worker's sub-pool state is unreliable after an env error,
            # so the pool refuses further use
            assert pool.closed

    def test_close_stops_every_worker(self):
        world = make_world(num_cities=2)
        pool = ShardedVecEnvPool(world.make_all_city_envs(), num_workers=2)
        pool.sync_policy(make_policy())
        pool.evaluate_policy(rngs_for(2, 0))
        procs = list(pool._procs)
        assert all(proc.is_alive() for proc in procs)
        pool.close()
        assert not any(proc.is_alive() for proc in procs)
        pool.close()  # double close is a no-op
        with pytest.raises(RuntimeError, match="closed"):
            pool.evaluate_policy(rngs_for(2, 0))

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
        """SIGTERM'd workers (the Ctrl-C path) still let close() finish
        and leave no process behind."""
        world = make_world(num_cities=2)
        pool = ShardedVecEnvPool(world.make_all_city_envs(), num_workers=2)
        pool.sync_policy(make_policy())
        pool.evaluate_policy(rngs_for(2, 0))
        procs = list(pool._procs)
        for proc in procs:
            proc.terminate()
        pool.close()
        assert not any(proc.is_alive() for proc in procs)


@needs_fork
class TestUnpicklableCommands:
    """Every command of a round is pickled before any is sent: one that
    cannot be pickled raises with no worker having received anything."""

    def test_unpicklable_load_leaves_every_worker_on_its_old_envs(self):
        """An env of the second shard cannot be pickled, so load_envs
        raises before the first worker took its shard. The pool stays
        open, the next broadcast reads its own replies, and the sweep
        runs on the old envs bit for bit."""
        policy = make_policy()
        replacement = make_world(seed=99).make_all_city_envs()
        replacement[-1].hook = lambda: None
        with ShardedVecEnvPool(
            make_world().make_all_city_envs(), num_workers=2, start_method="fork"
        ) as pool:
            assert pool.sync_policy(policy) == 1
            with pytest.raises(PICKLING_ERRORS):
                pool.load_envs(replacement)
            assert not pool.closed
            policy.parameters()[0].data += 1e-3  # a real re-broadcast
            assert pool.sync_policy(policy) == 2
            got = sharded(pool, 80)
        np.testing.assert_array_equal(
            got, in_process(policy, make_world().make_all_city_envs(), 80)
        )

    def test_unpicklable_policy_leaves_the_pool_usable(self):
        unpicklable = make_policy()
        unpicklable.hook = lambda: None
        policy = make_policy()
        with ShardedVecEnvPool(
            make_world().make_all_city_envs(), num_workers=2, start_method="fork"
        ) as pool:
            with pytest.raises(PICKLING_ERRORS):
                pool.sync_policy(unpicklable)
            assert not pool.closed
            assert pool.replica_version == 0  # nothing was broadcast
            assert pool.sync_policy(policy) == 1
            got = sharded(pool, 81)
        np.testing.assert_array_equal(
            got, in_process(policy, make_world().make_all_city_envs(), 81)
        )


#: Exit code of a worker that a ``_Tripwire`` or an ``_ExplodingEnv`` killed.
DIED = 3

#: (workers, victim) layouts of the failure grid: a solo worker, then the
#: first and the last worker of a 2- and of a 4-worker pool.
LAYOUTS = [(1, 0), (2, 0), (2, 1), (4, 0), (4, 3)]

COMMANDS = ["sync", "load", "evaluate"]


def _exit_in(pid: int) -> None:
    """Unpickling target of :class:`_Tripwire`."""
    if os.getpid() == pid:
        os._exit(DIED)


class _Tripwire:
    """Unpickles to ``None``, except in process ``pid``, which exits on
    the spot: the one worker that dies in the middle of a command."""

    def __init__(self, pid: int):
        self.pid = pid

    def __reduce__(self):
        return _exit_in, (self.pid,)


def lts_envs(seed: int = 0, faulty=None, **fault) -> list:
    """Five 3-user LTS envs; member ``faulty`` is an ``_ExplodingEnv``."""
    envs = []
    for index in range(5):
        config = LTSConfig(num_users=3, horizon=6, seed=seed + index)
        envs.append(_ExplodingEnv(config, **fault) if index == faulty else LTSEnv(config))
    return envs


def lts_policy():
    return MLPActorCritic(2, 1, np.random.default_rng(4), hidden_sizes=(8,))


def states_of(rngs) -> list:
    return [rng.bit_generator.state for rng in rngs]


def send(command, pool, policy, rngs, envs) -> None:
    """Issue one pool command: a replica broadcast, an env load or a sweep."""
    if command == "sync":
        pool.sync_policy(policy)
    elif command == "load":
        pool.load_envs(envs)
    else:
        pool.evaluate_policy(rngs, deterministic=False)


@needs_fork
class TestFailFastGrid:
    """Each way a worker can fail, at each command, on each layout.

    A worker is SIGKILLed before a command (the OOM-killer case), dies
    while it executes one, raises from an env, or is asked for a replica
    version it never received. Whatever the case, the command raises and
    names the worker; the pool closes and reaps every worker; every later
    command refuses; and the caller's noise streams and the replica stamp
    stay where the last successful command left them.
    """

    def open_pool(self, workers: int, envs=None) -> ShardedVecEnvPool:
        if envs is None:
            envs = lts_envs()
        return ShardedVecEnvPool(envs, num_workers=workers, start_method="fork")

    def assert_failed_fast(self, pool, exitcodes, version: int) -> None:
        assert pool.closed
        assert [proc.exitcode for proc in pool._procs] == exitcodes
        assert pool.replica_version == version
        for command in COMMANDS:
            with pytest.raises(RuntimeError, match="pool is closed"):
                send(command, pool, lts_policy(), rngs_for(5, 0), lts_envs(seed=60))

    @pytest.mark.parametrize("workers, victim", LAYOUTS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_killed_worker_fails_fast(self, command, workers, victim):
        """SIGKILLed before the command, so the send or the receive
        finds it dead; the surviving workers exit on ``close``."""
        policy, rngs = lts_policy(), rngs_for(5, 900)
        with self.open_pool(workers) as pool:
            pool.sync_policy(policy)
            proc = pool._procs[victim]
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5.0)
            policy.parameters()[0].data += 1e-3  # a real re-broadcast
            with pytest.raises(WorkerCrashed, match=f"worker {victim} "):
                send(command, pool, policy, rngs, lts_envs(seed=50))
            exitcodes = [0] * workers
            exitcodes[victim] = -signal.SIGKILL
            self.assert_failed_fast(pool, exitcodes, version=1)
            assert pool.replica_broadcasts == 1
        assert states_of(rngs) == states_of(rngs_for(5, 900))

    @pytest.mark.parametrize("workers, victim", LAYOUTS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_worker_dying_mid_command_fails_fast(self, command, workers, victim):
        """The worker takes the command and dies executing it: while it
        unpickles the first broadcast (a tripwire on the policy) or its
        shard of a load (a tripwire on one of its envs), or in the
        middle of a sweep (one of its envs exits at its second step)."""
        first = partition_contiguous([3] * 5, workers)[victim].start
        envs = lts_envs(faulty=first if command == "evaluate" else None, exit_code=DIED)
        replacements = lts_envs(seed=50)
        policy, rngs = lts_policy(), rngs_for(5, 910)
        with self.open_pool(workers, envs) as pool:
            pid = pool._procs[victim].pid
            if command == "sync":
                policy.tripwire = _Tripwire(pid)
            else:
                pool.sync_policy(policy)
                replacements[first].tripwire = _Tripwire(pid)
            with pytest.raises(WorkerCrashed, match=f"worker {victim} "):
                send(command, pool, policy, rngs, replacements)
            exitcodes = [0] * workers
            exitcodes[victim] = DIED
            self.assert_failed_fast(pool, exitcodes, version=int(command != "sync"))
        assert states_of(rngs) == states_of(rngs_for(5, 910))

    @pytest.mark.parametrize("workers, victim", LAYOUTS)
    @pytest.mark.parametrize("phase", ["reset", "step"])
    def test_env_error_fails_fast(self, phase, workers, victim):
        """An env of the victim's shard raises as an episode starts or
        mid-episode: the worker answers with its traceback, which the
        parent raises, and then exits on ``close`` like the others."""
        first = partition_contiguous([3] * 5, workers)[victim].start
        policy, rngs = lts_policy(), rngs_for(5, 920)
        with self.open_pool(workers, lts_envs(faulty=first, phase=phase)) as pool:
            pool.sync_policy(policy)
            with pytest.raises(
                WorkerStepError,
                match=rf"(?s)worker {victim} raised:\n.*in {phase}.*boom from the worker side",
            ):
                pool.evaluate_policy(rngs, deterministic=False)
            self.assert_failed_fast(pool, [0] * workers, version=1)
        assert states_of(rngs) == states_of(rngs_for(5, 920))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_stale_stamp_fails_fast(self, workers):
        """A sweep stamped with a version no worker received (the
        2-worker case is ``TestParamSyncFailures``'): worker 0's
        "stale" answer raises."""
        rngs = rngs_for(5, 930)
        with self.open_pool(workers) as pool:
            pool.sync_policy(lts_policy())
            pool._replica_version += 1  # desync the stamp
            with pytest.raises(
                StaleReplicaError, match="worker 0 holds policy replica version 1"
            ):
                pool.evaluate_policy(rngs, deterministic=False)
            self.assert_failed_fast(pool, [0] * workers, version=2)
        assert states_of(rngs) == states_of(rngs_for(5, 930))


START_METHODS = [
    pytest.param(
        method,
        marks=pytest.mark.skipif(
            not sharding_available(method), reason=f"needs {method} start method"
        ),
    )
    for method in ("fork", "spawn", "forkserver")
]


class TestStartMethods:
    """Fork workers inherit their shards; spawn and forkserver workers
    get them pickled as they start. The pool behaves alike under all."""

    @pytest.mark.parametrize("method", START_METHODS)
    def test_sweep_is_bit_identical(self, method):
        policy, rngs, expected_rngs = make_policy(), rngs_for(5, 940), rngs_for(5, 940)
        expected = evaluate(
            policy, make_world().make_all_city_envs(), rng=expected_rngs,
            deterministic=False,
        )
        with ShardedVecEnvPool(
            make_world().make_all_city_envs(), num_workers=2, start_method=method
        ) as pool:
            pool.sync_policy(policy)
            got = pool.evaluate_policy(rngs, deterministic=False)
        np.testing.assert_array_equal(got, expected)
        assert states_of(rngs) == states_of(expected_rngs)

    @pytest.mark.parametrize("method", START_METHODS)
    def test_killed_worker_fails_fast(self, method):
        pool = ShardedVecEnvPool(
            make_world().make_all_city_envs(), num_workers=2, start_method=method
        )
        try:
            pool.sync_policy(make_policy())
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashed, match="worker 1 "):
                pool.evaluate_policy(rngs_for(5, 0))
            assert pool.closed
            assert [proc.exitcode for proc in pool._procs] == [0, -signal.SIGKILL]
        finally:
            pool.close()

    @pytest.mark.parametrize("method", START_METHODS[1:])
    def test_unpicklable_shard_leaks_no_worker(self, method):
        """A later shard that cannot be pickled makes the constructor
        raise, and the workers already started are reaped."""
        envs = make_world().make_all_city_envs()
        envs[-1].hook = lambda: None
        with pytest.raises(PICKLING_ERRORS):
            ShardedVecEnvPool(envs, num_workers=2, start_method=method)
        assert not mp.active_children()


class TestProcessHygiene:
    def test_stopped_workers_are_sigkilled(self, monkeypatch):
        """Shutdown escalates to SIGKILL: a stopped worker neither answers
        ``close`` nor acts on SIGTERM. Both shutdown graces are
        shortened: the escalation, not its timing, is under test."""
        monkeypatch.setattr(workers_module, "_CLOSE_GRACE_S", 0.05)
        monkeypatch.setattr(workers_module, "_TERMINATE_GRACE_S", 0.05)
        pool = ShardedVecEnvPool(make_world(num_cities=2).make_all_city_envs(), num_workers=2)
        pool.sync_policy(make_policy())
        pool.evaluate_policy(rngs_for(2, 0))
        procs = list(pool._procs)
        for proc in procs:
            os.kill(proc.pid, signal.SIGSTOP)
        pool.close()
        assert [proc.exitcode for proc in procs] == [-signal.SIGKILL] * 2
        for proc in procs:
            with pytest.raises(ProcessLookupError):
                os.kill(proc.pid, 0)

    def test_workers_ignore_sigint(self):
        """Ctrl-C goes to the parent; workers must survive a SIGINT and
        keep serving so shutdown stays coordinated."""
        policy = make_policy()
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            for proc in pool._procs:
                os.kill(proc.pid, signal.SIGINT)
            time.sleep(0.2)
            assert all(proc.is_alive() for proc in pool._procs)
            pool.sync_policy(policy)
            returns = pool.evaluate_policy(
                [np.random.default_rng(i) for i in range(5)]
            )
            assert len(returns) == 5


class TestBenchmarkContract:
    def test_pool_never_degrades_or_respawns(self):
        """``perfbench/rollout_eval.py`` reads ``degraded`` and
        ``restart_counts``; both stay constant across a sweep."""
        with ShardedVecEnvPool(make_world().make_all_city_envs(), num_workers=2) as pool:
            assert pool.degraded is False
            assert pool.restart_counts == [0] * pool.num_workers
            pool.sync_policy(make_policy())
            pool.evaluate_policy(rngs_for(5, 0))
            assert pool.degraded is False
            assert pool.restart_counts == [0, 0]
