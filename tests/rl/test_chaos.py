"""Fault injection against the supervised rollout stack.

The contract under test (see ``repro.rl.workers``, *Failure handling*):
with a :class:`FaultPolicy`, any worker crash / hang / dropped reply /
stale replica recovers **bit-identically** — a recovered collection
equals the sequential reference to the byte (the same parity harness
that certifies the fault-free paths), and a recovered evaluation sweep
equals in-process ``evaluate`` in its per-env totals and owner-RNG end
states. When the restart budget runs out, the pool degrades gracefully
to in-process execution — still bit-identical — and never leaks worker
processes or shared memory. Faults come from the deterministic
schedules in ``repro.rl.chaos``.
"""

import multiprocessing as mp
import os
import signal
import time
import warnings

import numpy as np
import pytest

from repro.envs import DPRConfig, DPRWorld
from repro.rl import (
    ChaosSchedule,
    FaultPolicy,
    FaultSpec,
    RecurrentActorCritic,
    ShardedVecEnvPool,
    VecEnvPool,
    WorkerCrashed,
    WorkerTimeout,
    collect_segments_vec,
    evaluate,
    sharding_available,
)
from repro.rl import workers as workers_module
from repro.rl.chaos import apply_fault
from repro.rl.parity import assert_segments_identical, verify_rollout_parity

pytestmark = pytest.mark.skipif(
    not sharding_available(), reason="platform has no multiprocessing start method"
)

#: Short deadlines so injected hangs resolve in test time, zero backoff.
FAST_POLICY = FaultPolicy(
    max_restarts=2,
    backoff=0.0,
    broadcast_deadline=15.0,
    collect_deadline=30.0,
    graceful_join=0.5,
)

#: The protocol op each grid column injects into ("broadcast" = the
#: replica sync, "collect" = the worker-side full rollout).
GRID_OPS = {"broadcast": "replica", "collect": "rollout"}


def make_envs(num=5):
    world = DPRWorld(DPRConfig(num_cities=num, drivers_per_city=4, horizon=5, seed=3))
    return world.make_all_city_envs()


def make_policy():
    return RecurrentActorCritic(
        13, 2, np.random.default_rng(0), lstm_hidden=12, head_hidden=(16,)
    )


def shm_segments():
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: rely on the process check only
        return set()


@pytest.fixture(autouse=True)
def no_leaks():
    """Every test must reap its workers and unlink its shared memory."""
    before_shm = shm_segments()
    yield
    deadline = time.monotonic() + 5.0
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not mp.active_children(), "leaked worker processes"
    leaked = shm_segments() - before_shm
    assert not leaked, f"leaked shared memory segments: {leaked}"


def spec_for(kind, op, workers, phase="receive"):
    """One fault aimed at the last worker of the pool (worker 0 if solo)."""
    return FaultSpec(kind, worker=max(workers - 1, 0), op=op, at=0, phase=phase)


def rngs_for(count, seed):
    return [np.random.default_rng(seed + i) for i in range(count)]


class TestRecoveryParityGrid:
    """kill / hang / corrupt × broadcast / collect × 1, 2, 4 shards."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("target", ["broadcast", "collect"])
    @pytest.mark.parametrize("kind", ["kill", "hang", "corrupt"])
    def test_recovered_rollouts_are_bit_identical(self, kind, target, shards):
        op = GRID_OPS[target]
        if kind == "corrupt":
            if target != "broadcast":
                pytest.skip("corrupt_stamp faults target the replica broadcast")
            # The corrupted stamp only surfaces at the next rollout.
            chaos = ChaosSchedule([spec_for("corrupt_stamp", op, shards)])
        elif kind == "hang":
            chaos = ChaosSchedule(
                [
                    FaultSpec(
                        "hang",
                        worker=max(shards - 1, 0),
                        op=op,
                        at=0,
                        hang_seconds=120.0,
                    )
                ]
            )
        else:
            chaos = ChaosSchedule([spec_for("kill", op, shards)])
        policy = FaultPolicy(
            max_restarts=2,
            backoff=0.0,
            broadcast_deadline=0.5 if kind == "hang" else 15.0,
            collect_deadline=0.5 if kind == "hang" else 30.0,
            graceful_join=0.5,
        )
        verify_rollout_parity(
            make_envs,
            make_policy(),
            seed=500 + shards,
            modes=("shard_parallel",),
            num_workers=shards,
            label=f"chaos/{kind}/{target}/{shards}",
            pool_kwargs=dict(fault_policy=policy, chaos=chaos),
        )

    @pytest.mark.parametrize("shards", [2, 4])
    def test_kill_after_envs_advanced_replays_exactly(self, shards):
        """phase='reply' kills a worker whose envs already rolled a whole
        episode — the respawn must discard that progress and re-run the
        collect from the snapshot."""
        chaos = ChaosSchedule(
            [FaultSpec("kill", worker=0, op="rollout", at=0, phase="reply")]
        )
        verify_rollout_parity(
            make_envs,
            make_policy(),
            seed=600 + shards,
            modes=("shard_parallel",),
            num_workers=shards,
            label=f"chaos/reply-kill/{shards}",
            pool_kwargs=dict(fault_policy=FAST_POLICY, chaos=chaos),
        )

    def test_dropped_reply_recovers(self):
        """A lost IPC reply looks like a hang; the deadline catches it."""
        chaos = ChaosSchedule([FaultSpec("drop_reply", worker=1, op="rollout", at=0)])
        policy = FaultPolicy(
            max_restarts=2, backoff=0.0, collect_deadline=0.5, graceful_join=0.5
        )
        verify_rollout_parity(
            make_envs,
            make_policy(),
            seed=700,
            modes=("shard_parallel",),
            num_workers=2,
            label="chaos/drop_reply",
            pool_kwargs=dict(fault_policy=policy, chaos=chaos),
        )

    def test_externally_killed_worker_recovers(self):
        """SIGKILL from outside (the OOM-killer case), not via the schedule.

        Two back-to-back collects with a kill in between: the respawn
        restores the *advanced* env state the first collect produced (the
        recovery snapshots refresh from the workers after every rollout),
        so episode 2 matches a fault-free pool's episode 2 exactly.
        """
        policy = make_policy()
        rngs = lambda s: [np.random.default_rng(s + i) for i in range(5)]  # noqa: E731
        reference_pool = VecEnvPool(make_envs())
        ref1 = collect_segments_vec(reference_pool, policy, rngs(40))
        ref2 = collect_segments_vec(reference_pool, policy, rngs(90))
        with ShardedVecEnvPool(
            make_envs(), num_workers=2, fault_policy=FAST_POLICY
        ) as pool:
            pool.sync_policy(policy)
            first = pool.collect_rollouts(rngs(40))
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            second = pool.collect_rollouts(rngs(90))
            assert pool.restart_counts[1] == 1
        assert_segments_identical(ref1, first, label="external-kill/1")
        assert_segments_identical(ref2, second, label="external-kill/2")


class TestGracefulDegradation:
    def test_budget_exhaustion_degrades_bit_identically(self):
        """A persistent fault burns the restart budget; the pool swaps in
        an in-process VecEnvPool rebuilt from snapshots and the rollout
        still matches the reference to the byte."""
        chaos = ChaosSchedule(
            [FaultSpec("kill", worker=0, op="rollout", at=0)], persistent=True
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            verify_rollout_parity(
                make_envs,
                make_policy(),
                seed=800,
                modes=("shard_parallel",),
                num_workers=2,
                label="chaos/degrade",
                pool_kwargs=dict(fault_policy=FAST_POLICY, chaos=chaos),
            )
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "restart budget" in str(w.message)
            for w in caught
        )

    def test_degraded_pool_keeps_serving(self):
        """After degradation every subsequent op (collect, sync, fetch,
        load) runs in-process and multi-episode streams stay continuous."""
        policy = make_policy()
        rngs = lambda s: [np.random.default_rng(s + i) for i in range(5)]  # noqa: E731
        reference_pool = VecEnvPool(make_envs())
        ref1 = collect_segments_vec(reference_pool, policy, rngs(50))
        ref2 = collect_segments_vec(reference_pool, policy, rngs(60))
        chaos = ChaosSchedule([FaultSpec("kill", worker=0, op="rollout", at=0)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with ShardedVecEnvPool(
                make_envs(),
                num_workers=2,
                fault_policy=FaultPolicy(max_restarts=0, backoff=0.0),
                chaos=chaos,
            ) as pool:
                pool.sync_policy(policy)
                got1 = pool.collect_rollouts(rngs(50))
                assert pool.degraded
                got2 = pool.collect_rollouts(rngs(60))
                fetched = pool.fetch_member_envs()
                assert len(fetched) == 5
        assert_segments_identical(ref1, got1, label="degraded/ep1")
        assert_segments_identical(ref2, got2, label="degraded/ep2")


#: Evaluation sweep shape shared by the evaluate recovery cases.
EVAL_KWARGS = dict(episodes=2, gamma=0.97, deterministic=False)


def evaluate_in_process(policy, seed):
    """Reference sweep: per-env totals and owner-RNG end states."""
    rngs = rngs_for(5, seed)
    totals = evaluate(policy, make_envs(), rng=rngs, **EVAL_KWARGS)
    return totals, [rng.bit_generator.state for rng in rngs]


def evaluate_sharded(policy, seed, shards, **pool_kwargs):
    rngs = rngs_for(5, seed)
    with ShardedVecEnvPool(make_envs(), num_workers=shards, **pool_kwargs) as pool:
        totals = evaluate(policy, pool, rng=rngs, **EVAL_KWARGS)
        restarts, degraded = pool.restart_counts, pool.degraded
    return totals, [rng.bit_generator.state for rng in rngs], restarts, degraded


class TestEvaluateRecovery:
    """The worker-side evaluate path recovers like the rollout path."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("phase", ["receive", "reply"])
    @pytest.mark.parametrize("kind", ["kill", "hang"])
    def test_recovered_evaluation_is_bit_identical(self, kind, phase, shards):
        """phase='reply' faults a worker whose envs already ran the sweep:
        the respawn re-runs it from the snapshot with pristine streams."""
        policy = make_policy()
        expected, expected_states = evaluate_in_process(policy, 900 + shards)
        chaos = ChaosSchedule(
            [
                FaultSpec(
                    kind, worker=shards - 1, op="evaluate", at=0, phase=phase,
                    hang_seconds=120.0,
                )
            ]
        )
        fault = FaultPolicy(
            max_restarts=2,
            backoff=0.0,
            collect_deadline=0.5 if kind == "hang" else 30.0,
            graceful_join=0.5,
        )
        totals, states, restarts, degraded = evaluate_sharded(
            policy, 900 + shards, shards, fault_policy=fault, chaos=chaos
        )
        assert restarts[shards - 1] == 1 and not degraded
        np.testing.assert_array_equal(totals, expected)
        assert states == expected_states

    @pytest.mark.parametrize("shards", [1, 2])
    def test_dropped_reply_is_reissued(self, shards):
        """A sweep that ran but never answered looks like a hang: the
        deadline SIGKILLs the worker and the respawn re-runs the sweep."""
        policy = make_policy()
        expected, expected_states = evaluate_in_process(policy, 920 + shards)
        chaos = ChaosSchedule([spec_for("drop_reply", "evaluate", shards)])
        fault = FaultPolicy(
            max_restarts=2, backoff=0.0, collect_deadline=0.5, graceful_join=0.5
        )
        totals, states, restarts, degraded = evaluate_sharded(
            policy, 920 + shards, shards, fault_policy=fault, chaos=chaos
        )
        assert restarts[shards - 1] == 1 and not degraded
        np.testing.assert_array_equal(totals, expected)
        assert states == expected_states

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_stale_replica_sweep_is_reissued(self, shards):
        """A corrupted version stamp makes the worker answer the sweep
        stale; the respawned worker gets the archived replica and the
        re-issued sweep matches in-process evaluate."""
        policy = make_policy()
        expected, expected_states = evaluate_in_process(policy, 940 + shards)
        chaos = ChaosSchedule([spec_for("corrupt_stamp", "replica", shards)])
        totals, states, restarts, degraded = evaluate_sharded(
            policy, 940 + shards, shards, fault_policy=FAST_POLICY, chaos=chaos
        )
        assert restarts[shards - 1] == 1 and not degraded
        np.testing.assert_array_equal(totals, expected)
        assert states == expected_states

    @pytest.mark.parametrize("phase", ["receive", "reply"])
    def test_rollout_after_sweep_respawns_from_post_sweep_snapshot(self, phase):
        """A sweep advances the worker-side envs and its reply refreshes
        the recovery snapshots: a worker killed in the next rollout is
        rebuilt in its post-sweep state, so the recovered rollout equals
        an in-process pool that ran the same sweep first."""
        policy = make_policy()
        reference_envs = make_envs()
        expected = evaluate(policy, reference_envs, rng=rngs_for(5, 300), **EVAL_KWARGS)
        reference = collect_segments_vec(
            VecEnvPool(reference_envs), policy, rngs_for(5, 400)
        )
        unswept = collect_segments_vec(VecEnvPool(make_envs()), policy, rngs_for(5, 400))
        assert not np.array_equal(unswept[-1].rewards, reference[-1].rewards)
        chaos = ChaosSchedule(
            [FaultSpec("kill", worker=1, op="rollout", at=0, phase=phase)]
        )
        with ShardedVecEnvPool(
            make_envs(), num_workers=2, fault_policy=FAST_POLICY, chaos=chaos
        ) as pool:
            totals = evaluate(policy, pool, rng=rngs_for(5, 300), **EVAL_KWARGS)
            collected = pool.collect_rollouts(rngs_for(5, 400))
            assert pool.restart_counts == [0, 1] and not pool.degraded
        np.testing.assert_array_equal(totals, expected)
        assert_segments_identical(reference, collected, label=f"post-sweep/{phase}")

    def test_persistent_fault_degrades_bit_identically(self):
        """A fault that re-arms in every respawn burns the restart budget;
        the sweep finishes in-process from the snapshots and still matches."""
        policy = make_policy()
        expected, expected_states = evaluate_in_process(policy, 950)
        chaos = ChaosSchedule(
            [FaultSpec("kill", worker=0, op="evaluate", at=0)], persistent=True
        )
        with pytest.warns(RuntimeWarning, match="restart budget"):
            totals, states, _, degraded = evaluate_sharded(
                policy, 950, 2, fault_policy=FAST_POLICY, chaos=chaos
            )
        assert degraded
        np.testing.assert_array_equal(totals, expected)
        assert states == expected_states

    def test_pool_degraded_by_a_sweep_keeps_serving(self):
        """After a sweep degrades the pool, rollouts run in-process on the
        envs the sweep advanced — matching a pool that never forked."""
        policy = make_policy()
        reference_envs = make_envs()
        expected = evaluate(policy, reference_envs, rng=rngs_for(5, 310), **EVAL_KWARGS)
        reference = collect_segments_vec(
            VecEnvPool(reference_envs), policy, rngs_for(5, 410)
        )
        chaos = ChaosSchedule(
            [FaultSpec("kill", worker=0, op="evaluate", at=0)], persistent=True
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with ShardedVecEnvPool(
                make_envs(), num_workers=2, fault_policy=FAST_POLICY, chaos=chaos
            ) as pool:
                totals = evaluate(policy, pool, rng=rngs_for(5, 310), **EVAL_KWARGS)
                assert pool.degraded and pool.num_workers == 0
                collected = pool.collect_rollouts(rngs_for(5, 410))
        np.testing.assert_array_equal(totals, expected)
        assert_segments_identical(reference, collected, label="degraded-sweep/rollout")


class TestLegacyContract:
    def test_without_fault_policy_crash_closes_and_raises(self):
        """No FaultPolicy = the pre-supervision contract: fail fast."""
        chaos = ChaosSchedule([FaultSpec("kill", worker=0, op="rollout", at=0)])
        pool = ShardedVecEnvPool(make_envs(), num_workers=2, chaos=chaos)
        policy = make_policy()
        pool.sync_policy(policy)
        with pytest.raises(WorkerCrashed):
            pool.collect_rollouts([np.random.default_rng(i) for i in range(5)])
        assert pool.closed

    def test_timeout_is_a_crash_subclass(self):
        assert issubclass(WorkerTimeout, WorkerCrashed)


class TestProcessHygiene:
    def test_sigterm_ignoring_worker_is_killed_and_shm_unlinked(self, monkeypatch):
        """The zombie case: workers that ignore SIGTERM and hang on close
        must still die (SIGKILL escalation) and leak no shared memory.
        Both shutdown graces are shortened: the escalation, not its
        timing, is under test."""
        monkeypatch.setattr(workers_module, "_CLOSE_GRACE_S", 0.05)
        monkeypatch.setattr(workers_module, "_TERMINATE_GRACE_S", 0.05)
        chaos = ChaosSchedule(
            [FaultSpec("hang", worker=w, op="close", hang_seconds=300.0) for w in range(2)],
            ignore_sigterm=True,
        )
        pool = ShardedVecEnvPool(make_envs(), num_workers=2, chaos=chaos)
        pool.sync_policy(make_policy())
        pool.collect_rollouts(rngs_for(5, 0))
        segment_name = pool._traj_shm.name
        pids = [proc.pid for proc in pool._procs]
        pool.close()
        assert not os.path.exists(f"/dev/shm/{segment_name}")
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_workers_ignore_sigint(self):
        """Ctrl-C goes to the parent; workers must survive a SIGINT and
        keep serving so shutdown stays coordinated."""
        policy = make_policy()
        with ShardedVecEnvPool(make_envs(), num_workers=2) as pool:
            for proc in pool._procs:
                os.kill(proc.pid, signal.SIGINT)
            time.sleep(0.2)
            assert all(proc.is_alive() for proc in pool._procs)
            pool.sync_policy(policy)
            segments = pool.collect_rollouts(
                [np.random.default_rng(i) for i in range(5)]
            )
            assert len(segments) == 5

    def test_respawned_workers_are_fault_free_by_default(self):
        """A one-shot schedule fires once per original worker; the
        respawn runs clean, so restart_counts stays at one."""
        chaos = ChaosSchedule([FaultSpec("kill", worker=0, op="rollout", at=0)])
        policy = make_policy()
        with ShardedVecEnvPool(
            make_envs(), num_workers=2, fault_policy=FAST_POLICY, chaos=chaos
        ) as pool:
            pool.sync_policy(policy)
            for round_index in range(3):
                pool.collect_rollouts(
                    [np.random.default_rng(round_index * 10 + i) for i in range(5)]
                )
            assert pool.restart_counts == [1, 0]
            assert not pool.degraded


class TestFaultPrimitives:
    def test_fault_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("explode")
        with pytest.raises(ValueError, match="op"):
            FaultSpec("kill", op="dance")
        with pytest.raises(ValueError, match="phase"):
            FaultSpec("kill", phase="later")
        with pytest.raises(ValueError, match="replica"):
            FaultSpec("corrupt_stamp", op="rollout")

    def test_schedule_counts_per_op_and_fires_once(self):
        schedule = ChaosSchedule([FaultSpec("drop_reply", op="rollout", at=1)])
        assert schedule.match("rollout", "receive") is None      # occurrence 0
        spec = schedule.match("rollout", "receive")               # occurrence 1
        assert spec is not None and spec.kind == "drop_reply"
        assert schedule.match("rollout", "receive") is None       # already fired

    def test_schedule_pickle_resets_counters(self):
        import pickle

        schedule = ChaosSchedule([FaultSpec("drop_reply", op="rollout", at=0)])
        assert schedule.match("rollout", "receive") is not None
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone.match("rollout", "receive") is not None  # counters reset

    def test_for_worker_filters_and_none_means_clean(self):
        schedule = ChaosSchedule([FaultSpec("kill", worker=3, op="rollout")])
        assert schedule.for_worker(0) is None
        sub = schedule.for_worker(3)
        assert sub is not None and len(sub.specs) == 1
        sigterm_only = ChaosSchedule([], ignore_sigterm=True)
        assert sigterm_only.for_worker(0) is not None

    def test_apply_fault_hang_returns_continue(self):
        spec = FaultSpec("hang", hang_seconds=0.0)
        assert apply_fault(spec) == "continue"

    def test_fault_policy_knobs(self):
        policy = FaultPolicy(max_restarts=3, backoff=0.1, max_backoff=0.3)
        assert policy.deadline_for("rollout") == policy.collect_deadline
        assert policy.deadline_for("evaluate") == policy.collect_deadline
        assert policy.deadline_for("replica") == policy.broadcast_deadline
        assert policy.deadline_for("load") == policy.broadcast_deadline
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(5) == pytest.approx(0.3)  # capped
        with pytest.raises(ValueError):
            FaultPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            FaultPolicy(backoff=-0.5)

    def test_fault_policy_rejects_non_positive_deadlines(self):
        """A deadline <= 0 would SIGKILL every worker on its first reply
        and silently burn the restart budget; it is refused by name."""
        for name in ("broadcast_deadline", "collect_deadline"):
            for bad in (0.0, -1.0):
                with pytest.raises(ValueError, match=name):
                    FaultPolicy(**{name: bad})
        with pytest.raises(ValueError, match="graceful_join"):
            FaultPolicy(graceful_join=-5.0)
        FaultPolicy(graceful_join=0.0, broadcast_deadline=None, collect_deadline=None)


class TestTrainerSurvivesFaults:
    def test_training_run_survives_worker_death_bit_identically(self):
        """End to end: a trainer with a FaultPolicy keeps the exact
        no-fault trajectory when a rollout worker is SIGKILLed between
        iterations."""
        from repro.core import Sim2RecConfig  # noqa: PLC0415
        from repro.core.config import scenario_small_config
        from repro.scenarios import trainer_from_config

        spec = {"family": "slate", "num_envs": 4, "num_users": 5, "horizon": 5}

        def build(fault_policy):
            config = scenario_small_config(seed=11)
            config.scenario = dict(spec)
            config.rollout_workers = 2
            config.fault_policy = fault_policy
            return trainer_from_config(config, dict(spec))

        with build(None) as trainer:
            trainer.pretrain_sadae(epochs=1)
            reference = [trainer.train_iteration() for _ in range(3)]
        with build(FAST_POLICY) as trainer:
            trainer.pretrain_sadae(epochs=1)
            metrics = [trainer.train_iteration()]
            os.kill(trainer._worker_pool._procs[0].pid, signal.SIGKILL)
            metrics += [trainer.train_iteration() for _ in range(2)]
            assert trainer._worker_pool.restart_counts[0] >= 1
        for expected, got in zip(reference, metrics):
            assert expected == got
