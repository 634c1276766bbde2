"""Fault injection against the supervised evaluation pool.

The contract under test (see ``repro.rl.workers``, *Failure handling*):
with a :class:`FaultPolicy`, any worker crash / hang / dropped reply /
stale replica recovers **bit-identically** — a recovered evaluation
sweep equals in-process ``evaluate`` in its per-env totals and
owner-RNG end states. When the restart budget runs out, the pool
degrades gracefully to in-process execution — still bit-identical — and
never leaks worker processes. Faults come from the deterministic
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
from repro.obs import MetricsRegistry
from repro.rl import (
    ChaosSchedule,
    FaultPolicy,
    FaultSpec,
    RecurrentActorCritic,
    ShardedVecEnvPool,
    WorkerCrashed,
    WorkerTimeout,
    evaluate,
    sharding_available,
)
from repro.rl import workers as workers_module
from repro.rl.chaos import apply_fault

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


def make_envs(num=5, seed=3):
    world = DPRWorld(DPRConfig(num_cities=num, drivers_per_city=4, horizon=5, seed=seed))
    return world.make_all_city_envs()


def make_policy():
    return RecurrentActorCritic(
        13, 2, np.random.default_rng(0), lstm_hidden=12, head_hidden=(16,)
    )


@pytest.fixture(autouse=True)
def no_leaks():
    """Every test must reap its workers."""
    yield
    deadline = time.monotonic() + 5.0
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not mp.active_children(), "leaked worker processes"


def spec_for(kind, op, workers, phase="receive"):
    """One fault aimed at the last worker of the pool (worker 0 if solo)."""
    return FaultSpec(kind, worker=max(workers - 1, 0), op=op, at=0, phase=phase)


def rngs_for(count, seed):
    return [np.random.default_rng(seed + i) for i in range(count)]


#: Evaluation sweep shape shared by every recovery case.
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


class TestRecoveryParityGrid:
    """kill / hang / corrupt on the replica broadcast, and kill / hang on
    the env load, × 1, 2, 4 shards."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["kill", "hang", "corrupt"])
    def test_recovered_broadcast_is_bit_identical(self, kind, shards):
        """A fault in the first sync respawns the worker; the sweep that
        follows matches in-process evaluate bit for bit. A corrupted
        stamp surfaces only at that sweep, which is re-issued."""
        policy = make_policy()
        expected, expected_states = evaluate_in_process(policy, 500 + shards)
        if kind == "corrupt":
            chaos = ChaosSchedule([spec_for("corrupt_stamp", "replica", shards)])
        elif kind == "hang":
            chaos = ChaosSchedule(
                [
                    FaultSpec(
                        "hang",
                        worker=max(shards - 1, 0),
                        op="replica",
                        at=0,
                        hang_seconds=120.0,
                    )
                ]
            )
        else:
            chaos = ChaosSchedule([spec_for("kill", "replica", shards)])
        fault = FaultPolicy(
            max_restarts=2,
            backoff=0.0,
            broadcast_deadline=0.5 if kind == "hang" else 15.0,
            collect_deadline=0.5 if kind == "hang" else 30.0,
            graceful_join=0.5,
        )
        totals, states, restarts, degraded = evaluate_sharded(
            policy, 500 + shards, shards, fault_policy=fault, chaos=chaos
        )
        assert restarts[shards - 1] == 1 and not degraded
        np.testing.assert_array_equal(totals, expected)
        assert states == expected_states

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["kill", "hang"])
    def test_recovered_load_is_bit_identical(self, kind, shards):
        """A fault in load_envs respawns the worker from its pre-load
        snapshot with the archived replica and re-issues the load; the
        sweep over the new envs matches in-process evaluate bit for bit."""
        policy = make_policy()
        rngs = rngs_for(5, 560 + shards)
        expected = evaluate(policy, make_envs(seed=9), rng=rngs, **EVAL_KWARGS)
        expected_states = [rng.bit_generator.state for rng in rngs]
        chaos = ChaosSchedule(
            [FaultSpec(kind, worker=shards - 1, op="load", at=0, hang_seconds=120.0)]
        )
        fault = FaultPolicy(
            max_restarts=2,
            backoff=0.0,
            broadcast_deadline=0.5 if kind == "hang" else 15.0,
            graceful_join=0.5,
        )
        rngs = rngs_for(5, 560 + shards)
        with ShardedVecEnvPool(
            make_envs(), num_workers=shards, fault_policy=fault, chaos=chaos
        ) as pool:
            pool.sync_policy(policy)
            pool.load_envs(make_envs(seed=9))
            totals = evaluate(policy, pool, rng=rngs, **EVAL_KWARGS)
            assert pool.restart_counts[shards - 1] == 1 and not pool.degraded
            assert pool.replica_broadcasts == 1
        np.testing.assert_array_equal(totals, expected)
        assert [rng.bit_generator.state for rng in rngs] == expected_states

    def test_externally_killed_worker_recovers(self):
        """SIGKILL from outside (the OOM-killer case), not via the schedule.

        Two back-to-back sweeps with a kill in between: the respawn
        restores the *advanced* env state the first sweep produced (the
        recovery snapshots refresh from the workers after every sweep),
        so sweep 2 matches a fault-free in-process sweep 2 exactly.
        """
        policy = make_policy()
        reference_envs = make_envs()
        ref1 = evaluate(policy, reference_envs, rng=rngs_for(5, 40), **EVAL_KWARGS)
        ref2 = evaluate(policy, reference_envs, rng=rngs_for(5, 90), **EVAL_KWARGS)
        with ShardedVecEnvPool(
            make_envs(), num_workers=2, fault_policy=FAST_POLICY
        ) as pool:
            first = evaluate(policy, pool, rng=rngs_for(5, 40), **EVAL_KWARGS)
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            second = evaluate(policy, pool, rng=rngs_for(5, 90), **EVAL_KWARGS)
            assert pool.restart_counts[1] == 1
        np.testing.assert_array_equal(first, ref1)
        np.testing.assert_array_equal(second, ref2)


class TestGracefulDegradation:
    def test_budget_exhaustion_degrades_bit_identically(self):
        """A persistent fault in the broadcast burns the restart budget;
        the pool swaps in an in-process VecEnvPool rebuilt from snapshots
        and the sweep still matches in-process evaluate to the byte."""
        policy = make_policy()
        expected, expected_states = evaluate_in_process(policy, 800)
        chaos = ChaosSchedule(
            [FaultSpec("kill", worker=0, op="replica", at=0)], persistent=True
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            totals, states, _, degraded = evaluate_sharded(
                policy, 800, 2, fault_policy=FAST_POLICY, chaos=chaos
            )
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "restart budget" in str(w.message)
            for w in caught
        )
        assert degraded
        np.testing.assert_array_equal(totals, expected)
        assert states == expected_states

    def test_degraded_pool_keeps_serving(self):
        """After degradation every subsequent op (evaluate, sync, load)
        runs in-process and multi-episode streams stay continuous."""
        policy, updated = make_policy(), make_policy()
        updated.parameters()[0].data += 1e-3
        reference_envs, streams = make_envs(), rngs_for(5, 50)
        ref1 = evaluate(policy, reference_envs, rng=streams, **EVAL_KWARGS)
        ref2 = evaluate(policy, reference_envs, rng=streams, **EVAL_KWARGS)
        ref3 = evaluate(updated, reference_envs, rng=streams, **EVAL_KWARGS)
        ref4 = evaluate(updated, make_envs(), rng=rngs_for(5, 60), **EVAL_KWARGS)
        chaos = ChaosSchedule([FaultSpec("kill", worker=0, op="evaluate", at=0)])
        owned = rngs_for(5, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with ShardedVecEnvPool(
                make_envs(),
                num_workers=2,
                fault_policy=FaultPolicy(max_restarts=0, backoff=0.0),
                chaos=chaos,
            ) as pool:
                pool.sync_policy(policy)
                got1 = pool.evaluate_policy(owned, **EVAL_KWARGS)
                assert pool.degraded
                got2 = pool.evaluate_policy(owned, **EVAL_KWARGS)
                assert pool.sync_policy(updated) == 2
                got3 = pool.evaluate_policy(owned, **EVAL_KWARGS)
                pool.load_envs(make_envs())
                got4 = pool.evaluate_policy(rngs_for(5, 60), **EVAL_KWARGS)
        for label, got, ref in (
            ("ep1", got1, ref1), ("ep2", got2, ref2), ("synced", got3, ref3),
            ("loaded", got4, ref4),
        ):
            np.testing.assert_array_equal(got, ref, err_msg=f"degraded/{label}")
        assert [rng.bit_generator.state for rng in owned] == [
            rng.bit_generator.state for rng in streams
        ]


class TestEvaluateRecovery:
    """The worker-side evaluate path recovers from every fault kind."""

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

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("phase", ["receive", "reply"])
    def test_sweep_after_sweep_respawns_from_post_sweep_snapshot(self, phase, shards):
        """A sweep advances the worker-side envs and its reply refreshes
        the recovery snapshots: a worker killed in the next sweep is
        rebuilt in its post-sweep state, so the recovered sweep equals
        an in-process run of the same two sweeps. The last shard is the
        one killed, at 2 and at 4 shards."""
        policy = make_policy()
        reference_envs = make_envs()
        expected = evaluate(policy, reference_envs, rng=rngs_for(5, 300), **EVAL_KWARGS)
        reference = evaluate(policy, reference_envs, rng=rngs_for(5, 400), **EVAL_KWARGS)
        unswept = evaluate(policy, make_envs(), rng=rngs_for(5, 400), **EVAL_KWARGS)
        assert not np.array_equal(unswept, reference)
        chaos = ChaosSchedule(
            [FaultSpec("kill", worker=shards - 1, op="evaluate", at=1, phase=phase)]
        )
        with ShardedVecEnvPool(
            make_envs(), num_workers=shards, fault_policy=FAST_POLICY, chaos=chaos
        ) as pool:
            totals = evaluate(policy, pool, rng=rngs_for(5, 300), **EVAL_KWARGS)
            second = evaluate(policy, pool, rng=rngs_for(5, 400), **EVAL_KWARGS)
            assert pool.restart_counts == [0] * (shards - 1) + [1]
            assert not pool.degraded
        np.testing.assert_array_equal(totals, expected)
        np.testing.assert_array_equal(second, reference)

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
        """After a sweep degrades the pool, the next sweep runs in-process
        on the envs the first one advanced — matching a pool that never
        forked."""
        policy = make_policy()
        reference_envs = make_envs()
        expected = evaluate(policy, reference_envs, rng=rngs_for(5, 310), **EVAL_KWARGS)
        reference = evaluate(policy, reference_envs, rng=rngs_for(5, 410), **EVAL_KWARGS)
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
                second = evaluate(policy, pool, rng=rngs_for(5, 410), **EVAL_KWARGS)
        np.testing.assert_array_equal(totals, expected)
        np.testing.assert_array_equal(second, reference)


class TestLegacyContract:
    def test_without_fault_policy_crash_closes_and_raises(self):
        """No FaultPolicy = the pre-supervision contract: fail fast."""
        chaos = ChaosSchedule([FaultSpec("kill", worker=0, op="evaluate", at=0)])
        pool = ShardedVecEnvPool(make_envs(), num_workers=2, chaos=chaos)
        policy = make_policy()
        pool.sync_policy(policy)
        with pytest.raises(WorkerCrashed):
            pool.evaluate_policy([np.random.default_rng(i) for i in range(5)])
        assert pool.closed

    def test_timeout_is_a_crash_subclass(self):
        assert issubclass(WorkerTimeout, WorkerCrashed)


class TestProcessHygiene:
    def test_sigterm_ignoring_worker_is_killed(self, monkeypatch):
        """The zombie case: workers that ignore SIGTERM and hang on close
        must still die (SIGKILL escalation). Both shutdown graces are
        shortened: the escalation, not its timing, is under test."""
        monkeypatch.setattr(workers_module, "_CLOSE_GRACE_S", 0.05)
        monkeypatch.setattr(workers_module, "_TERMINATE_GRACE_S", 0.05)
        chaos = ChaosSchedule(
            [FaultSpec("hang", worker=w, op="close", hang_seconds=300.0) for w in range(2)],
            ignore_sigterm=True,
        )
        pool = ShardedVecEnvPool(make_envs(), num_workers=2, chaos=chaos)
        pool.sync_policy(make_policy())
        pool.evaluate_policy(rngs_for(5, 0))
        pids = [proc.pid for proc in pool._procs]
        pool.close()
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
            returns = pool.evaluate_policy(
                [np.random.default_rng(i) for i in range(5)]
            )
            assert len(returns) == 5

    def test_respawned_workers_are_fault_free_by_default(self):
        """A one-shot schedule fires once per original worker; the
        respawn runs clean, so restart_counts stays at one."""
        chaos = ChaosSchedule([FaultSpec("kill", worker=0, op="evaluate", at=0)])
        policy = make_policy()
        with ShardedVecEnvPool(
            make_envs(), num_workers=2, fault_policy=FAST_POLICY, chaos=chaos
        ) as pool:
            pool.sync_policy(policy)
            for round_index in range(3):
                pool.evaluate_policy(
                    [np.random.default_rng(round_index * 10 + i) for i in range(5)]
                )
            assert pool.restart_counts == [1, 0]
            assert not pool.degraded


class TestSupervisionMetrics:
    def test_respawns_and_degradation_are_counted(self):
        """set_metrics wires the respawn counter and the degraded gauge:
        a persistent fault respawns shard 0 up to the budget, then flips
        the gauge once the pool degrades."""
        registry = MetricsRegistry()
        chaos = ChaosSchedule(
            [FaultSpec("kill", worker=0, op="evaluate", at=0)], persistent=True
        )
        with ShardedVecEnvPool(
            make_envs(), num_workers=2, fault_policy=FAST_POLICY, chaos=chaos
        ) as pool:
            pool.set_metrics(registry)
            assert registry.value("rollout_pool_degraded") == 0.0
            pool.sync_policy(make_policy())
            with pytest.warns(RuntimeWarning, match="restart budget"):
                pool.evaluate_policy(rngs_for(5, 0))
            assert pool.degraded
        assert registry.value("rollout_worker_respawns_total", "0") == 2.0
        assert registry.value("rollout_worker_respawns_total", "1") == 0.0
        assert registry.value("rollout_pool_degraded") == 1.0


class TestFaultPrimitives:
    def test_fault_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("explode")
        with pytest.raises(ValueError, match="op"):
            FaultSpec("kill", op="dance")
        with pytest.raises(ValueError, match="op"):
            FaultSpec("kill", op="rollout")  # the pool only evaluates
        with pytest.raises(ValueError, match="phase"):
            FaultSpec("kill", phase="later")
        with pytest.raises(ValueError, match="replica"):
            FaultSpec("corrupt_stamp", op="evaluate")

    def test_schedule_counts_per_op_and_fires_once(self):
        schedule = ChaosSchedule([FaultSpec("drop_reply", op="evaluate", at=1)])
        assert schedule.match("evaluate", "receive") is None      # occurrence 0
        spec = schedule.match("evaluate", "receive")               # occurrence 1
        assert spec is not None and spec.kind == "drop_reply"
        assert schedule.match("evaluate", "receive") is None       # already fired

    def test_schedule_pickle_resets_counters(self):
        import pickle

        schedule = ChaosSchedule([FaultSpec("drop_reply", op="evaluate", at=0)])
        assert schedule.match("evaluate", "receive") is not None
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone.match("evaluate", "receive") is not None  # counters reset

    def test_for_worker_filters_and_none_means_clean(self):
        schedule = ChaosSchedule([FaultSpec("kill", worker=3, op="evaluate")])
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
