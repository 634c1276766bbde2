"""The pipelined determinism contract (``Sim2RecConfig.determinism``).

Strict mode's bit-parity grid is untouched (``tests/rl/``,
``tests/core/test_trainer.py``); this module owns what pipelined mode
promises instead: seeded run-to-run reproducibility, identical
trajectories across worker counts (ineligible launches execute the same
schedule synchronously), replica staleness of exactly one iteration,
checkpoint/resume that drains a mid-flight prefetch onto the unbroken
trajectory, and fault recovery of an in-flight prefetch without hangs.
"""

import os
import signal

import numpy as np
import pytest

from repro.core.config import Sim2RecConfig, scenario_small_config
from repro.rl import sharding_available, verify_training_reproducibility
from repro.rl.workers import FaultPolicy, _replica_state
from repro.scenarios import trainer_from_config

pytestmark = pytest.mark.skipif(
    not sharding_available(), reason="platform has no multiprocessing start method"
)

SPEC = {"family": "slate", "num_envs": 4, "num_users": 5, "horizon": 5}

FAST_POLICY = FaultPolicy(
    max_restarts=2,
    backoff=0.0,
    broadcast_deadline=15.0,
    collect_deadline=30.0,
    graceful_join=0.5,
)


def build_trainer(
    workers: int = 2,
    determinism: str = "pipelined",
    seed: int = 11,
    fault_policy=None,
    **config_overrides,
):
    config = scenario_small_config(seed=seed)
    config.scenario = dict(SPEC)
    config.rollout_workers = workers
    config.determinism = determinism
    config.fault_policy = fault_policy
    for key, value in config_overrides.items():
        setattr(config, key, value)
    trainer = trainer_from_config(config, dict(SPEC))
    trainer.pretrain_sadae(epochs=1)
    return trainer


def run_metrics(iterations: int = 3, **kwargs):
    with build_trainer(**kwargs) as trainer:
        return [trainer.train_iteration() for _ in range(iterations)]


class TestDeterminismFlag:
    def test_strict_is_the_default(self):
        assert Sim2RecConfig().resolved_determinism() == "strict"

    def test_unknown_value_rejected(self):
        config = Sim2RecConfig(determinism="fast-and-loose")
        with pytest.raises(ValueError, match="fast-and-loose"):
            config.resolved_determinism()
        with pytest.raises(ValueError):
            config.determinism = "eventual"
            config.resolved_determinism()

    def test_strict_trainer_has_no_prefetch_state(self):
        """Strict runs never touch the prefetch machinery."""
        with build_trainer(determinism="strict") as trainer:
            trainer.train_iteration()
            assert trainer._prefetch is None


class TestPipelinedReproducibility:
    def test_seeded_run_to_run_reproducibility(self):
        """Same config + seed => same metric trajectory, every run."""
        reference = verify_training_reproducibility(
            build_trainer, iterations=3, runs=2, label="pipelined"
        )
        assert [m["collect_lag"] for m in reference] == [0.0, 1.0, 1.0]

    def test_worker_counts_share_one_trajectory(self):
        """An in-process pipelined run (workers=1 launches collect the
        schedule synchronously) is identical to the overlapped 2-worker
        run — the contract that lets 1-CPU CI certify the overlap path."""
        assert run_metrics(workers=2) == run_metrics(workers=1)

    def test_pipelined_is_not_strict(self):
        """The stale-by-one policy is real: trajectories diverge from
        strict after the first update."""
        pipelined = run_metrics(determinism="pipelined")
        strict = run_metrics(determinism="strict")
        assert pipelined[0]["reward"] == strict[0]["reward"]  # both fresh at 0
        assert [m["reward"] for m in pipelined[1:]] != [m["reward"] for m in strict[1:]]
        assert all("collect_lag" not in m for m in strict)

    def test_replica_staleness_is_exactly_one_iteration(self):
        """After iteration k the workers hold the policy as it stood
        when iteration k returned minus one — the weights that collected
        the in-flight prefetch are exactly one update behind."""

        def snapshot(policy):
            return {k: v.copy() for k, v in _replica_state(policy).items()}

        with build_trainer(workers=2) as trainer:
            states = []
            for _ in range(3):
                trainer.train_iteration()
                states.append(snapshot(trainer.policy))
            pool = trainer._worker_pool
            assert pool is not None and trainer._prefetch is not None
            replica = pool._replica_cache
            assert set(replica) == set(states[-2])
            for key in replica:
                np.testing.assert_array_equal(replica[key], states[-2][key])
            assert any(
                not np.array_equal(replica[key], states[-1][key]) for key in replica
            )


class TestPipelinedCheckpoint:
    def test_checkpoint_mid_prefetch_drains_onto_unbroken_trajectory(self, tmp_path):
        """A checkpoint taken with a prefetch in flight drains it; both
        the checkpointing run and a resumed fresh trainer continue the
        unbroken run's exact metric trajectory, and the archive carries
        the drained segments."""
        from repro.nn.serialization import load_state

        reference = run_metrics(iterations=5)
        path = tmp_path / "pipelined.npz"
        with build_trainer() as trainer:
            # At seed 11 the launch after the third iteration is a single
            # shard_parallel round (no duplicate env draws), so the
            # prefetch is genuinely dispatched to the workers here.
            got = [trainer.train_iteration() for _ in range(3)]
            assert trainer._prefetch is not None
            assert trainer._prefetch["pool"] is not None  # genuinely in flight
            trainer.save_checkpoint(path)
            assert trainer._prefetch["pool"] is None  # drained in place
            got += [trainer.train_iteration() for _ in range(2)]
        assert got == reference
        archive = load_state(path)
        assert "prefetch.segments" in archive and "prefetch.envs" in archive

        with build_trainer() as resumed:
            assert resumed.load_checkpoint(path) == 3
            assert resumed._prefetch is not None
            assert resumed._prefetch["segments"] is not None
            tail = [resumed.train_iteration() for _ in range(2)]
        assert tail == reference[3:]

    def test_strict_checkpoint_has_no_prefetch_keys(self, tmp_path):
        from repro.nn.serialization import load_state

        path = tmp_path / "strict.npz"
        with build_trainer(determinism="strict") as trainer:
            trainer.train_iteration()
            trainer.save_checkpoint(path)
        assert not any(key.startswith("prefetch.") for key in load_state(path))

    def test_periodic_checkpointing_stays_on_trajectory(self, tmp_path):
        """checkpoint_every drains the just-launched prefetch every
        period — the trajectory must not fork from an uncheckpointed run."""
        reference = run_metrics(iterations=4)
        got = run_metrics(
            iterations=4,
            checkpoint_every=2,
            checkpoint_path=str(tmp_path / "auto.npz"),
        )
        assert got == reference

    def test_close_discards_inflight_prefetch(self):
        trainer = build_trainer()
        trainer.train_iteration()
        assert trainer._prefetch is not None
        trainer.close()
        assert trainer._prefetch is None
        trainer.close()  # idempotent


class TestPipelinedFaults:
    def test_worker_death_mid_prefetch_recovers_bit_identically(self):
        """SIGKILL a worker while the prefetch is in flight: the next
        consume recovers it under the FaultPolicy and the run keeps the
        no-fault pipelined trajectory."""
        reference = run_metrics(iterations=3, fault_policy=None)
        with build_trainer(fault_policy=FAST_POLICY) as trainer:
            metrics = [trainer.train_iteration()]
            assert trainer._prefetch is not None
            os.kill(trainer._worker_pool._procs[0].pid, signal.SIGKILL)
            metrics += [trainer.train_iteration() for _ in range(2)]
            assert trainer._worker_pool.restart_counts[0] >= 1
        assert metrics == reference
