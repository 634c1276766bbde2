"""The rollout bench's worker sweep: what it times and what it records."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.envs import DPRConfig, DPRWorld
from repro.rl import ShardedVecEnvPool, sharding_available

ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    not sharding_available(), reason="platform has no multiprocessing start method"
)

TINY = DPRConfig(num_cities=3, drivers_per_city=4, horizon=4, seed=1)


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "perf_rollout", ROOT / "benchmarks" / "perf_rollout.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worker_records_time_shard_parallel(bench):
    """One parity-checked shard_parallel record per worker count — the
    records the CI worker floors gate."""
    records = bench.bench_workers(
        "tiny", TINY, (1, 2), repeats=1, sequential_s=1.0, vectorized_s=1.0
    )
    assert [record["num_workers"] for record in records] == [1, 2]
    for record in records:
        assert set(record) == {
            "num_workers",
            "shard_parallel_s",
            "speedup_vs_sequential",
            "speedup_vs_vectorized",
            "throughput_user_steps_per_s",
            "equivalent",
        }
        assert record["equivalent"] is True
        assert record["shard_parallel_s"] > 0
        assert record["speedup_vs_sequential"] == pytest.approx(
            1.0 / record["shard_parallel_s"], rel=1e-2
        )


def test_timed_unit_pays_a_real_broadcast_and_restores_the_policy(bench):
    """Each repeat nudges a weight so sync_policy ships a real broadcast
    (an unchanged policy is skipped), and the shared policy comes back
    bit-exact for the records that follow."""
    world = DPRWorld(TINY)
    policy = bench.make_policy(13, 2)
    before = [param.data.copy() for param in policy.parameters()]
    with ShardedVecEnvPool(world.make_all_city_envs(), num_workers=2) as pool:
        best = bench._time_shard_parallel(pool, policy, bench.make_rngs(world, 0), 3)
        assert best > 0
        assert pool.replica_broadcasts == 1 + 3  # warmup sync + one per repeat
    for original, param in zip(before, policy.parameters()):
        np.testing.assert_array_equal(original, param.data)
