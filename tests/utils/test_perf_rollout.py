"""The rollout bench: what it times and what it records."""

import importlib.util
from pathlib import Path

import pytest

from repro.envs import DPRConfig

ROOT = Path(__file__).resolve().parents[2]

TINY = DPRConfig(num_cities=3, drivers_per_city=4, horizon=4, seed=1)


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "perf_rollout", ROOT / "benchmarks" / "perf_rollout.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scenario_record_is_parity_checked(bench):
    """One record per DPR layout: both median timings, their ratio, the
    pair count and the equivalence flag the CI gate enforces."""
    record = bench.bench_scenario("tiny", TINY, repeats=2)
    assert set(record) == {
        "name",
        "num_cities",
        "drivers_per_city",
        "horizon",
        "total_users",
        "pairs",
        "sequential_s",
        "vectorized_s",
        "speedup",
        "equivalent",
    }
    assert record["equivalent"] is True
    assert record["total_users"] == 12
    assert record["pairs"] == 2
    assert record["speedup"] == pytest.approx(
        record["sequential_s"] / record["vectorized_s"], rel=1e-2
    )


def test_scenario_sweep_records_every_case(bench):
    """Each registry case is built from its config dict, parity-checked
    and timed; the record carries the resolved spec."""
    cases = [
        ("tiny_slate", {"family": "slate", "num_envs": 3, "num_users": 4, "horizon": 3,
                        "slate_size": 2, "seed": 0}),
        ("tiny_lts", {"family": "lts", "task": "LTS2", "num_users": 4, "horizon": 3,
                      "seed": 0}),
    ]
    records = bench.bench_scenario_sweep(cases, repeats=1)
    assert [record["name"] for record in records] == ["tiny_slate", "tiny_lts"]
    for record, (_, spec) in zip(records, cases):
        assert record["equivalent"] is True
        assert record["spec"]["family"] == spec["family"]
        assert record["throughput_user_steps_per_s"] > 0
