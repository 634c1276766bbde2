"""Rollout-engine microbenchmark: vectorized vs sequential collection.

Times the in-process rollout engine against the sequential per-city
baseline:

- ``scenarios`` — ``vectorized``: one ``policy.act`` per timestep for
  all cities over an in-process :class:`VecEnvPool` (block-diagonal env
  stepping, no-grad fast path);
- ``scenario_sweep`` — registry-driven scenario cases: every
  ``repro.scenarios`` family built from a pure config dict and driven
  through the vectorized engine, including a hundreds-of-envs SlateRec
  large-scale case (the workload the scenario subsystem exists for).

Every timed path is first proven **bit-identical** to the sequential
baseline through the same parity harness the test suite runs
(:mod:`repro.rl.parity` — the bench re-implements nothing). Each path's
time is the median over ``--repeats`` alternated pairs (one run of each
path, the pair's first path alternating), so host drift hits both
alike; ``speedup`` is the ratio of the two medians. Results go to
``BENCH_rollout.json`` so speedups are tracked across PRs (and gated
in CI by ``.github/check_bench_regression.py``). Run with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1``, as CI does —
the JSON records all three variables (``blas_threads``) and
``cpu_count``.

Not a pytest module — run directly::

    python benchmarks/perf_rollout.py [--smoke] [--repeats N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path

import numpy as np

try:
    import repro.core  # noqa: F401  (probe a submodule so foreign 'repro' dists don't shadow the checkout)
except ImportError:  # running from a checkout: fall back to the src/ layout
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

try:
    from benchmarks.pair_timing import median_pair_times
except ImportError:  # run as a script: benchmarks/ itself is on sys.path
    from pair_timing import median_pair_times

from repro.envs import DPRConfig, DPRWorld
from repro.rl import (
    RecurrentActorCritic,
    VecEnvPool,
    collect_segment,
    collect_segments_sequential,
    collect_segments_vec,
)
from repro.rl.parity import assert_segments_identical
from repro.scenarios import make_scenario


#: BLAS thread-pool variables recorded in the payload (``None`` = unset).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def make_policy(state_dim: int, action_dim: int) -> RecurrentActorCritic:
    return RecurrentActorCritic(
        state_dim,
        action_dim,
        np.random.default_rng(0),
        lstm_hidden=64,
        head_hidden=(128, 64),
    )


def make_rngs(world: DPRWorld, seed: int):
    return [np.random.default_rng(seed + i) for i in range(world.num_cities)]


def bench_scenario(name: str, config: DPRConfig, repeats: int) -> dict:
    world = DPRWorld(config)
    envs_seq = world.make_all_city_envs()
    pool = VecEnvPool(world.make_all_city_envs())
    policy = make_policy(13, 2)
    rngs = make_rngs(world, 1000)

    # Pre-timing equivalence gate: the parity harness from the test
    # suite, not a bench-local reimplementation.
    seq_ref = collect_segments_sequential(
        world.make_all_city_envs(), policy, make_rngs(world, 7)
    )
    vec_ref = collect_segments_vec(
        world.make_all_city_envs(), policy, make_rngs(world, 7)
    )
    assert_segments_identical(seq_ref, vec_ref, label=f"{name}/vectorized")
    collect_segments_vec(pool, policy, rngs)  # warmup

    def sequential_path() -> None:
        for env, rng in zip(envs_seq, rngs):
            collect_segment(env, policy, rng)

    sequential, vectorized = median_pair_times(
        sequential_path, lambda: collect_segments_vec(pool, policy, rngs), repeats
    )
    result = {
        "name": name,
        "num_cities": config.num_cities,
        "drivers_per_city": config.drivers_per_city,
        "horizon": config.horizon,
        "total_users": config.num_cities * config.drivers_per_city,
        "pairs": repeats,
        "sequential_s": round(sequential, 6),
        "vectorized_s": round(vectorized, 6),
        "speedup": round(sequential / vectorized, 3),
        "equivalent": True,
    }
    print(
        f"[{name}] {config.num_cities} cities x {config.drivers_per_city} drivers, "
        f"T={config.horizon}: seq={sequential:.3f}s vec={vectorized:.3f}s "
        f"-> {result['speedup']:.2f}x"
    )
    return result


# Registry-driven scenario cases: pure config dicts resolved through
# repro.scenarios.make_scenario — the bench never hand-wires a family.
# The large-scale slate case (240 envs) is the headline workload the
# scenario subsystem targets; its floor is committed in
# .github/bench_baselines.json.
SCENARIO_CASES = {
    "smoke": [
        (
            "scenario_slate",
            {"family": "slate", "num_envs": 12, "num_users": 6, "horizon": 6,
             "slate_size": 3, "seed": 0},
        ),
        (
            "scenario_lts",
            {"family": "lts", "task": "LTS2", "num_users": 8, "horizon": 8, "seed": 0},
        ),
    ],
    "full": [
        (
            "scenario_slate_wide",
            {"family": "slate", "num_envs": 48, "num_users": 10, "horizon": 20,
             "slate_size": 5, "seed": 0},
        ),
        (
            "scenario_slate_large_240",
            {"family": "slate", "num_envs": 240, "num_users": 8, "horizon": 12,
             "slate_size": 5, "seed": 0},
        ),
        (
            "scenario_lts_tasks",
            {"family": "lts", "task": "LTS3", "num_users": 25, "horizon": 20, "seed": 0},
        ),
        (
            "scenario_dpr_cities",
            {"family": "dpr", "num_cities": 24, "drivers_per_city": 10, "horizon": 15,
             "seed": 0},
        ),
    ],
}


def bench_scenario_sweep(cases, repeats: int) -> list:
    """Time every registry scenario case: sequential vs vectorized.

    Each case builds its training population twice from the same spec
    (fresh envs per path), proves the vectorized collection bit-identical
    to the sequential loop through the parity harness, then times both
    over alternated pairs (half as many for cases of 100 envs or more).
    Throughput is stacked user-steps per second.
    """
    records = []
    for name, spec in cases:
        scenario = make_scenario(spec)
        policy = make_policy(scenario.state_dim, scenario.action_dim)
        count = scenario.num_train_envs

        def rngs(seed):
            return [np.random.default_rng(seed + i) for i in range(count)]

        seq_ref = collect_segments_sequential(
            scenario.make_train_envs(), policy, rngs(7)
        )
        vec_ref = collect_segments_vec(scenario.make_train_envs(), policy, rngs(7))
        assert_segments_identical(seq_ref, vec_ref, label=f"{name}/vectorized")

        envs_seq = scenario.make_train_envs()
        pool = VecEnvPool(scenario.make_train_envs())
        streams = rngs(1000)
        collect_segments_vec(pool, policy, streams)  # warmup
        case_repeats = max(1, repeats if count < 100 else repeats // 2)

        def sequential_path() -> None:
            for env, rng in zip(envs_seq, streams):
                collect_segment(env, policy, rng)

        sequential, vectorized = median_pair_times(
            sequential_path, lambda: collect_segments_vec(pool, policy, streams), case_repeats
        )
        total_users = pool.num_users
        horizon = pool.horizon
        record = {
            "name": name,
            "spec": scenario.spec.to_dict(),
            "num_envs": count,
            "total_users": total_users,
            "horizon": horizon,
            "pairs": case_repeats,
            "sequential_s": round(sequential, 6),
            "vectorized_s": round(vectorized, 6),
            "speedup": round(sequential / vectorized, 3),
            "throughput_user_steps_per_s": round(total_users * horizon / vectorized, 1),
            "equivalent": True,
        }
        records.append(record)
        print(
            f"[{name}] {count} envs x {total_users // count} users "
            f"({scenario.spec.family}), T={horizon}: seq={sequential:.3f}s "
            f"vec={vectorized:.3f}s -> {record['speedup']:.2f}x"
        )
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny CI-sized run")
    parser.add_argument(
        "--repeats", type=int, default=5, help="alternated timing pairs per record"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_rollout.json",
    )
    args = parser.parse_args()
    args.repeats = max(args.repeats, 1)

    if args.smoke:
        scenarios = [
            ("smoke_cross_city", DPRConfig(num_cities=8, drivers_per_city=8, horizon=8, seed=0)),
        ]
        repeats = min(args.repeats, 3)
    else:
        scenarios = [
            # The ensemble-training regime Sim2Rec targets: many groups,
            # modest per-group user counts. This is the headline number.
            ("many_cities", DPRConfig(num_cities=48, drivers_per_city=10, horizon=20, seed=0)),
            ("wide_sweep", DPRConfig(num_cities=100, drivers_per_city=5, horizon=20, seed=0)),
            ("large_groups", DPRConfig(num_cities=12, drivers_per_city=64, horizon=20, seed=0)),
        ]
        repeats = args.repeats

    results = [bench_scenario(name, config, repeats) for name, config in scenarios]
    scenario_sweep = bench_scenario_sweep(
        SCENARIO_CASES["smoke" if args.smoke else "full"], repeats
    )
    payload = {
        "benchmark": "perf_rollout",
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "scenarios": results,
        "scenario_sweep": scenario_sweep,
        "headline_speedup": max(r["speedup"] for r in results),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output} (headline speedup {payload['headline_speedup']:.2f}x)")


if __name__ == "__main__":
    main()
