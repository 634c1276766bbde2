"""Rollout-engine microbenchmark: the full collection-mode sweep.

Times every rollout mode against the sequential per-city baseline:

- ``vectorized`` — one ``policy.act`` per timestep for all cities over an
  in-process :class:`VecEnvPool` (block-diagonal env stepping, no-grad
  fast path);
- ``shard_parallel`` — full rollouts in worker processes: policy
  replicas per shard (``sync_policy`` + ``collect_rollouts``, the unit a
  training iteration pays), so the whole act → step → record loop
  parallelises, swept over worker counts (the ``workers`` records);
- ``scenario_sweep`` — registry-driven scenario cases: every
  ``repro.scenarios`` family built from a pure config dict and driven
  through the vectorized engine, including a hundreds-of-envs SlateRec
  large-scale case (the workload the scenario subsystem exists for).

Every timed path is first proven **bit-identical** to the sequential
baseline through the same parity harness the test suite runs
(:mod:`repro.rl.parity` — the bench re-implements nothing); results go
to ``BENCH_rollout.json`` so speedups are tracked across PRs (and gated
in CI by ``.github/check_bench_regression.py``).

Worker speedups scale with physical cores: on a 1-CPU container
``shard_parallel`` records ~1x or below (the JSON carries ``cpu_count``
so the CI gate only enforces worker floors on multi-core runners). They
also depend on BLAS threading: default BLAS pools in the parent and
every worker oversubscribe the cores, so run with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1`` — the JSON
records all three variables (``blas_threads``).

``--chaos`` opts into a fault-injection sweep on top: scheduled worker
kills mid-collection (:mod:`repro.rl.chaos`) with supervision enabled,
reporting the per-incident recovery overhead — every faulted collection
passes the same bit-identity gate first.

Not a pytest module — run directly::

    python benchmarks/perf_rollout.py [--smoke] [--chaos] [--output PATH] [--workers 1,2,4]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

try:
    import repro.core  # noqa: F401  (probe a submodule so foreign 'repro' dists don't shadow the checkout)
except ImportError:  # running from a checkout: fall back to the src/ layout
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.envs import DPRConfig, DPRWorld
from repro.rl import (
    ChaosSchedule,
    FaultPolicy,
    FaultSpec,
    RecurrentActorCritic,
    ShardedVecEnvPool,
    VecEnvPool,
    collect_segment,
    collect_segments_sequential,
    collect_segments_vec,
    sharding_available,
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

    seq_times, vec_times = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        for env, rng in zip(envs_seq, rngs):
            collect_segment(env, policy, rng)
        seq_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        collect_segments_vec(pool, policy, rngs)
        vec_times.append(time.perf_counter() - start)

    sequential = min(seq_times)
    vectorized = min(vec_times)
    result = {
        "name": name,
        "num_cities": config.num_cities,
        "drivers_per_city": config.drivers_per_city,
        "horizon": config.horizon,
        "total_users": config.num_cities * config.drivers_per_city,
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


def _time_shard_parallel(pool, policy, rngs, repeats: int) -> float:
    """Steady-state full-rollout iteration: param broadcast + collection.

    The timed unit includes ``sync_policy`` because a training iteration
    pays it every time (fresh parameters); after the first broadcast it
    is the delta-free state-archive path, which is the steady state. An
    *unchanged* policy is skipped outright since the no-resend
    optimisation, so each repeat nudges one weight first — the timed
    broadcast is the real one a post-update iteration pays.
    """
    pool.sync_policy(policy)
    pool.collect_rollouts(rngs)  # warmup (structure already shipped)
    times = []
    param = policy.parameters()[0]
    original = param.data.copy()
    try:
        for _ in range(repeats):
            param.data += 1e-12
            start = time.perf_counter()
            pool.sync_policy(policy)
            pool.collect_rollouts(rngs)
            times.append(time.perf_counter() - start)
    finally:
        param.data[:] = original  # the shared policy must stay bit-exact
    return min(times)


def bench_workers(
    name: str,
    config: DPRConfig,
    worker_counts: tuple,
    repeats: int,
    sequential_s: float,
    vectorized_s: float,
) -> list:
    """Time shard-parallel collection per worker count; verify bitwise first.

    Returns one ``workers`` record per worker count, the records the CI
    worker floors gate. Speedups are against the sequential per-city
    loop (the end-to-end win a training run sees) and the single-process
    vectorized pool; expect < 1x on single-core machines where IPC
    serialises. Throughput is stacked user-steps per second.
    """
    world = DPRWorld(config)
    policy = make_policy(13, 2)
    total_steps = config.num_cities * config.drivers_per_city * config.horizon
    seq_ref = collect_segments_sequential(
        world.make_all_city_envs(), policy, make_rngs(world, 7)
    )
    records = []
    for workers in worker_counts:
        if not sharding_available():
            print(f"[{name}] workers={workers}: sharding unavailable, skipped")
            continue
        pool = ShardedVecEnvPool(world.make_all_city_envs(), num_workers=workers)
        try:
            # The acceptance contract, re-proven inside the bench for this
            # exact layout before the clock starts.
            pool.sync_policy(policy)
            collected = pool.collect_rollouts(make_rngs(world, 7))
            assert_segments_identical(
                seq_ref, collected, label=f"{name}/shard_parallel/workers={workers}"
            )
            best = _time_shard_parallel(pool, policy, make_rngs(world, 1000), repeats)
        finally:
            pool.close()
        record = {
            "num_workers": pool.num_workers,
            "shard_parallel_s": round(best, 6),
            "speedup_vs_sequential": round(sequential_s / best, 3),
            "speedup_vs_vectorized": round(vectorized_s / best, 3),
            "throughput_user_steps_per_s": round(total_steps / best, 1),
            "equivalent": True,
        }
        records.append(record)
        print(
            f"[{name}] shard_parallel workers={pool.num_workers}: {best:.3f}s "
            f"-> {record['speedup_vs_sequential']:.2f}x vs sequential, "
            f"{record['speedup_vs_vectorized']:.2f}x vs vectorized "
            f"({record['throughput_user_steps_per_s']:.0f} user-steps/s)"
        )
    return records


#: Supervision knobs for the chaos bench: short deadlines so a hang is
#: detected quickly, tiny backoff so the measured overhead is the
#: recovery machinery (snapshot respawn + re-run), not sleeps.
CHAOS_POLICY = FaultPolicy(
    max_restarts=2,
    backoff=0.01,
    broadcast_deadline=30.0,
    collect_deadline=120.0,
)

#: Fault cases injected by ``--chaos``: a worker dying the instant it is
#: asked to collect and one dying just before replying (the envs already
#: advanced a full episode, so the parent must respawn from the snapshot
#: and re-run the whole collect).
CHAOS_CASES = (
    ("kill_on_rollout", FaultSpec(kind="kill", worker=0, op="rollout", at=0)),
    (
        "kill_after_rollout",
        FaultSpec(kind="kill", worker=0, op="rollout", at=0, phase="reply"),
    ),
)


def bench_chaos(config: DPRConfig, worker_counts: tuple, repeats: int) -> list:
    """Opt-in fault-injection sweep: recovery cost of a mid-collect crash.

    For each worker count and fault case, a fresh supervised pool
    (:data:`CHAOS_POLICY`) collects one full rollout while the scheduled
    fault kills a worker; the collection must come back **bit-identical**
    to the sequential baseline (the same acceptance gate as the timed
    modes — recovery that alters results would be worse than a crash).
    The clean run rebuilds the identical pool without a schedule, so the
    reported ``recovery_overhead_s`` isolates detection + respawn +
    re-run. Single-rollout times on fresh pools, not steady state:
    recovery cost is a per-incident number.
    """
    world = DPRWorld(config)
    policy = make_policy(13, 2)
    seq_ref = collect_segments_sequential(
        world.make_all_city_envs(), policy, make_rngs(world, 7)
    )

    def one_collect(workers, chaos):
        pool = ShardedVecEnvPool(
            world.make_all_city_envs(),
            num_workers=workers,
            fault_policy=CHAOS_POLICY,
            chaos=chaos,
        )
        try:
            pool.sync_policy(policy)
            start = time.perf_counter()
            collected = pool.collect_rollouts(make_rngs(world, 7))
            elapsed = time.perf_counter() - start
            restarts = sum(pool.restart_counts)
            degraded = pool.degraded
        finally:
            pool.close()
        return collected, elapsed, restarts, degraded

    records = []
    for workers in worker_counts:
        for case, spec in CHAOS_CASES:
            clean_times, fault_times = [], []
            for _ in range(repeats):
                collected, elapsed, restarts, degraded = one_collect(workers, None)
                assert restarts == 0 and not degraded
                clean_times.append(elapsed)
                collected, elapsed, restarts, degraded = one_collect(
                    workers, ChaosSchedule(specs=[spec])
                )
                assert restarts == 1, f"fault did not fire (restarts={restarts})"
                assert not degraded
                assert_segments_identical(
                    seq_ref, collected, label=f"chaos/{case}/workers={workers}"
                )
                fault_times.append(elapsed)
            clean, faulted = min(clean_times), min(fault_times)
            record = {
                "case": case,
                "num_workers": workers,
                "clean_collect_s": round(clean, 6),
                "faulted_collect_s": round(faulted, 6),
                "recovery_overhead_s": round(faulted - clean, 6),
                "restarts": 1,
                "equivalent": True,
            }
            records.append(record)
            print(
                f"[chaos] {case} workers={workers}: clean={clean:.3f}s "
                f"faulted={faulted:.3f}s -> +{record['recovery_overhead_s']:.3f}s "
                "recovery overhead (bit-identical)"
            )
    return records


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
    to the sequential loop through the parity harness, then times both.
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
        seq_times, vec_times = [], []
        for _ in range(case_repeats):
            start = time.perf_counter()
            for env, rng in zip(envs_seq, streams):
                collect_segment(env, policy, rng)
            seq_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            collect_segments_vec(pool, policy, streams)
            vec_times.append(time.perf_counter() - start)

        sequential, vectorized = min(seq_times), min(vec_times)
        total_users = pool.num_users
        horizon = pool.horizon
        record = {
            "name": name,
            "spec": scenario.spec.to_dict(),
            "num_envs": count,
            "total_users": total_users,
            "horizon": horizon,
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
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="also run the fault-injection sweep: kill workers mid-collect "
        "and report per-incident recovery overhead (parity-gated)",
    )
    parser.add_argument(
        "--workers",
        type=str,
        default=None,
        help="comma-separated worker counts for the shard-parallel sweep (default 1,2,4)",
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
        sweep_scenarios = {"smoke_cross_city"}
        worker_counts = (1, 2)
        repeats = min(args.repeats, 2)
    else:
        scenarios = [
            # The ensemble-training regime Sim2Rec targets: many groups,
            # modest per-group user counts. This is the headline number.
            ("many_cities", DPRConfig(num_cities=48, drivers_per_city=10, horizon=20, seed=0)),
            ("wide_sweep", DPRConfig(num_cities=100, drivers_per_city=5, horizon=20, seed=0)),
            ("large_groups", DPRConfig(num_cities=12, drivers_per_city=64, horizon=20, seed=0)),
        ]
        sweep_scenarios = {"many_cities", "large_groups"}
        worker_counts = (1, 2, 4)
        repeats = args.repeats
    if args.workers:
        worker_counts = tuple(int(w) for w in args.workers.split(","))

    results = []
    for name, config in scenarios:
        result = bench_scenario(name, config, repeats)
        if name in sweep_scenarios:
            result["workers"] = bench_workers(
                name,
                config,
                worker_counts,
                repeats,
                result["sequential_s"],
                result["vectorized_s"],
            )
        results.append(result)
    scenario_sweep = bench_scenario_sweep(
        SCENARIO_CASES["smoke" if args.smoke else "full"], repeats
    )
    chaos_records = None
    if args.chaos:
        if sharding_available():
            # Recovery cost is per-incident, not throughput-bound: the
            # small smoke layout keeps the sweep fast at any scale.
            chaos_config = DPRConfig(
                num_cities=8, drivers_per_city=8, horizon=8, seed=0
            )
            chaos_records = bench_chaos(
                chaos_config, worker_counts, min(repeats, 2)
            )
        else:
            print("[chaos] sharding unavailable, skipped")
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
    if chaos_records is not None:
        payload["chaos"] = chaos_records
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output} (headline speedup {payload['headline_speedup']:.2f}x)")


if __name__ == "__main__":
    main()
