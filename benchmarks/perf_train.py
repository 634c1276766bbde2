"""Training-backbone microbenchmark: sequential vs batched learner updates.

The learning-side companion of ``perf_rollout.py``: times the PPO update
loop with per-segment LSTM unrolls (``batch_segments=False``) against the
stacked-segment BPTT path (``batch_segments=True``, one time-major
``[T, sum-of-users, d]`` pass per minibatch round), and one SADAE epoch
with per-set ELBO forwards against the set-batched ``elbo_batch`` path.
Verifies the batched evaluation is bit-identical to the sequential one
before trusting the clock, and writes the results to ``BENCH_train.json``
so the speedup is tracked across PRs.

A singleton ``pipelined`` record additionally times whole training
iterations with ``determinism="strict"`` against ``"pipelined"`` (the
collect/update overlap, docs/performance.md): its equivalence gate is
seeded run-to-run reproducibility of the pipelined trajectory, and its
CI floor is ``min_cpus``-gated — a 1-CPU machine has nothing to overlap.

Not a pytest module — run directly::

    python benchmarks/perf_train.py [--smoke] [--output PATH]
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

from repro.core import SADAE, SADAEConfig, train_sadae
from repro.envs import DPRConfig, DPRWorld
from repro.rl import (
    PPO,
    PPOConfig,
    RecurrentActorCritic,
    RolloutBuffer,
    collect_segments_vec,
)


#: BLAS thread-pool variables recorded in the payload (``None`` = unset).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def snapshot_parameters(module):
    return [param.data.copy() for param in module.parameters()]


def restore_parameters(module, snapshot):
    for param, data in zip(module.parameters(), snapshot):
        param.data = data.copy()


def verify_eval_equivalence(policy, buffer) -> None:
    """Stacked evaluation must reproduce per-segment evaluation bit for bit."""
    segments = list(buffer)
    idxs = [np.arange(segment.num_users) for segment in segments]
    sequential = [policy.evaluate_segment(s, i) for s, i in zip(segments, idxs)]
    log_probs, values, entropy = policy.evaluate_segments_batched(segments, idxs)
    offset = 0
    for (seq_lp, seq_v, seq_e), idx in zip(sequential, idxs):
        block = slice(offset, offset + len(idx))
        for name, a, b in (
            ("log_probs", seq_lp.data, log_probs.data[:, block]),
            ("values", seq_v.data, values.data[:, block]),
            ("entropy", seq_e.data, entropy.data[:, block]),
        ):
            if not np.array_equal(a, b):
                raise AssertionError(f"sequential/batched evaluation mismatch in {name}")
        offset += len(idx)


def bench_ppo_update(name: str, config: DPRConfig, horizon: int, repeats: int) -> dict:
    """Time PPO.update over one iteration's many-city buffer, both paths."""
    world = DPRWorld(config)
    policy = RecurrentActorCritic(
        13, 2, np.random.default_rng(0), lstm_hidden=64, head_hidden=(128, 64)
    )
    envs = world.make_all_city_envs()
    rngs = [np.random.default_rng(1000 + i) for i in range(len(envs))]
    buffer = RolloutBuffer()
    for segment in collect_segments_vec(envs, policy, rngs, max_steps=horizon):
        buffer.add(segment)
    buffer.finalize(0.99, 0.95)
    verify_eval_equivalence(policy, buffer)
    initial = snapshot_parameters(policy)

    def timed_update(batch_segments: bool) -> float:
        best = np.inf
        for _ in range(repeats):
            restore_parameters(policy, initial)
            ppo = PPO(policy, PPOConfig(update_epochs=2, batch_segments=batch_segments))
            start = time.perf_counter()
            ppo.update(buffer)
            best = min(best, time.perf_counter() - start)
        return best

    timed_update(True)  # warmup (scratch buffers, BLAS threads)
    sequential = timed_update(False)
    batched = timed_update(True)
    restore_parameters(policy, initial)
    result = {
        "name": name,
        "kind": "ppo_update",
        "num_cities": config.num_cities,
        "drivers_per_city": config.drivers_per_city,
        "horizon": horizon,
        "total_users": config.num_cities * config.drivers_per_city,
        "sequential_s": round(sequential, 6),
        "batched_s": round(batched, 6),
        "speedup": round(sequential / batched, 3),
        "equivalent": True,
    }
    print(
        f"[{name}] {config.num_cities} cities x {config.drivers_per_city} drivers, "
        f"T={horizon}: seq={sequential:.3f}s batched={batched:.3f}s "
        f"-> {result['speedup']:.2f}x"
    )
    return result


def bench_sadae_epoch(name: str, num_sets: int, users_per_set: int, repeats: int) -> dict:
    """Time SADAE epochs with per-set vs set-batched ELBO forwards."""
    rng = np.random.default_rng(0)
    sets = []
    for _ in range(num_sets):
        mean = rng.uniform(-2, 2, 2)
        sets.append(
            (rng.normal(mean, 1.0, (users_per_set, 2)), rng.normal(0, 1, (users_per_set, 1)))
        )
    sadae = SADAE(
        2,
        1,
        SADAEConfig(latent_dim=8, encoder_hidden=(64, 64), decoder_hidden=(64, 64), seed=0),
    )
    initial = snapshot_parameters(sadae)

    losses = {}

    def timed_epochs(batched: bool) -> float:
        best = np.inf
        for _ in range(repeats):
            restore_parameters(sadae, initial)
            start = time.perf_counter()
            losses[batched] = train_sadae(
                sadae, sets, epochs=2, rng=np.random.default_rng(7), batched=batched
            )
            best = min(best, time.perf_counter() - start)
        return best

    timed_epochs(True)  # warmup
    sequential = timed_epochs(False)
    batched = timed_epochs(True)
    # Per-step forwards are bit-identical given identical parameters
    # (enforced by tests/core/test_sadae_batched.py); across optimizer
    # steps the backward pass's summation order lets parameters drift at
    # the last ulp, so epoch means agree to ≤1e-10 rather than exactly.
    if not np.allclose(losses[False], losses[True], rtol=1e-10, atol=1e-10):
        raise AssertionError("sequential/batched SADAE losses diverged beyond 1e-10")
    result = {
        "name": name,
        "kind": "sadae_epoch",
        "num_sets": num_sets,
        "users_per_set": users_per_set,
        "sequential_s": round(sequential, 6),
        "batched_s": round(batched, 6),
        "speedup": round(sequential / batched, 3),
        "equivalent": True,
    }
    print(
        f"[{name}] {num_sets} sets x {users_per_set} users: "
        f"seq={sequential:.3f}s batched={batched:.3f}s -> {result['speedup']:.2f}x"
    )
    return result


def bench_pipelined(name: str, repeats: int, iterations: int, spec: dict) -> dict:
    """Time strict vs pipelined training end to end on a scenario run.

    The equivalence gate is the pipelined contract itself: the same
    config and seed must reproduce the same metric trajectory run to
    run (``verify_training_reproducibility``) before any clock is
    trusted. The speedup is bounded by min(collect, update) overlap and
    needs a second core to materialise — the record carries the payload
    ``cpu_count`` for exactly that reason, and the CI floor skips on
    single-CPU machines.
    """
    from repro.core.config import scenario_small_config
    from repro.rl import verify_training_reproducibility
    from repro.scenarios import trainer_from_config

    def build(determinism: str):
        config = scenario_small_config(seed=3)
        config.scenario = dict(spec)
        config.rollout_workers = 2
        config.determinism = determinism
        trainer = trainer_from_config(config, dict(spec))
        trainer.pretrain_sadae(epochs=1)
        return trainer

    verify_training_reproducibility(
        lambda: build("pipelined"), iterations=min(iterations, 3), runs=2, label=name
    )

    def timed(determinism: str) -> float:
        best = np.inf
        for _ in range(repeats):
            with build(determinism) as trainer:
                start = time.perf_counter()
                for _ in range(iterations):
                    trainer.train_iteration()
                best = min(best, time.perf_counter() - start)
        return best

    timed("pipelined")  # warmup (worker spawn, BLAS threads)
    strict = timed("strict")
    pipelined = timed("pipelined")
    result = {
        "name": name,
        "kind": "pipelined_train",
        "spec": dict(spec),
        "workers": 2,
        "iterations": iterations,
        "strict_s": round(strict, 6),
        "pipelined_s": round(pipelined, 6),
        "speedup": round(strict / pipelined, 3),
        "equivalent": True,
    }
    print(
        f"[{name}] {iterations} iterations, 2 workers: "
        f"strict={strict:.3f}s pipelined={pipelined:.3f}s "
        f"-> {result['speedup']:.2f}x"
    )
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny CI-sized run")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_train.json",
    )
    args = parser.parse_args()
    repeats = max(args.repeats, 1)

    if args.smoke:
        repeats = min(repeats, 2)
        results = [
            bench_ppo_update(
                "smoke_ppo", DPRConfig(num_cities=6, drivers_per_city=6, horizon=8, seed=0),
                horizon=5, repeats=repeats,
            ),
            bench_sadae_epoch("smoke_sadae", num_sets=8, users_per_set=40, repeats=repeats),
        ]
        pipelined = bench_pipelined(
            "smoke_pipelined", repeats=repeats, iterations=3,
            spec={"family": "slate", "num_envs": 4, "num_users": 5, "horizon": 5},
        )
    else:
        results = [
            # The many-city regime Sim2Rec targets: one iteration's buffer
            # holds one same-length segment per sampled city, so the
            # stacked pass amortises the per-step Python cost across all
            # of them. This is the headline number.
            bench_ppo_update(
                "many_cities_ppo",
                DPRConfig(num_cities=24, drivers_per_city=10, horizon=12, seed=0),
                horizon=10, repeats=repeats,
            ),
            bench_ppo_update(
                "wide_sweep_ppo",
                DPRConfig(num_cities=48, drivers_per_city=5, horizon=12, seed=0),
                horizon=10, repeats=repeats,
            ),
            bench_sadae_epoch("sadae_corpus", num_sets=48, users_per_set=100, repeats=repeats),
        ]
        pipelined = bench_pipelined(
            "pipelined_slate", repeats=repeats, iterations=4,
            spec={"family": "slate", "num_envs": 8, "num_users": 10, "horizon": 10},
        )

    payload = {
        "benchmark": "perf_train",
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "scenarios": results,
        "pipelined": pipelined,
        "headline_speedup": results[0]["speedup"],
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output} (headline speedup {payload['headline_speedup']:.2f}x)")


if __name__ == "__main__":
    main()
