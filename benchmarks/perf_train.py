"""Training-backbone microbenchmark: sequential vs batched learner updates.

The learning-side companion of ``perf_rollout.py``: times the PPO update
loop with per-segment, per-step LSTM unrolls (``batch_segments=False``)
against the stacked-segment BPTT path (``batch_segments=True``, one
time-major ``[T, sum-of-users, d]`` pass per minibatch round with a fused
extractor unroll), and one SADAE epoch with per-set ELBO forwards against
the set-batched ``elbo_batch`` path. The ``ppo_update`` records cover a
context-free ``RecurrentActorCritic`` and the Sim2Rec policy, whose
stacked path also embeds each segment's T per-step SADAE sets at once.
Verifies the batched evaluation is bit-identical to the sequential one
before trusting the clock, and writes the results to ``BENCH_train.json``
so the speedup is tracked across PRs.

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

from repro.core import SADAE, SADAEConfig, Sim2RecConfig, build_sim2rec_policy, train_sadae
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
    """Stacked evaluation must reproduce per-segment evaluation bit for bit.

    A Sim2Rec policy samples its context υ from ``_eval_rng``, so both
    paths start from the same generator state.
    """
    segments = list(buffer)
    idxs = [np.arange(segment.num_users) for segment in segments]

    def reset_context_rng() -> None:
        if hasattr(policy, "_eval_rng"):
            policy._eval_rng = np.random.default_rng(0)

    reset_context_rng()
    sequential = [policy.evaluate_segment(s, i) for s, i in zip(segments, idxs)]
    reset_context_rng()
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


def bench_ppo_update(
    name: str, config: DPRConfig, horizon: int, repeats: int, policy_kind: str = "recurrent"
) -> dict:
    """Time PPO.update over one iteration's many-city buffer, both paths.

    ``policy_kind`` is ``"recurrent"`` (no context) or ``"sim2rec"``
    (SADAE context with the Table II default sizes).
    """
    world = DPRWorld(config)
    if policy_kind == "sim2rec":
        policy = build_sim2rec_policy(13, 2, Sim2RecConfig(seed=0))
    else:
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
        "policy": policy_kind,
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
            bench_ppo_update(
                "smoke_sim2rec_ppo",
                DPRConfig(num_cities=6, drivers_per_city=6, horizon=8, seed=0),
                horizon=5, repeats=repeats, policy_kind="sim2rec",
            ),
        ]
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
            # The many-city buffer again, through the Sim2Rec policy: the
            # stacked path also batches each segment's SADAE context.
            bench_ppo_update(
                "sim2rec_ppo",
                DPRConfig(num_cities=24, drivers_per_city=10, horizon=12, seed=0),
                horizon=10, repeats=repeats, policy_kind="sim2rec",
            ),
        ]

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
        "headline_speedup": results[0]["speedup"],
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output} (headline speedup {payload['headline_speedup']:.2f}x)")


if __name__ == "__main__":
    main()
