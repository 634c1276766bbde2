"""Training-backbone microbenchmark: per-item references vs the stacked learner forms.

The learning-side companion of ``perf_rollout.py``. Both learners take
every step through a stacked form, and each keeps a per-item reference
that tests check it against; this bench times the two, forward and
backward, on the same steps:

- ``ppo_update`` records run the minibatch rounds ``PPO.update`` takes
  over one iteration's many-city buffer (two epochs). The reference side
  evaluates each round segment by segment with ``evaluate_segment``
  (per-step LSTM unrolls); the stacked side evaluates it with one
  ``evaluate_segments_batched`` call (one time-major
  ``[T, sum-of-users, d]`` pass with a fused extractor unroll). They
  cover a context-free ``RecurrentActorCritic`` and the Sim2Rec policy,
  whose stacked pass also embeds each segment's T per-step SADAE sets at
  once.
- ``sadae_epoch`` records run two epochs of ``train_sadae``-sized steps
  (8 sets each) with one ``SADAE.elbo`` per set against one
  ``SADAE.elbo_batch`` per step.

Neither side takes an optimizer step, so every repeat times the same
parameters. Before the clock starts, the stacked forms are checked bit
for bit against the references: the PPO evaluation over the whole
buffer and every per-set ELBO. Each path's time is the median over
``--repeats`` alternated pairs (one run of each path, the pair's first
path alternating), so host drift hits both alike; ``speedup`` is the
ratio of the two medians. Results go to ``BENCH_train.json`` so the
ratios are tracked across PRs (and gated in CI by
``.github/check_bench_regression.py``).

Not a pytest module — run directly::

    python benchmarks/perf_train.py [--smoke] [--repeats N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from collections import defaultdict
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

from repro.core import SADAE, SADAEConfig, Sim2RecConfig, build_sim2rec_policy
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

#: Sets per SADAE step, ``train_sadae``'s default.
SETS_PER_STEP = 8


class RoundRecorder(PPO):
    """``PPO.update``'s minibatch schedule without the learning: every
    round's ``(segment, user_idx)`` members are recorded, nothing runs."""

    def _update_stacked(self, members):
        self.rounds.append([(segment, idx) for segment, _, idx in members])
        return defaultdict(float)


def minibatch_rounds(policy, buffer, epochs: int):
    """The members of every stacked round ``PPO.update`` runs on ``buffer``."""
    recorder = RoundRecorder(policy, PPOConfig(update_epochs=epochs))
    recorder.rounds = []
    recorder.update(buffer)
    return recorder.rounds


def backward(outputs) -> None:
    """Backpropagate the sum of the log-probs, values and entropies."""
    log_probs, values, entropy = outputs
    (log_probs.sum() + values.sum() + entropy.sum()).backward()


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
    """Time ``PPO.update``'s minibatch rounds through both evaluations.

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
    rounds = minibatch_rounds(policy, buffer, epochs=2)

    def sequential() -> None:
        for members in rounds:
            policy.zero_grad()
            for segment, idx in members:
                backward(policy.evaluate_segment(segment, idx))

    def batched() -> None:
        for members in rounds:
            policy.zero_grad()
            backward(
                policy.evaluate_segments_batched(
                    [segment for segment, _ in members], [idx for _, idx in members]
                )
            )

    batched()  # warmup (scratch buffers, BLAS threads)
    sequential_s, batched_s = median_pair_times(sequential, batched, repeats)
    result = {
        "name": name,
        "kind": "ppo_update",
        "policy": policy_kind,
        "num_cities": config.num_cities,
        "drivers_per_city": config.drivers_per_city,
        "horizon": horizon,
        "total_users": config.num_cities * config.drivers_per_city,
        "rounds": len(rounds),
        "pairs": repeats,
        "sequential_s": round(sequential_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(sequential_s / batched_s, 3),
        "equivalent": True,
    }
    print(
        f"[{name}] {config.num_cities} cities x {config.drivers_per_city} drivers, "
        f"T={horizon}, {len(rounds)} rounds: seq={sequential_s:.3f}s "
        f"batched={batched_s:.3f}s -> {result['speedup']:.2f}x (median of {repeats} pairs)"
    )
    return result


def verify_elbo_equivalence(sadae, steps) -> None:
    """Every per-set ``elbo_batch`` ELBO must equal the per-set ``elbo`` bit for bit."""
    sequential_rng, batched_rng = np.random.default_rng(7), np.random.default_rng(7)
    for step in steps:
        sequential = [sadae.elbo(s, a, sequential_rng).item() for s, a in step]
        batched = [value.item() for value in sadae.elbo_batch(step, batched_rng)]
        if sequential != batched:
            raise AssertionError("per-set/batched SADAE ELBOs differ")


def bench_sadae_epoch(name: str, num_sets: int, set_size: int, repeats: int) -> dict:
    """Time two epochs of SADAE steps: per-set vs set-batched ELBO forwards."""
    rng = np.random.default_rng(0)
    sets = []
    for _ in range(num_sets):
        mean = rng.uniform(-2, 2, 2)
        sets.append(
            (rng.normal(mean, 1.0, (set_size, 2)), rng.normal(0, 1, (set_size, 1)))
        )
    sadae = SADAE(
        2,
        1,
        SADAEConfig(latent_dim=8, encoder_hidden=(64, 64), decoder_hidden=(64, 64), seed=0),
    )
    sadae.fit_normalizer(sets)
    order_rng = np.random.default_rng(7)
    steps = [
        [sets[i] for i in order[start : start + SETS_PER_STEP]]
        for order in (order_rng.permutation(num_sets) for _ in range(2))
        for start in range(0, num_sets, SETS_PER_STEP)
    ]
    verify_elbo_equivalence(sadae, steps)
    noise = np.random.default_rng(7)

    def negative_sum(elbos) -> None:
        total = elbos[0]
        for value in elbos[1:]:
            total = total + value
        (-total).backward()

    def sequential() -> None:
        for step in steps:
            sadae.zero_grad()
            negative_sum([sadae.elbo(s, a, noise) for s, a in step])

    def batched() -> None:
        for step in steps:
            sadae.zero_grad()
            negative_sum(sadae.elbo_batch(step, noise))

    batched()  # warmup
    sequential_s, batched_s = median_pair_times(sequential, batched, repeats)
    result = {
        "name": name,
        "kind": "sadae_epoch",
        "num_sets": num_sets,
        "set_size": set_size,
        "steps": len(steps),
        "pairs": repeats,
        "sequential_s": round(sequential_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(sequential_s / batched_s, 3),
        "equivalent": True,
    }
    print(
        f"[{name}] {num_sets} sets x {set_size} users, {len(steps)} steps: "
        f"seq={sequential_s:.3f}s batched={batched_s:.3f}s -> {result['speedup']:.2f}x "
        f"(median of {repeats} pairs)"
    )
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny CI-sized run")
    parser.add_argument(
        "--repeats", type=int, default=5, help="alternated timing pairs per record"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_train.json",
    )
    args = parser.parse_args()
    repeats = max(args.repeats, 1)

    if args.smoke:
        repeats = min(repeats, 3)
        results = [
            bench_ppo_update(
                "smoke_ppo", DPRConfig(num_cities=6, drivers_per_city=6, horizon=8, seed=0),
                horizon=5, repeats=repeats,
            ),
            bench_sadae_epoch("smoke_sadae", num_sets=8, set_size=40, repeats=repeats),
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
            bench_sadae_epoch("sadae_corpus", num_sets=48, set_size=100, repeats=repeats),
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
