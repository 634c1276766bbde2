"""``train_slate``: the ``python -m repro.scenarios train`` path, in-process.

One *repeat* builds the slate scenario and its trainer, pretrains SADAE,
runs the training iterations with a checkpoint after each, and evaluates
the policy zero-shot in held-out target environments. Repeats continue
until the measuring window is spent; every repeat uses the same seed, so
they double as the determinism gate.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .common import OUT, Result, median, tail_ms, write_spans
from .tracer import SpanRecorder


@dataclass(frozen=True)
class TrainSize:
    num_envs: int = 16
    num_users: int = 10
    iterations: int = 20
    pretrain_epochs: int = 5
    # Target envs (seed offsets) averaged into the zero-shot return: one
    # 10-user episode is too small a sample to compare seeds with.
    target_envs: int = 32
    min_repeats: int = 2


def _trace_targets():
    from repro import nn
    from repro.core import PolicyTrainer, SADAE
    from repro.envs import SlateRecEnv
    from repro.rl import PPO, RecurrentActorCritic, VecEnvPool
    from repro.scenarios import ScenarioTrainer

    # Collection steps a VecEnvPool, or one env directly when both
    # sampled simulators are the same object.
    return [
        (PolicyTrainer, "train_iteration", "train.iteration"),
        (PolicyTrainer, "collect", "trainer.collect"),
        (VecEnvPool, "step", "envs.step"),
        (SlateRecEnv, "step", "envs.step"),
        (RecurrentActorCritic, "act", "policy.act"),
        (SADAE, "embed", "sadae.embed"),
        (PPO, "update", "ppo.update"),
        (RecurrentActorCritic, "evaluate_segments_batched", "ppo.forward"),
        (RecurrentActorCritic, "evaluate_segment", "ppo.forward"),
        (SADAE, "embed_tensor", "sadae.context"),
        (nn.Tensor, "backward", "nn.backward"),
        (nn.Adam, "step", "nn.optim_step"),
        (nn, "clip_grad_norm", "nn.optim_step"),
        (ScenarioTrainer, "after_update", "sadae.update"),
        (PolicyTrainer, "save_checkpoint", "checkpoint.save"),
        (ScenarioTrainer, "pretrain_sadae", "setup.sadae_pretrain"),
    ]


def _params_digest(policy) -> str:
    digest = hashlib.sha256()
    for param in policy.parameters():
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()


def _finite(policy) -> bool:
    return all(np.isfinite(param.data).all() for param in policy.parameters())


def one_repeat(seed: int, size: TrainSize, checkpoint: str) -> Dict[str, object]:
    """Build, pretrain, train and evaluate once; returns timings and outputs."""
    from repro.core import scenario_small_config
    from repro.rl import evaluate
    from repro.scenarios import make_scenario, normalize_spec, trainer_from_config

    started = time.perf_counter()
    config = scenario_small_config(seed=seed)
    config.scenario = normalize_spec(
        {
            "family": "slate",
            "num_envs": size.num_envs,
            "num_users": size.num_users,
            "seed": seed,
        }
    ).to_dict()
    config.checkpoint_path = checkpoint
    config.checkpoint_every = 1
    scenario = make_scenario(config.scenario)
    iteration_s: List[float] = []
    logged: List[Dict[str, float]] = []
    with trainer_from_config(config, scenario) as trainer:
        trainer.pretrain_sadae(epochs=size.pretrain_epochs)
        setup_s = time.perf_counter() - started
        while trainer.iteration < size.iterations:
            begin = time.perf_counter()
            logged.append(trainer.train_iteration())
            iteration_s.append(time.perf_counter() - begin)
        policy = trainer.sim2rec_policy
    user_steps = (
        config.segments_per_iteration * size.num_users * config.scenario["horizon"]
    )
    returns = [
        evaluate(
            policy.as_act_fn(np.random.default_rng(seed), deterministic=True),
            scenario.make_target_env(seed_offset=offset),
        )
        for offset in range(size.target_envs)
    ]
    return {
        "setup_s": setup_s,
        "iteration_s": iteration_s,
        "logged": logged,
        "target_return": float(np.mean(returns)),
        "digest": _params_digest(policy),
        "finite": _finite(policy),
        "user_steps_per_iteration": user_steps,
    }


def _account(result: Result, repeat: Dict[str, object]) -> None:
    """Every training iteration is one op; a non-finite step is a failed one."""
    for metrics in repeat["logged"]:
        result.attempted += 1
        if not all(np.isfinite(value) for value in metrics.values()):
            result.failed += 1


def _gate(result: Result, repeats: List[Dict[str, object]]) -> None:
    first = repeats[0]
    for index, repeat in enumerate(repeats):
        result.gate(repeat["finite"], f"repeat {index}: non-finite parameters")
        result.gate(
            all(np.isfinite(v) for m in repeat["logged"] for v in m.values()),
            f"repeat {index}: non-finite logged metrics",
        )
        result.gate(
            repeat["logged"] == first["logged"],
            f"repeat {index}: logged metrics differ from repeat 0 with the same seed",
        )
        result.gate(
            repeat["digest"] == first["digest"],
            f"repeat {index}: trained parameters differ from repeat 0",
        )
        result.gate(
            repeat["target_return"] == first["target_return"],
            f"repeat {index}: target return differs from repeat 0",
        )


def run(seed: int, seconds: float, trace: bool, size: TrainSize = TrainSize()) -> Result:
    OUT.mkdir(exist_ok=True)
    checkpoint = str(OUT / f"train_slate-{seed}.npz")
    result = Result("train_slate", seed, trace)
    if trace:
        return _run_traced(result, seed, size, checkpoint)
    repeats: List[Dict[str, object]] = []
    window = time.perf_counter()
    while len(repeats) < size.min_repeats or time.perf_counter() - window < seconds:
        repeats.append(one_repeat(seed, size, checkpoint))
        _account(result, repeats[-1])
    _gate(result, repeats)
    iterations = [t for repeat in repeats for t in repeat["iteration_s"]]
    first = repeats[0]
    result.notes["repeats"] = len(repeats)
    result.notes["iterations_timed"] = len(iterations)
    result.notes["tail_ms"] = tail_ms(iterations)
    result.notes["train_wall_s"] = [sum(r["iteration_s"]) for r in repeats]
    result.metrics.update(
        setup_s=median([r["setup_s"] for r in repeats]),
        op_p50_ms=median(iterations) * 1000.0,
        user_steps_per_s=first["user_steps_per_iteration"] / median(iterations),
        mean_return=first["target_return"],
    )
    return result


def _run_traced(result: Result, seed: int, size: TrainSize, checkpoint: str) -> Result:
    """One untraced and one traced repeat of identical work."""
    plain = one_repeat(seed, size, checkpoint)
    recorder = SpanRecorder()
    with recorder.instrument(_trace_targets()):
        traced = one_repeat(seed, size, checkpoint)
    for repeat in (plain, traced):
        _account(result, repeat)
    # Tracing must be inert: same logged metrics and parameters.
    _gate(result, [plain, traced])
    # Layer totals cover the timed iterations only; pretraining (which
    # also runs backward and optimiser steps) is reported as set-up.
    table = recorder.summary(root="train.iteration")
    iterations = table["train.iteration"]
    wall = float(iterations["total_s"])
    result.metrics.update(layer_metrics(table))
    pretrain = recorder.summary(root="setup.sadae_pretrain")["setup.sadae_pretrain"]
    result.metrics.update(
        {
            "setup.sadae_pretrain_s": pretrain["total_s"],
            "train.remainder_s": iterations["self_s"],
            "trace.wall_s": wall,
            "trace.overhead_s": wall - sum(plain["iteration_s"]),
            "trace.ops": iterations["calls"],
        }
    )
    result.spans_file = write_spans(
        f"train_slate-{seed}",
        {"wall_s": wall, "root": "train.iteration", "table": table, "spans": recorder.spans()},
    )
    return result


LAYERS = (
    "trainer.collect",
    "envs.step",
    "policy.act",
    "sadae.embed",
    "ppo.update",
    "ppo.forward",
    "sadae.context",
    "nn.backward",
    "nn.optim_step",
    "sadae.update",
    "checkpoint.save",
)
COUNTED = ("envs.step", "policy.act", "nn.backward")


def layer_metrics(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Inclusive seconds (and call counts) per training layer."""
    metrics: Dict[str, float] = {}
    for name in LAYERS:
        metrics[f"{name}_s"] = float(table.get(name, {}).get("total_s", 0.0))
    for name in COUNTED:
        metrics[f"{name}_calls"] = int(table.get(name, {}).get("calls", 0))
    return metrics
