"""``rollout_eval``: ``repro.rl.evaluate`` over a sharded slate population.

An untrained Sim2Rec policy sized for the slate family is evaluated with
sampled actions across a ``ShardedVecEnvPool`` of worker processes. Each
call perturbs one weight first (so the replica broadcast is paid, as
when evaluating after every update), reloads the population's initial
envs into the workers, and evaluates with fresh per-env noise streams —
so every call does the same work and is independent of the calls before
it.
"""

from __future__ import annotations

import copy
import pickle
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .common import Result, median, tail_ms, write_spans
from .tracer import SpanRecorder


@dataclass(frozen=True)
class RolloutSize:
    num_envs: int = 48
    num_users: int = 50
    workers: int = 2
    setups: int = 3
    min_calls: int = 5


class Population:
    """The policy, the initial envs and the per-call inputs of one seed."""

    def __init__(self, seed: int, size: RolloutSize) -> None:
        from repro.core import build_sim2rec_policy, scenario_small_config
        from repro.scenarios import make_scenario

        self.seed = seed
        scenario = make_scenario(
            {
                "family": "slate",
                "num_envs": size.num_envs,
                "num_users": size.num_users,
                "seed": seed,
            }
        )
        self.envs = scenario.make_train_envs()
        self.policy = build_sim2rec_policy(
            scenario.state_dim, scenario.action_dim, scenario_small_config(seed=seed)
        )
        self._param = self.policy.parameters()[0]
        self._base = float(self._param.data.flat[0])
        self.user_steps = sum(env.num_users * env.horizon for env in self.envs)

    def perturb(self, call: int) -> None:
        """Move one weight so that consecutive calls never share weights."""
        self._param.data.flat[0] = self._base + 1e-3 * (call % 2)

    def streams(self, call: int) -> List[np.random.Generator]:
        return [np.random.default_rng([self.seed, call, i]) for i in range(len(self.envs))]


def _spawn_pool(population: Population, size: RolloutSize):
    from repro.rl import ShardedVecEnvPool

    return ShardedVecEnvPool(population.envs, num_workers=size.workers)


def _call(pool, population: Population, call: int) -> np.ndarray:
    from repro.rl import evaluate

    population.perturb(call)
    pool.load_envs(population.envs)
    return evaluate(
        population.policy, pool, rng=population.streams(call), deterministic=False
    )


def _reference(population: Population, call: int) -> np.ndarray:
    """The same call in-process: fresh env copies, same streams and weights."""
    from repro.rl import evaluate

    population.perturb(call)
    return evaluate(
        population.policy,
        copy.deepcopy(population.envs),
        rng=population.streams(call),
        deterministic=False,
    )


def _setup(seed: int, size: RolloutSize):
    """Build the population and its worker pool ``size.setups`` times.

    Every set-up but the last is torn down again; returns the last one
    and the median set-up time (population build + pool spawn + first
    call).
    """
    times = []
    for attempt in range(size.setups):
        started = time.perf_counter()
        population = Population(seed, size)
        pool = _spawn_pool(population, size)
        try:
            _call(pool, population, 0)
        except BaseException:
            pool.close()
            raise
        times.append(time.perf_counter() - started)
        if attempt < size.setups - 1:
            pool.close()
    return population, pool, median(times)


def _measure(result: Result, pool, population: Population, seconds: float,
             min_calls: int) -> Tuple[Dict[int, np.ndarray], List[float]]:
    """Run calls 1, 2, ... until ``seconds`` pass (at least ``min_calls``).

    Returns each call's per-env returns by call number, and the call times.
    """
    from repro.rl import WorkerCrashed, WorkerStepError

    outputs: Dict[int, np.ndarray] = {}
    durations: List[float] = []
    window = time.perf_counter()
    call = 1
    while len(durations) < min_calls or time.perf_counter() - window < seconds:
        respawns = sum(pool.restart_counts)
        begin = time.perf_counter()
        result.attempted += 1
        try:
            outputs[call] = _call(pool, population, call)
        except (WorkerCrashed, WorkerStepError) as error:
            result.failed += 1
            result.gate(False, f"call {call} failed: {error!r}")
            break
        durations.append(time.perf_counter() - begin)
        if pool.degraded or sum(pool.restart_counts) != respawns:
            result.failed += 1
        call += 1
    return outputs, durations


def _gate(result: Result, population: Population, outputs: Dict[int, np.ndarray]) -> None:
    """Re-derive the first and last calls' per-env returns in-process."""
    for call in sorted({min(outputs), max(outputs)}):
        reference = _reference(population, call)
        result.gate(
            np.array_equal(outputs[call], reference),
            f"call {call}: sharded per-env returns differ from in-process evaluate",
        )


def run(seed: int, seconds: float, trace: bool, size: RolloutSize = RolloutSize()) -> Result:
    result = Result("rollout_eval", seed, trace)
    population, pool, setup_s = _setup(seed, size)
    try:
        if trace:
            return _run_traced(result, pool, population, seconds, size)
        outputs, durations = _measure(result, pool, population, seconds, size.min_calls)
    finally:
        pool.close()
    if not result.correct:
        return result
    _gate(result, population, outputs)
    result.notes["calls"] = len(durations)
    result.notes["tail_ms"] = tail_ms(durations)
    result.metrics.update(
        setup_s=setup_s,
        op_p50_ms=median(durations) * 1000.0,
        user_steps_per_s=population.user_steps / median(durations),
        mean_return=float(np.mean(outputs[min(outputs)])),
    )
    return result


def _run_traced(result: Result, pool, population: Population, seconds: float,
                size: RolloutSize) -> Result:
    """Untraced calls for half the window, then the same number traced."""
    from repro.nn import state_to_bytes
    from repro.rl import ShardedVecEnvPool

    plain, durations = _measure(result, pool, population, seconds / 2, size.min_calls)
    plain_wall = sum(durations)
    count = len(plain)
    recorder = SpanRecorder()
    broadcasts = pool.replica_broadcasts
    respawns = sum(pool.restart_counts)
    targets = [
        (ShardedVecEnvPool, "sync_policy", "workers.sync_policy"),
        (ShardedVecEnvPool, "load_envs", "workers.load_envs"),
        (ShardedVecEnvPool, "evaluate_policy", "workers.evaluate"),
    ]
    traced: Dict[int, np.ndarray] = {}
    with recorder.instrument(targets):
        for call in range(count + 1, 2 * count + 1):
            result.attempted += 1
            with recorder.span("eval.call"):
                traced[call] = _call(pool, population, call)
    broadcasts = pool.replica_broadcasts - broadcasts
    # The traced calls are checked like the untraced ones: tracing is inert.
    _gate(result, population, traced)
    table = recorder.summary(root="eval.call")
    root = table["eval.call"]
    replica_bytes = len(state_to_bytes(population.policy.replica_state()))
    env_bytes = len(pickle.dumps(population.envs))
    result.metrics.update(
        {
            "workers.sync_policy_s": table["workers.sync_policy"]["total_s"],
            "workers.broadcasts": broadcasts,
            "workers.load_envs_s": table["workers.load_envs"]["total_s"],
            "workers.evaluate_s": table["workers.evaluate"]["total_s"],
            "workers.replica_bytes": replica_bytes * pool.num_workers * broadcasts,
            "workers.env_bytes": env_bytes * table["workers.load_envs"]["calls"],
            "workers.respawns": sum(pool.restart_counts) - respawns,
            "eval.remainder_s": root["self_s"],
            "trace.wall_s": root["total_s"],
            "trace.overhead_s": root["total_s"] - plain_wall,
            "trace.ops": root["calls"],
        }
    )
    result.spans_file = write_spans(
        f"rollout_eval-{population.seed}",
        {"wall_s": root["total_s"], "root": "eval.call", "table": table,
         "spans": recorder.spans()},
    )
    return result
